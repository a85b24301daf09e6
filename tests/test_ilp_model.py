"""Tests for the ILP model builder and solve dispatch."""

import numpy as np
import pytest

from repro.errors import IlpError
from repro.ilp.model import IlpModel, StandardForm
from repro.ilp.solution import SolveStatus

FORM_ARRAYS = (
    "c", "a_ub", "b_ub", "a_eq", "b_eq", "integer_mask", "lower", "upper"
)


class TestConstruction:
    def test_duplicate_variable_names_rejected(self):
        model = IlpModel()
        model.add_var("x")
        with pytest.raises(IlpError):
            model.add_var("x")

    def test_negative_lower_bound_rejected_at_solve(self):
        model = IlpModel()
        model.add_var("x", lower=-1)
        model.maximize(model.variables[0] + 0)
        with pytest.raises(IlpError):
            model.solve()

    def test_non_constraint_rejected(self):
        model = IlpModel()
        with pytest.raises(IlpError):
            model.add_constraint(True)  # type: ignore[arg-type]

    def test_foreign_variable_rejected(self):
        model = IlpModel()
        model.add_var("x")
        other = IlpModel()
        y = other.add_var("y")
        model.add_constraint(y <= 1)
        model.maximize(model.variables[0] + 0)
        with pytest.raises(IlpError):
            model.solve()

    def test_constraint_named_lookup(self):
        model = IlpModel()
        x = model.add_var("x")
        model.add_constraint(x <= 5, name="cap")
        assert model.constraint_named("cap").rhs == 5.0
        with pytest.raises(IlpError):
            model.constraint_named("missing")


class TestSolving:
    def _knapsack(self) -> IlpModel:
        model = IlpModel("knapsack")
        x = model.add_var("x", upper=10)
        y = model.add_var("y", upper=10)
        model.add_constraint(2 * x + 3 * y <= 12)
        model.maximize(3 * x + 4 * y)
        return model

    @pytest.mark.parametrize("backend", ["bnb", "scipy"])
    def test_integer_optimum(self, backend):
        solution = self._knapsack().solve(backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(18.0)

    def test_lp_relaxation_at_least_ilp(self):
        model = self._knapsack()
        lp = model.solve(backend="lp")
        ilp = model.solve(backend="bnb")
        assert lp.objective >= ilp.objective - 1e-9

    def test_unknown_backend(self):
        with pytest.raises(IlpError):
            self._knapsack().solve(backend="gurobi")

    def test_lower_bounds_respected(self):
        model = IlpModel()
        x = model.add_var("x", lower=3, upper=10)
        model.maximize(-1 * x)
        solution = model.solve()
        assert solution.value(x) == 3.0

    def test_fractional_lp_integral_ilp(self):
        model = IlpModel()
        x = model.add_var("x")
        model.add_constraint(2 * x <= 7)
        model.maximize(x + 0)
        assert model.solve(backend="lp").objective == pytest.approx(3.5)
        assert model.solve(backend="bnb").objective == pytest.approx(3.0)

    def test_continuous_variables(self):
        model = IlpModel()
        x = model.add_var("x", integer=False)
        model.add_constraint(2 * x <= 7)
        model.maximize(x + 0)
        assert model.solve(backend="bnb").objective == pytest.approx(3.5)

    def test_objective_constant_carried(self):
        model = IlpModel()
        x = model.add_var("x", upper=2)
        model.maximize(x + 10)
        assert model.solve().objective == pytest.approx(12.0)

    def test_check_reports_violations(self):
        model = IlpModel()
        x = model.add_var("x", upper=5)
        model.add_constraint(x <= 3, name="cap")
        violations = model.check({x: 4.0})
        assert any("cap" in v or "violated" in v for v in violations)
        assert model.check({x: 2.0}) == []

    def test_check_integrality(self):
        model = IlpModel()
        x = model.add_var("x")
        assert any("integral" in v for v in model.check({x: 1.5}))


class TestWithRhs:
    """``IlpModel.with_rhs``: a copy with new right-hand sides and a
    standard form that shares everything else."""

    def _model(self) -> IlpModel:
        model = IlpModel("source")
        x = model.add_var("x", upper=10)
        y = model.add_var("y")
        model.add_constraint(x + 2 * y <= 8, name="le")
        model.add_constraint(x - y >= 1, name="ge")
        model.add_constraint(x + y == 6, name="eq")
        model.maximize(3 * x + 2 * y)
        return model

    def test_form_matches_a_fresh_lowering(self):
        source = self._model()
        copy = source.with_rhs({0: 9, 1: 0, 2: 5}, name="copy")
        assert copy.name == "copy"
        assert [(c.name, c.sense, c.rhs) for c in copy.constraints] == [
            (c.name, c.sense, rhs)
            for c, rhs in zip(source.constraints, (9.0, 0.0, 5.0))
        ]
        form, fresh = copy.standard_form(), StandardForm(copy)
        for field in FORM_ARRAYS:
            assert getattr(form, field).tobytes() == (
                getattr(fresh, field).tobytes()
            ), field
        assert copy.solve().objective == source.with_rhs(
            {0: 9, 1: 0, 2: 5}
        ).solve().objective

    def test_shares_all_but_the_right_hand_sides(self):
        source = self._model()
        form = source.with_rhs({0: 9}).standard_form()
        shared = source.standard_form()
        assert form.variables is shared.variables
        for field in ("c", "a_ub", "a_eq", "integer_mask", "lower", "upper"):
            assert getattr(form, field) is getattr(shared, field)
            assert not getattr(form, field).flags.writeable
        assert form.b_ub is not shared.b_ub
        assert form.b_eq is not shared.b_eq
        with pytest.raises(ValueError, match="read-only"):
            form.a_ub[0, 0] = 2.0

    def test_building_on_a_copy_leaves_the_source_alone(self):
        source = self._model()
        variables, constraints = source.variables, source.constraints
        objective = source.objective
        arrays = {
            field: getattr(source.standard_form(), field).tobytes()
            for field in FORM_ARRAYS
        }
        copy = source.with_rhs({0: 9})
        z = copy.add_var("z", upper=1)
        copy.add_constraint(z <= 1, name="extra")
        copy.maximize(z + 0)
        assert copy.solve().objective == 1.0
        assert _same(source.variables, variables)
        assert _same(source.constraints, constraints)
        assert source.objective is objective
        for field, data in arrays.items():
            assert getattr(source.standard_form(), field).tobytes() == data
        assert source.solve().objective == 18.0

    def test_changing_the_source_leaves_its_copies_alone(self):
        source = self._model()
        copy = source.with_rhs({0: 9})
        objective = copy.solve().objective
        names = [v.name for v in copy.variables]
        w = source.add_var("w", upper=5)
        source.add_constraint(w <= 2, name="late")
        assert [v.name for v in copy.variables] == names
        assert [c.name for c in copy.constraints] == ["le", "ge", "eq"]
        assert copy.standard_form().n_variables == len(names)
        assert copy.solve().objective == objective
        assert len(source.constraints) == 4

    def test_rewritten_constraints_are_made_when_read(self, monkeypatch):
        from repro.ilp.expr import Constraint

        rewrites = []
        with_rhs = Constraint.with_rhs
        monkeypatch.setattr(
            Constraint,
            "with_rhs",
            lambda self, rhs: rewrites.append(rhs) or with_rhs(self, rhs),
        )
        source = self._model()
        copy = source.with_rhs({0: 9, 2: 0})
        copy.solve()
        assert rewrites == []
        constraints = copy.constraints
        assert rewrites == [9.0, -0.0]
        assert constraints[1] is source.constraints[1]
        assert [c.rhs for c in constraints] == [9.0, 1.0, 0.0]
        assert copy.constraints == constraints
        assert len(rewrites) == 2

    def test_copy_of_a_copy_keeps_both_rewrites(self):
        source = self._model()
        copy = source.with_rhs({0: 9}).with_rhs({2: 5}, name="twice")
        assert copy.name == "twice"
        assert [c.rhs for c in copy.constraints] == [9.0, 1.0, 5.0]
        form, fresh = copy.standard_form(), StandardForm(copy)
        for field in FORM_ARRAYS:
            assert getattr(form, field).tobytes() == (
                getattr(fresh, field).tobytes()
            ), field


def _same(items, others):
    """Element-wise identity (``Var.__eq__`` builds a constraint)."""
    return len(items) == len(others) and all(
        a is b for a, b in zip(items, others)
    )


class TestSolutionApi:
    def test_value_and_int_value(self):
        model = IlpModel()
        x = model.add_var("x", upper=4)
        model.maximize(2 * x)
        solution = model.solve()
        assert solution.value(x) == 4.0
        assert solution.int_value(x) == 4
        assert solution[2 * x + 1] == 9.0

    def test_unknown_variable_value(self):
        model = IlpModel()
        x = model.add_var("x", upper=1)
        model.maximize(x + 0)
        solution = model.solve()
        from repro.ilp.expr import Var

        with pytest.raises(IlpError):
            solution.value(Var("ghost"))

    def test_require_optimal_on_infeasible(self):
        model = IlpModel()
        x = model.add_var("x")
        model.add_constraint(x <= 1)
        model.add_constraint(x >= 2)
        model.maximize(x + 0)
        solution = model.solve()
        assert solution.status is SolveStatus.INFEASIBLE
        with pytest.raises(IlpError):
            solution.require_optimal()

    def test_by_name(self):
        model = IlpModel()
        x = model.add_var("x", upper=1)
        model.maximize(x + 0)
        assert model.solve().by_name() == {"x": 1.0}

    @pytest.mark.parametrize("backend", ["bnb", "scipy", "lp"])
    def test_values_derive_from_the_point(self, backend):
        model = IlpModel()
        x = model.add_var("x", upper=3)
        y = model.add_var("y", upper=2)
        model.add_constraint(x + y <= 4)
        model.maximize(2 * x + y)
        solution = model.solve(backend)
        assert _same(solution.variables, (x, y))
        assert solution.x.tolist() == [3.0, 1.0]
        assert not solution.x.flags.writeable
        assert solution.values == {x: 3.0, y: 1.0}
        assert solution.int_values(np.array([1, 0])) == [1, 3]
        assert solution == model.solve(backend)
        assert solution != model.with_rhs({0: 3}).solve(backend)

    def test_int_values_checks_integrality(self):
        model = IlpModel()
        x = model.add_var("x", upper=1.5, integer=False)
        model.maximize(x + 0)
        solution = model.solve()
        with pytest.raises(IlpError, match="not integral"):
            solution.int_values(np.array([0]))

    def test_no_point_no_values(self):
        model = IlpModel()
        x = model.add_var("x")
        model.add_constraint(x <= 1)
        model.add_constraint(x >= 2)
        model.maximize(x + 0)
        solution = model.solve()
        assert solution.x is None and solution.values == {}
