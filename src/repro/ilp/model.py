"""ILP model builder: variables, constraints, objective, solve dispatch.

:class:`IlpModel` is the interface the contention models program against.
It collects named variables and constraints, converts them to the dense
computational form used by the bundled simplex / branch-and-bound solver,
and can alternatively hand the instance to ``scipy.optimize.milp`` for
cross-validation (the test-suite solves every paper instance with both
backends and asserts agreement).

Only what the paper's models need is supported — and that is enforced
rather than half-implemented: variables with finite non-negative lower
bounds, optional upper bounds, integer or continuous domains, ``<=``,
``>=`` and ``==`` constraints, and a linear objective.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import IlpError
from repro.ilp.expr import Constraint, LinExpr, Sense, Var, lin_sum
from repro.ilp.solution import Solution, SolveStats, SolveStatus

__all__ = ["ILP_BACKENDS", "IlpModel", "StandardForm", "lin_sum"]

#: Solver backends :meth:`IlpModel.solve` accepts.
ILP_BACKENDS = ("bnb", "scipy", "lp")


class StandardForm:
    """Dense-array view of a model, shared by all backends.

    Attributes:
        variables: model variables in column order.
        c: objective coefficients (maximisation convention).
        a_ub, b_ub: ``a_ub @ x <= b_ub`` rows (variable upper bounds and
            positive lower bounds folded in as rows for the bundled solver).
        a_eq, b_eq: equality rows.
        integer_mask: boolean array marking integral columns.
        lower, upper: the original per-variable bounds (used by the scipy
            backend, which handles bounds natively).
        constraint_rows: per model constraint, in order, the
            ``(block, row, sign)`` that holds it: ``block`` is ``"ub"``
            or ``"eq"``, and the row's right-hand side is ``sign`` times
            the constraint's (``-1.0`` for a ``>=`` row folded into
            ``a_ub``).  :meth:`with_rhs` rewrites rows through it.
    """

    def __init__(self, model: "IlpModel") -> None:
        self.variables: tuple[Var, ...] = tuple(model.variables)
        index = {v: j for j, v in enumerate(self.variables)}
        n = len(self.variables)

        self.c = np.zeros(n)
        for var, coef in model.objective.terms.items():
            self.c[index[var]] = coef
        self.objective_constant = model.objective.constant

        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        eq_rows: list[np.ndarray] = []
        eq_rhs: list[float] = []
        constraint_rows: list[tuple[str, int, float]] = []
        for constraint in model.constraints:
            row = np.zeros(n)
            for var, coef in constraint.terms().items():
                try:
                    row[index[var]] = coef
                except KeyError as exc:
                    raise IlpError(
                        f"constraint {constraint!r} uses variable "
                        f"{var.name!r} not declared in this model"
                    ) from exc
            if constraint.sense is Sense.LE:
                constraint_rows.append(("ub", len(ub_rows), 1.0))
                ub_rows.append(row)
                ub_rhs.append(constraint.rhs)
            elif constraint.sense is Sense.GE:
                constraint_rows.append(("ub", len(ub_rows), -1.0))
                ub_rows.append(-row)
                ub_rhs.append(-constraint.rhs)
            else:
                constraint_rows.append(("eq", len(eq_rows), 1.0))
                eq_rows.append(row)
                eq_rhs.append(constraint.rhs)
        self.constraint_rows = tuple(constraint_rows)

        # Fold variable bounds into rows for the bundled solver, which works
        # on x >= 0.
        for j, var in enumerate(self.variables):
            if var.lower < 0:
                raise IlpError(
                    f"variable {var.name!r}: negative lower bounds are not "
                    "supported (the contention models never need them)"
                )
            if var.lower > 0:
                row = np.zeros(n)
                row[j] = -1.0
                ub_rows.append(row)
                ub_rhs.append(-var.lower)
            if var.upper is not None:
                row = np.zeros(n)
                row[j] = 1.0
                ub_rows.append(row)
                ub_rhs.append(var.upper)

        self.a_ub = np.array(ub_rows) if ub_rows else np.empty((0, n))
        self.b_ub = np.array(ub_rhs)
        self.a_eq = np.array(eq_rows) if eq_rows else np.empty((0, n))
        self.b_eq = np.array(eq_rhs)
        self.integer_mask = np.array([v.integer for v in self.variables])
        self.lower = np.array([v.lower for v in self.variables])
        self.upper = np.array(
            [np.inf if v.upper is None else v.upper for v in self.variables]
        )

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    def with_rhs(self, rhs: Mapping[int, float]) -> "StandardForm":
        """This form with constraint ``k``'s right-hand side set to
        ``rhs[k]`` (``k`` counts constraints in model order).

        The copy gets fresh ``b_ub`` and ``b_eq`` and shares every other
        array with this form, along with its memoised structure
        signature.  This form's arrays become read-only first, so a
        write into one fails loudly instead of reaching every form that
        shares it.
        """
        if self.c.flags.writeable:  # they are frozen together
            for array in (
                self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq,
                self.integer_mask, self.lower, self.upper,
            ):
                array.flags.writeable = False
        b_ub = self.b_ub.copy()
        b_eq = self.b_eq.copy()
        rows = self.constraint_rows
        for k, value in rhs.items():
            block, row, sign = rows[k]
            (b_ub if block == "ub" else b_eq)[row] = sign * value
        form = object.__new__(StandardForm)
        form.__dict__.update(self.__dict__)
        form.b_ub, form.b_eq = b_ub, b_eq
        return form


class IlpModel:
    """A maximisation integer linear program under construction.

    Usage mirrors the paper's formulation style::

        model = IlpModel("ilp-ptac")
        n = model.add_var("n[pf0,co,b->a]")
        model.add_constraint(n <= 10, name="eq11")
        model.maximize(16 * n)
        solution = model.solve()
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._variables: list[Var] = []
        self._names: set[str] = set()
        self._constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._form: StandardForm | None = None
        # Copy-on-write (see :meth:`with_rhs`): ``_shared`` marks the
        # three lists above as shared with other models, and ``_rhs``
        # holds right-hand sides not yet written into ``_constraints``.
        self._shared = False
        self._rhs: dict[int, float] | None = None

    def _own(self) -> None:
        """Give this model lists of its own before it changes them."""
        if self._shared:
            self._constraints = list(self.constraints)
            self._variables = list(self._variables)
            self._names = set(self._names)
            self._shared = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        *,
        lower: float = 0.0,
        upper: float | None = None,
        integer: bool = True,
    ) -> Var:
        """Declare a new decision variable.

        Args:
            name: unique display name within the model.
            lower: lower bound; must be non-negative.
            upper: optional upper bound.
            integer: integrality requirement (default, as every quantity in
                the paper's model is a request count).
        """
        if name in self._names:
            raise IlpError(f"duplicate variable name {name!r}")
        self._own()
        var = Var(name=name, lower=lower, upper=upper, integer=integer)
        self._variables.append(var)
        self._names.add(name)
        self._form = None
        return var

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Attach a constraint built with ``<=``/``>=``/``==`` operators."""
        if not isinstance(constraint, Constraint):
            raise IlpError(
                f"expected a Constraint, got {constraint!r}; did a comparison "
                "collapse to bool?"
            )
        if name:
            constraint = constraint.named(name)
        self._own()
        self._constraints.append(constraint)
        self._form = None
        return constraint

    def maximize(self, expr: LinExpr | Var) -> None:
        """Set the (maximisation) objective."""
        if isinstance(expr, Var):
            expr = expr + 0
        self._objective = expr
        self._form = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(self._variables)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        if self._rhs is not None:
            # First read of a copy-on-write instance: write its
            # right-hand sides into a list of its own.
            constraints = list(self._constraints)
            for k, value in self._rhs.items():
                constraints[k] = constraints[k].with_rhs(value)
            self._constraints = constraints
            self._rhs = None
        return tuple(self._constraints)

    @property
    def objective(self) -> LinExpr:
        return self._objective

    def constraint_named(self, name: str) -> Constraint:
        """Find a constraint by its display name."""
        for constraint in self.constraints:
            if constraint.name == name:
                return constraint
        raise IlpError(f"model has no constraint named {name!r}")

    def standard_form(self) -> StandardForm:
        """Dense-array view shared by all solver backends.

        Memoised: repeated solves (and the batch solver's structure
        fingerprinting) reuse one construction; any mutation —
        ``add_var``, ``add_constraint``, ``maximize`` — invalidates the
        cached form.  A model made by :meth:`with_rhs` starts with its
        form already built, sharing every array but the right-hand
        sides with its source's form.  The returned arrays are
        therefore read-only by contract (every backend only reads
        them), and shared ones are flagged ``writeable=False``.
        """
        if self._form is None:
            self._form = StandardForm(self)
        return self._form

    def with_rhs(
        self, rhs: Mapping[int, float], *, name: str | None = None
    ) -> "IlpModel":
        """A copy of this model whose constraint ``k`` has right-hand side
        ``rhs[k]`` (``k`` counts :attr:`constraints` in order).

        The copy is copy-on-write: it shares this model's variables,
        names, constraints and objective, and comes with its standard
        form already built (:meth:`StandardForm.with_rhs`: only ``b_ub``
        and ``b_eq`` are new).  Its rewritten constraints are made only
        when something reads :attr:`constraints`.  Whichever of the two
        models is changed first (``add_var``, ``add_constraint``) takes
        lists of its own, so neither change reaches the other.  The copy
        is named ``name``, or this model's name.
        """
        # The rhs a rewritten constraint reports (``-(0.0 - v)``: a
        # zero reads -0.0), so the form holds the very rows that
        # lowering the rewritten constraints gives.
        folded = {k: -(0.0 - float(value)) for k, value in rhs.items()}
        model = IlpModel(self.name if name is None else name)
        model._variables = self._variables
        model._names = self._names
        model._constraints = self._constraints
        if self._rhs is not None:
            folded = {**self._rhs, **folded}
        model._rhs = folded
        model._objective = self._objective
        model._form = self.standard_form().with_rhs(folded)
        model._shared = self._shared = True
        return model

    def check(self, values: dict[Var, float], *, tolerance: float = 1e-6) -> list[str]:
        """Return human-readable violations of ``values`` (empty = feasible).

        Used by tests and by :meth:`recheck` to word a failure.  A
        fully-assigned point is first screened against the dense
        standard-form arrays (one matmul per constraint block); the
        per-constraint walk that renders messages only runs when the
        screen found something to report.
        """
        if len(values) == len(self._variables):
            form = self.standard_form()
            try:
                x = np.array(
                    [values[var] for var in form.variables], dtype=float
                )
            except KeyError:
                x = None
            if x is not None and self._screen_point(form, x, tolerance):
                return []
        violations = []
        for constraint in self.constraints:
            if not constraint.is_satisfied(values, tolerance=tolerance):
                violations.append(f"violated: {constraint!r}")
        for var in self._variables:
            value = values.get(var)
            if value is None:
                violations.append(f"unassigned variable {var.name!r}")
                continue
            if value < var.lower - tolerance:
                violations.append(f"{var.name} = {value} below lower {var.lower}")
            if var.upper is not None and value > var.upper + tolerance:
                violations.append(f"{var.name} = {value} above upper {var.upper}")
            if var.integer and abs(value - round(value)) > tolerance:
                violations.append(f"{var.name} = {value} not integral")
        return violations

    @staticmethod
    def _screen_point(
        form: StandardForm, x: np.ndarray, tolerance: float
    ) -> bool:
        """Array-level feasibility screen (``True`` = provably clean).

        Covers exactly what :meth:`check`'s walk covers: every
        constraint row (the form folds ``>=`` rows in negated), the
        variable bounds, and integrality.
        """
        if form.a_ub.size and (form.a_ub @ x > form.b_ub + tolerance).any():
            return False
        if form.a_eq.size and (
            np.abs(form.a_eq @ x - form.b_eq) > tolerance
        ).any():
            return False
        if (x < form.lower - tolerance).any():
            return False
        if (x > form.upper + tolerance).any():
            return False
        integral = x[form.integer_mask]
        if integral.size and (
            np.abs(integral - np.round(integral)) > tolerance
        ).any():
            return False
        return True

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        backend: str = "bnb",
        *,
        node_limit: int = 100_000,
    ) -> Solution:
        """Solve the model.

        Args:
            backend: ``"bnb"`` (bundled branch-and-bound, the default),
                ``"scipy"`` (``scipy.optimize.milp``) or ``"lp"`` (the LP
                relaxation only — used to quantify the integrality gap).
            node_limit: branch-and-bound node budget.

        Returns:
            A :class:`~repro.ilp.solution.Solution` in maximisation
            convention.
        """
        if backend not in ILP_BACKENDS:
            raise IlpError(
                f"unknown backend {backend!r}; expected one of {ILP_BACKENDS}"
            )
        if backend == "bnb":
            from repro.ilp.branch_and_bound import solve_bnb

            solution = solve_bnb(self.standard_form(), node_limit=node_limit)
        elif backend == "scipy":
            from repro.ilp.scipy_backend import solve_scipy

            solution = solve_scipy(self.standard_form())
        else:
            solution = self._solve_relaxation()

        if backend != "lp":
            self.recheck(solution, f"backend {backend!r}")
        return solution

    def recheck(self, solution: Solution, solver: str) -> None:
        """Re-check an optimal ``solution`` of this model, turning solver
        bugs into loud errors.

        The point is screened as an array against the standard form; the
        named constraints are walked (:meth:`check`) only to word a
        failure.  :meth:`solve` and the batch solver both call this.

        Raises:
            IlpError: the point violates the model; the message starts
                with ``solver`` and names up to five violations.
        """
        if solution.status is not SolveStatus.OPTIMAL:
            return
        assert solution.x is not None
        if self._screen_point(self.standard_form(), solution.x, 1e-6):
            return
        violations = self.check(solution.values)
        if violations:
            raise IlpError(
                f"{solver} returned an infeasible point: "
                + "; ".join(violations[:5])
            )

    def _solve_relaxation(self) -> Solution:
        """Solve the LP relaxation with the bundled simplex."""
        from repro.ilp.simplex import LpStatus, solve_lp

        form = self.standard_form()
        result = solve_lp(
            -form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq
        )
        status = {
            LpStatus.OPTIMAL: SolveStatus.OPTIMAL,
            LpStatus.INFEASIBLE: SolveStatus.INFEASIBLE,
            LpStatus.UNBOUNDED: SolveStatus.UNBOUNDED,
        }[result.status]
        if status is not SolveStatus.OPTIMAL:
            return Solution(
                status=status,
                stats=SolveStats(
                    simplex_iterations=result.iterations, backend="lp"
                ),
            )
        return Solution(
            status=status,
            objective=-result.objective + form.objective_constant,
            x=result.x,
            variables=form.variables,
            stats=SolveStats(
                simplex_iterations=result.iterations, backend="lp"
            ),
        )
