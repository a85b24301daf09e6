"""Tests for the two-phase simplex LP solver."""

import numpy as np
import pytest

from repro.ilp import simplex
from repro.ilp.simplex import (
    TOLERANCE,
    LpStatus,
    solve_lp,
    warm_solve_insert_row,
)


def minimize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    n = len(c)
    return solve_lp(
        np.array(c, dtype=float),
        np.array(a_ub if a_ub is not None else []).reshape(-1, n),
        np.array(b_ub if b_ub is not None else []),
        np.array(a_eq if a_eq is not None else []).reshape(-1, n),
        np.array(b_eq if b_eq is not None else []),
    )


class TestBasicLp:
    def test_simple_maximization(self):
        # max 3x + 4y st 2x + 3y <= 12, x,y >= 0 (min of negated costs).
        result = minimize([-3, -4], a_ub=[[2, 3]], b_ub=[12])
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == pytest.approx(-18.0)  # x = 6 wins
        assert result.x == pytest.approx([6, 0])

    def test_two_constraints(self):
        # max x + y st x <= 3, y <= 2.
        result = minimize([-1, -1], a_ub=[[1, 0], [0, 1]], b_ub=[3, 2])
        assert result.objective == pytest.approx(-5.0)

    def test_equality_constraint(self):
        # min x + y st x + y == 4 -> 4.
        result = minimize([1, 1], a_eq=[[1, 1]], b_eq=[4])
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == pytest.approx(4.0)

    def test_negative_rhs_inequality(self):
        # x >= 2 encoded as -x <= -2; min x -> 2.
        result = minimize([1], a_ub=[[-1]], b_ub=[-2])
        assert result.status is LpStatus.OPTIMAL
        assert result.x == pytest.approx([2])

    def test_unconstrained_at_origin(self):
        result = minimize([1, 2])
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == 0.0

    def test_unconstrained_unbounded(self):
        result = minimize([-1])
        assert result.status is LpStatus.UNBOUNDED


class TestInfeasibility:
    def test_contradictory_bounds(self):
        # x <= 1 and x >= 3.
        result = minimize([1], a_ub=[[1], [-1]], b_ub=[1, -3])
        assert result.status is LpStatus.INFEASIBLE

    def test_contradictory_equalities(self):
        result = minimize([1], a_eq=[[1], [1]], b_eq=[1, 2])
        assert result.status is LpStatus.INFEASIBLE

    def test_negative_equality_rhs_feasible(self):
        # -x == -3 -> x = 3.
        result = minimize([1], a_eq=[[-1]], b_eq=[-3])
        assert result.status is LpStatus.OPTIMAL
        assert result.x == pytest.approx([3])


class TestUnboundedness:
    def test_unbounded_direction(self):
        # min -x st y <= 1: x can grow forever.
        result = minimize([-1, 0], a_ub=[[0, 1]], b_ub=[1])
        assert result.status is LpStatus.UNBOUNDED


class TestDegenerateAndRedundant:
    def test_redundant_equalities(self):
        # Same equality twice: solvable despite singular basis candidates.
        result = minimize([1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[4, 4])
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == pytest.approx(4.0)

    def test_degenerate_vertex(self):
        # Three constraints meeting at one point; Bland's rule must not cycle.
        result = minimize(
            [-1, -1],
            a_ub=[[1, 0], [0, 1], [1, 1]],
            b_ub=[2, 2, 2],
        )
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == pytest.approx(-2.0)

    def test_zero_rhs_start(self):
        result = minimize([-1], a_ub=[[1]], b_ub=[0])
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)


class TestAgainstScipy:
    """Random instances cross-checked against scipy.optimize.linprog."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        n = rng.integers(2, 6)
        m = rng.integers(1, 6)
        c = rng.integers(-5, 6, size=n).astype(float)
        a_ub = rng.integers(-3, 4, size=(m, n)).astype(float)
        b_ub = rng.integers(0, 15, size=m).astype(float)

        ours = solve_lp(c, a_ub, b_ub, np.empty((0, n)), np.empty(0))
        reference = linprog(
            c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * n, method="highs"
        )
        if reference.status == 3:
            assert ours.status is LpStatus.UNBOUNDED
        elif reference.status == 2:
            assert ours.status is LpStatus.INFEASIBLE
        else:
            assert ours.status is LpStatus.OPTIMAL
            assert ours.objective == pytest.approx(reference.fun, abs=1e-6)


class TestChildScreen:
    """``warm_solve_insert_row`` answers a child that is dead at 0 dual
    pivots from its bound row alone; every other child still goes
    through the shared recovery."""

    # max 2 x0 + 3 x1 + x2 st x0 + x1 + x2 <= 10, x0 + 2 x1 <= 8,
    # x2 <= 6: optimal at x = (8, 0, 2) with basis (x2, x0, s2).
    C = np.array([-2.0, -3.0, -1.0])
    A_UB = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    B_UB = np.array([10.0, 8.0, 6.0])
    EMPTY_EQ = (np.empty((0, 3)), np.empty(0))

    @pytest.fixture
    def parent(self):
        result = solve_lp(
            self.C, self.A_UB, self.B_UB, *self.EMPTY_EQ, keep_tableau=True
        )
        assert result.status is LpStatus.OPTIMAL
        assert result.basis.tolist() == [2, 0, 5]
        return result

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"recover": 0, "dual": 0}
        recover, dual = simplex._recover, simplex._dual_iterate

        def counting_recover(*args, **kwargs):
            counts["recover"] += 1
            return recover(*args, **kwargs)

        def counting_dual(*args, **kwargs):
            counts["dual"] += 1
            return dual(*args, **kwargs)

        monkeypatch.setattr(simplex, "_recover", counting_recover)
        monkeypatch.setattr(simplex, "_dual_iterate", counting_dual)
        return counts

    def child(self, parent, column, sigma, rhs, tableau=None):
        """The child adding ``sigma * x[column] <= rhs`` as a fourth row."""
        return warm_solve_insert_row(
            parent.tableau if tableau is None else tableau,
            parent.basis,
            self.C,
            row_position=3,
            column=column,
            sigma=sigma,
            rhs=rhs,
        )

    def cold_child(self, column, sigma, rhs):
        row = np.zeros((1, 3))
        row[0, column] = sigma
        return solve_lp(
            self.C,
            np.vstack([self.A_UB, row]),
            np.append(self.B_UB, rhs),
            *self.EMPTY_EQ,
        )

    def test_dead_bound_row_is_answered_without_recovery(self, parent, calls):
        # x0 >= 9: x0 is basic in row 1 (x0 + 2 x1 + s1 = 8), whose
        # coefficients are all non-negative, so the reduced bound row
        # reads 2 x1 + s1 + s3 = -1.
        result = self.child(parent, column=0, sigma=-1.0, rhs=-9.0)
        assert result.status is LpStatus.INFEASIBLE
        assert result.iterations == 0
        assert calls == {"recover": 0, "dual": 0}
        # The basis the dual simplex would have reported: the parent's,
        # with the new slack (column 3 + 3) basic in the new row.
        assert result.basis.tolist() == [2, 0, 5, 6]
        assert result.x.size == 0 and result.objective == np.inf
        assert self.cold_child(0, -1.0, -9.0).status is LpStatus.INFEASIBLE

    def test_one_negative_coefficient_takes_its_dual_pivot(
        self, parent, calls
    ):
        # x1 >= 1: x1 is nonbasic, so the reduced row -x1 + s3 = -1 has
        # one negative coefficient and the dual simplex pivots x1 in.
        result = self.child(parent, column=1, sigma=-1.0, rhs=-1.0)
        assert calls == {"recover": 1, "dual": 1}
        assert result.status is LpStatus.OPTIMAL
        assert result.iterations == 1
        cold = self.cold_child(1, -1.0, -1.0)
        assert result.objective == pytest.approx(cold.objective)
        assert result.x == pytest.approx(cold.x)

    def test_violated_parent_row_goes_through_the_dual_simplex(
        self, parent, calls
    ):
        # The same dead bound row as above, but the parent's first row
        # (x2, the smallest basic index) is itself below -TOLERANCE: the
        # dual simplex would pivot that row first, so there is no screen.
        tableau = parent.tableau.copy()
        tableau[0, -1] = -4.0 * TOLERANCE
        result = self.child(parent, 0, -1.0, -9.0, tableau=tableau)
        assert calls == {"recover": 1, "dual": 1}
        assert result.status is LpStatus.INFEASIBLE
        assert result.iterations >= 1
