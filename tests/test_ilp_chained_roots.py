"""Chained sweep roots: warm state tied to its matrices, and same-basis
roots answered without recovery.

The batch solver chains each root relaxation from the previous root of
the same structure signature
(``repro.ilp.branch_and_bound._chained_root``).  Two parts of that state
hold only for particular coefficients, while signatures ignore every
coefficient value:

* the cached ``B^-1 E_eq`` columns hold for the matrices they were
  solved under;
* a root basis's certificate (its recovery found no negative reduced
  cost and made no polish pivot) holds for the matrices and the costs
  it was found under.  A certified root whose new ``B^-1 b`` is
  non-negative is returned at its basis without ``_recover``.

Every test holds the warm path to a cold solve, or to what ``_recover``
returns on the same chained tableau.
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from readings_strategy import task_readings
from repro import paper
from repro.core.ilp_ptac import build_ilp_ptac
from repro.ilp import branch_and_bound, simplex
from repro.ilp.batch import BatchSolver, structure_signature
from repro.ilp.branch_and_bound import solve_bnb, solve_bnb_warm
from repro.ilp.model import IlpModel, lin_sum
from repro.ilp.simplex import TOLERANCE, LpStatus, warm_solve_rhs
from repro.ilp.solution import SolveStatus
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.latency import tc27x_latency_profile

PROFILE = tc27x_latency_profile()
SCENARIOS = {"scenario1": scenario_1, "scenario2": scenario_2}

#: Branch-and-bound node budget of the generated sweeps.
NODE_LIMIT = 2_000


def _by_name(solution):
    return {var.name: value for var, value in solution.values.items()}


def assert_identical(cold, warm, label=""):
    assert cold.status is warm.status, label
    assert cold.objective == warm.objective, label
    assert _by_name(cold) == _by_name(warm), label


@contextlib.contextmanager
def chained_roots():
    """Record every chained root: per call of ``warm_solve_rhs`` from
    branch-and-bound, ``(certified, recovered, result)``, where
    ``recovered`` says whether ``_recover`` ran inside the call."""
    calls = []
    recoveries = []
    solve_rhs = branch_and_bound.warm_solve_rhs
    recover = simplex._recover

    def counting_recover(*args, **kwargs):
        recoveries.append(1)
        return recover(*args, **kwargs)

    def recording(tableau, basis, c, rhs, **kwargs):
        before = len(recoveries)
        result = solve_rhs(tableau, basis, c, rhs, **kwargs)
        calls.append(
            (kwargs.get("certified", False), len(recoveries) > before, result)
        )
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_recover", counting_recover)
        patch.setattr(branch_and_bound, "warm_solve_rhs", recording)
        yield calls


# ----------------------------------------------------------------------
# Cached B^-1 E_eq columns belong to their matrices
# ----------------------------------------------------------------------
def _equality_model(a_eq, rhs_eq, upper=(8, 7, 9), c=(1, 2, 5), a_ub=None,
                    rhs_ub=0):
    """``max c @ x`` over integral ``x <= upper`` with one equality row
    ``a_eq @ x == rhs_eq`` and, when ``a_ub`` is given, one inequality
    row ``a_ub @ x <= rhs_ub``."""
    model = IlpModel("equality")
    x = [model.add_var(f"x{i}", upper=u) for i, u in enumerate(upper)]
    model.add_constraint(
        lin_sum(a * v for a, v in zip(a_eq, x)) == rhs_eq, name="eq"
    )
    if a_ub is not None:
        model.add_constraint(
            lin_sum(a * v for a, v in zip(a_ub, x)) <= rhs_ub, name="ub"
        )
    model.maximize(lin_sum(w * v for w, v in zip(c, x)))
    return model


def test_equality_columns_of_other_matrices_are_not_reused():
    """Four same-signature solves through one solver.  The third changes
    an equality coefficient, so its root solves cold and keeps the
    basis the first chain cached ``B^-1 E_eq`` for.  Reusing that entry
    under the new matrices made the fourth solve report INFEASIBLE."""
    solver = BatchSolver()
    for coefficient, rhs in ((4, 24), (4, 23), (7, 24), (7, 23)):
        warm = solver.solve(_equality_model((1, coefficient, 1), rhs))
        cold = _equality_model((1, coefficient, 1), rhs).solve()
        assert_identical(cold, warm, f"{coefficient} x1, rhs {rhs}")
    assert solver.stats.structures == 1
    assert (warm.status, warm.objective) == (SolveStatus.OPTIMAL, 54.0)


COEFFICIENTS = st.integers(1, 6)


@st.composite
def _alternating_solves(draw):
    """Two models of one signature that differ in one coefficient of
    their equality or their inequality row, and runs of solves that
    alternate between them: ``(pair, [(which, rhs_eq, rhs_ub), ...])``.
    Each run holds at least two solves, so roots chain within it."""
    n = draw(st.integers(2, 4))
    row = st.lists(COEFFICIENTS, min_size=n, max_size=n)
    first = {
        "upper": tuple(draw(st.lists(st.integers(1, 9), min_size=n,
                                     max_size=n))),
        "c": tuple(draw(row)),
        "a_eq": tuple(draw(row)),
        "a_ub": tuple(draw(row)),
    }
    block = draw(st.sampled_from(("a_eq", "a_ub")))
    column = draw(st.integers(0, n - 1))
    value = draw(COEFFICIENTS.filter(lambda v: v != first[block][column]))
    changed = list(first[block])
    changed[column] = value
    pair = (first, {**first, block: tuple(changed)})
    solves = []
    for run in range(draw(st.integers(2, 4))):
        which = run % 2
        spec = pair[which]
        # Right-hand sides up to what x = upper reaches, so most
        # instances are feasible and keep a root to chain from.
        reach = {
            key: sum(a * u for a, u in zip(spec[key], spec["upper"]))
            for key in ("a_eq", "a_ub")
        }
        for _ in range(draw(st.integers(2, 3))):
            solves.append(
                (
                    which,
                    draw(st.integers(0, reach["a_eq"])),
                    draw(st.integers(0, reach["a_ub"])),
                )
            )
    return pair, solves


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=_alternating_solves())
@example(
    case=(
        (
            {"upper": (8, 7, 9), "c": (1, 2, 5), "a_eq": (1, 4, 1),
             "a_ub": (1, 1, 1)},
            {"upper": (8, 7, 9), "c": (1, 2, 5), "a_eq": (1, 7, 1),
             "a_ub": (1, 1, 1)},
        ),
        [(0, 24, 24), (0, 23, 24), (1, 24, 24), (1, 23, 24)],
    ),
)
def test_alternating_coefficients_match_cold_solves(case):
    """Alternating two same-signature models through one solver: every
    batch solve reports the status, objective and values of a cold
    solve."""
    pair, solves = case
    solver = BatchSolver()
    for k, (which, rhs_eq, rhs_ub) in enumerate(solves):
        spec = pair[which]

        def model():
            return _equality_model(
                spec["a_eq"], rhs_eq, spec["upper"], spec["c"],
                spec["a_ub"], rhs_ub,
            )

        assert_identical(model().solve(), solver.solve(model()), f"solve {k}")


# ----------------------------------------------------------------------
# Same-basis roots
# ----------------------------------------------------------------------
def _checked_shortcuts(tally):
    """A ``warm_solve_rhs`` that, whenever it answers at the stored
    basis, also runs ``_recover`` on the same chained tableau and asserts
    the two results are the same, bytes included."""

    def checked(tableau, basis, c, rhs, **kwargs):
        result = warm_solve_rhs(tableau, basis, c, rhs, **kwargs)
        if kwargs.get("certified") and not (rhs < -TOLERANCE).any():
            tally.append(1)
            recovered = warm_solve_rhs(
                tableau, basis, c, rhs,
                keep_tableau=kwargs.get("keep_tableau", False),
            )
            assert recovered.status is result.status is LpStatus.OPTIMAL
            assert result.x.tobytes() == recovered.x.tobytes()
            assert result.objective == recovered.objective
            assert result.iterations == recovered.iterations == 0
            assert result.basis.tobytes() == recovered.basis.tobytes()
            assert result.tableau.tobytes() == recovered.tableau.tobytes()
            assert result.certified and recovered.certified
        return result

    return checked


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario_name=st.sampled_from(sorted(SCENARIOS)),
    app=task_readings("app"),
    rivals=st.lists(task_readings("rival"), min_size=1, max_size=4),
    scales=st.lists(
        st.floats(0.05, 4.0, allow_nan=False), min_size=2, max_size=12
    ),
)
def test_shortcut_roots_equal_their_recovery(
    scenario_name, app, rivals, scales
):
    """Template instances with drawn readings, solved in one pool: each
    root answered at its stored basis is the ``LpResult`` ``_recover``
    returns on the same chained tableau, and each solve matches a cold
    one.  A node budget keeps a rare branch-and-bound-heavy draw cheap;
    cold and warm searches explore the same tree, so they stop alike."""
    scenario = SCENARIOS[scenario_name]()
    contenders = rivals + [rivals[0].scaled(scale) for scale in scales]
    solver = BatchSolver()
    tally = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            branch_and_bound, "warm_solve_rhs", _checked_shortcuts(tally)
        )
        for rival in contenders:
            model = build_ilp_ptac(app, rival, PROFILE, scenario)
            assert_identical(
                model.solve(node_limit=NODE_LIMIT),
                solver.solve(model, node_limit=NODE_LIMIT),
            )


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_reference_sweep_answers_most_roots_at_their_basis(scenario_name):
    """The H-Load sweep of each scenario at 120 scales: nearly every
    chained root keeps its stored basis and skips recovery, and each one
    equals its recovery."""
    scenario = SCENARIOS[scenario_name]()
    app = paper.table6(scenario_name, "app")
    hload = paper.table6(scenario_name, "H-Load")
    solver = BatchSolver()
    tally = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            branch_and_bound, "warm_solve_rhs", _checked_shortcuts(tally)
        )
        for k in range(120):
            solver.solve(
                build_ilp_ptac(
                    app, hload.scaled(0.05 + k / 30), PROFILE, scenario
                )
            )
    assert len(tally) >= 110


def _non_canonical_root():
    """``min -x0 - x1`` s.t. ``x0 + x1 <= 1`` as a reduced tableau with
    ``x1`` basic: optimal, but not the canonical vertex (the polish
    moves to ``x0 = 1``)."""
    tableau = np.array([[1.0, 1.0, 1.0, 1.0]])  # [x0 x1 | s0 | rhs]
    return tableau, np.array([1]), np.array([-1.0, -1.0])


def test_a_root_whose_polish_pivots_is_not_certified():
    tableau, basis, c = _non_canonical_root()
    result = warm_solve_rhs(tableau, basis, c, np.array([1.0]),
                            keep_tableau=True)
    assert result.status is LpStatus.OPTIMAL
    assert result.iterations == 1  # the polish pivot
    assert not result.certified
    assert result.x.tolist() == [1.0, 0.0]
    # Its polished basis is certified: re-solved at it, a new rhs is
    # answered there, at 0 iterations.
    again = warm_solve_rhs(result.tableau, result.basis, c, np.array([3.0]))
    assert again.certified and again.iterations == 0
    assert again.x.tolist() == [3.0, 0.0]


def test_an_uncertified_or_infeasible_rhs_goes_through_recovery(monkeypatch):
    recoveries = []
    recover = simplex._recover
    monkeypatch.setattr(
        simplex,
        "_recover",
        lambda *args: recoveries.append(1) or recover(*args),
    )
    tableau, basis, c = _non_canonical_root()
    # Pledging a certificate the basis lacks is the caller's error; an
    # honest caller passes False and gets the recovery.
    warm_solve_rhs(tableau, basis, c, np.array([1.0]))
    assert len(recoveries) == 1
    polished = warm_solve_rhs(tableau, basis, c, np.array([1.0]),
                              keep_tableau=True)
    assert len(recoveries) == 2
    warm_solve_rhs(polished.tableau, polished.basis, c, np.array([2.0]),
                   certified=True)
    assert len(recoveries) == 2  # answered at the basis
    # A negative entry needs dual pivots: recovery runs.
    result = warm_solve_rhs(polished.tableau, polished.basis, c,
                            np.array([-1.0]), certified=True)
    assert len(recoveries) == 3
    assert result.status is LpStatus.INFEASIBLE


def _sweep_form(scale, scenario_name="scenario1"):
    return build_ilp_ptac(
        paper.table6(scenario_name, "app"),
        paper.table6(scenario_name, "H-Load").scaled(scale),
        PROFILE,
        SCENARIOS[scenario_name](),
    ).standard_form()


def _certified_state():
    """The pooled state after a cold root and one chained root that kept
    its basis: certified."""
    _, state = solve_bnb_warm(_sweep_form(1.0))
    assert not state.certified  # a cold root is never certified
    _, state = solve_bnb_warm(_sweep_form(1.01), state)
    assert state.certified
    return state


def test_polish_pivots_in_a_chained_root_void_the_certificate():
    """In the scenario-1 H-Load sweep some chained roots need dual pivots
    and then a polish pivot: the next root goes through recovery."""
    state = None
    polished = 0
    with chained_roots() as calls:
        for k in range(300):
            _, state = solve_bnb_warm(_sweep_form(0.05 + k * 3.95 / 300),
                                      state)
    for (_, _, previous), (certified, recovered, _) in zip(calls, calls[1:]):
        assert certified is previous.certified
        if previous.status is LpStatus.OPTIMAL and not previous.certified:
            polished += 1
            assert recovered
    assert polished >= 1


def test_other_costs_go_through_recovery():
    """Equal matrices, other objective: the root chains, but the
    certificate (found under the old costs) does not apply."""
    state = _certified_state()
    form = _sweep_form(1.02)
    changed = copy.copy(form)
    changed.c = form.c * 2.0
    with chained_roots() as calls:
        warm, next_state = solve_bnb_warm(changed, state)
    assert [(certified, recovered) for certified, recovered, _ in calls] == [
        (False, True)
    ]
    assert next_state.eq_cache is state.eq_cache
    assert_identical(solve_bnb(changed), warm)


def test_other_matrices_start_a_new_state():
    """One ``a_ub`` coefficient changed: no chaining; the cold root's
    state is uncertified and caches no columns of the old matrices, so
    the next same-matrix root chains through recovery."""
    state = _certified_state()
    assert state.eq_cache
    form = _sweep_form(1.02)
    changed = copy.copy(form)
    changed.a_ub = form.a_ub.copy()
    row, column = np.argwhere(form.a_ub > 0)[0]
    changed.a_ub[row, column] += 1.0
    with chained_roots() as calls:
        warm, fresh = solve_bnb_warm(changed, state)
        assert calls == []
        assert not fresh.certified
        assert fresh.eq_cache == {} and fresh.eq_cache is not state.eq_cache
        assert fresh.root_arrays[0] is changed.a_ub
        assert_identical(solve_bnb(changed), warm)
        again, _ = solve_bnb_warm(changed, fresh)
    assert [(certified, recovered) for certified, recovered, _ in calls] == [
        (False, True)
    ]
    assert_identical(solve_bnb(changed), again)


def test_a_basis_less_solve_keeps_the_pooled_state_whole():
    """A solve that reaches no root (node budget 0) banks nothing: the
    pool keeps the previous basis with its own tableau, matrices, cached
    columns and certificate, and the next root is answered from them."""

    def model_of(scale):
        return build_ilp_ptac(
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load").scaled(scale),
            PROFILE,
            scenario_1(),
        )

    for chained_first in (False, True):
        solver = BatchSolver()
        solver.solve(model_of(1.0))
        if chained_first:
            solver.solve(model_of(1.01))
        signature = structure_signature(model_of(1.0))
        pooled = solver.warm_state(signature)
        assert pooled.certified is chained_first
        stopped = solver.solve(model_of(1.5), node_limit=0)
        assert stopped.status is SolveStatus.NODE_LIMIT
        assert solver.warm_state(signature) is pooled
        with chained_roots() as calls:
            warm = solver.solve(model_of(1.02))
        assert [(c, r) for c, r, _ in calls] == [
            (chained_first, not chained_first)
        ]
        assert_identical(model_of(1.02).solve(), warm)
