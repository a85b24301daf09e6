"""Property suite for the vectorised hot paths (ILP kernels + sim engine).

The performance PR that vectorised the simplex kernels and compiled the
event engine promised *pure* speed: every fast path must be observably
identical to the scalar code it replaced.  This suite pins that promise
three ways:

* **kernel parity** — the whole-array ``_pivot`` / ``_ratio_test`` /
  ``_entering_index`` kernels produce bit-identical tableaus and
  identical index choices to their scalar oracles
  (``tests/oracles/simplex_kernels.py``) on random inputs, the
  canonical polish with its quick exit matches the full-matrix oracle
  polish on degenerate optima, and whole LP solves driven by either
  kernel set agree exactly;
* **warm-extension equivalence** — the tableau-extension entry points
  (``warm_solve_insert_row`` / ``warm_solve_rhs``) land on the same
  optimum as a cold solve of the explicitly assembled child instance
  (the canonical polish makes the vertex independent of the solve
  path);
* **engine equivalence** — :class:`SystemSimulator` and the
  step-generator oracle (``tests/oracles/sim_reference.py``) produce
  byte-identical pickled :class:`SimResult` objects on builtin families,
  random workloads, generated multi-core DMA co-runs and gap-merging
  edge cases (the compiled arrays' one documented hazard).

Equality here is deliberately strict: ``np.array_equal`` / pickle-bytes
comparison, not ``approx`` — except where two *different pivot paths*
meet at the same vertex, where last-ulp arithmetic differences are
legitimate and a tight tolerance is used instead.
"""

import functools
import pickle
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles.sim_reference import ReferenceSimulator
from oracles.simplex_kernels import (
    reference_canonical_polish,
    reference_entering_index,
    reference_pivot,
    reference_ratio_test,
)
from repro.errors import IlpNumericalError
from repro.ilp import simplex
from repro.ilp.simplex import (
    TOLERANCE,
    LpStatus,
    _canonical_polish,
    _entering_index,
    _pivot,
    _ratio_test,
    solve_lp,
    warm_solve_insert_row,
    warm_solve_rhs,
)
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.targets import Target
from repro.sim.dma import DmaAgent
from repro.sim.program import program_from_steps
from repro.sim.requests import code_fetch, data_access
from repro.sim.system import SystemSimulator
from repro.sim.timing import tc27x_sim_timing
from repro.workloads.control_loop import build_control_loop
from repro.workloads.loads import build_load
from repro.workloads.synthetic import random_task_pair

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Kernel parity: vectorised kernels vs their scalar oracles.
# ---------------------------------------------------------------------------


@st.composite
def tableau_and_basis(draw):
    """A random dense tableau with a plausible (distinct-column) basis.

    Values are small dyadic rationals so every arithmetic path is exact
    where the kernels promise exactness; the kernels themselves make no
    assumption beyond shape, so the tableau need not be simplex-valid.
    """
    m = draw(st.integers(1, 5))
    width = draw(st.integers(m + 2, m + 7))
    cells = draw(
        st.lists(
            st.integers(-12, 12), min_size=m * width, max_size=m * width
        )
    )
    tableau = np.array(cells, dtype=float).reshape(m, width) / 4.0
    columns = draw(st.permutations(range(width - 1)))
    basis = np.array(columns[:m], dtype=int)
    return tableau, basis


@SETTINGS
@given(data=tableau_and_basis(), row_seed=st.integers(0, 10**6))
def test_pivot_matches_reference(data, row_seed):
    tableau, basis = data
    m, width = tableau.shape
    row = row_seed % m
    eligible = np.flatnonzero(np.abs(tableau[row, :-1]) > TOLERANCE)
    if eligible.size == 0:
        return
    col = int(eligible[(row_seed // m) % eligible.size])

    t_vec, b_vec = tableau.copy(), basis.copy()
    t_ref, b_ref = tableau.copy(), basis.copy()
    _pivot(t_vec, b_vec, row, col)
    reference_pivot(t_ref, b_ref, row, col)

    assert np.array_equal(t_vec, t_ref)
    assert np.array_equal(b_vec, b_ref)


@SETTINGS
@given(data=tableau_and_basis(), row_seed=st.integers(0, 10**6))
def test_pivot_rejects_near_zero_like_reference(data, row_seed):
    tableau, basis = data
    m, _ = tableau.shape
    row = row_seed % m
    tableau[row, 0] = TOLERANCE / 2.0
    with pytest.raises(IlpNumericalError):
        _pivot(tableau.copy(), basis.copy(), row, 0)
    with pytest.raises(IlpNumericalError):
        reference_pivot(tableau.copy(), basis.copy(), row, 0)


@SETTINGS
@given(data=tableau_and_basis(), col_seed=st.integers(0, 10**6))
def test_ratio_test_matches_reference(data, col_seed):
    tableau, basis = data
    entering = col_seed % (tableau.shape[1] - 1)
    assert _ratio_test(tableau, basis, entering) == reference_ratio_test(
        tableau, basis, entering
    )


@SETTINGS
@given(
    cells=st.lists(st.integers(-10, 10), min_size=1, max_size=30),
    jitter=st.sampled_from([0.0, TOLERANCE / 2, -TOLERANCE / 2]),
)
def test_entering_index_matches_reference(cells, jitter):
    reduced = np.array(cells, dtype=float) / 4.0 + jitter
    assert _entering_index(reduced) == reference_entering_index(reduced)


@st.composite
def random_lps(draw):
    """Small LPs with integer data: feasible, infeasible and unbounded."""
    n = draw(st.integers(1, 4))
    m_ub = draw(st.integers(0, 4))
    m_eq = draw(st.integers(0, 2))

    def matrix(rows):
        cells = draw(
            st.lists(
                st.integers(-4, 4), min_size=rows * n, max_size=rows * n
            )
        )
        return np.array(cells, dtype=float).reshape(rows, n)

    c = np.array(
        draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
        dtype=float,
    )
    a_ub = matrix(m_ub)
    b_ub = np.array(
        draw(st.lists(st.integers(-4, 9), min_size=m_ub, max_size=m_ub)),
        dtype=float,
    )
    a_eq = matrix(m_eq)
    b_eq = np.array(
        draw(st.lists(st.integers(-4, 9), min_size=m_eq, max_size=m_eq)),
        dtype=float,
    )
    return c, a_ub, b_ub, a_eq, b_eq


def _solve_outcome(lp):
    """Run ``solve_lp`` and normalise result-or-exception for comparison."""
    try:
        result = solve_lp(*lp)
    except IlpNumericalError:
        return ("raised", IlpNumericalError)
    x = None if result.x is None else result.x.tobytes()
    return (result.status, result.objective, x, result.iterations)


@SETTINGS
@given(lp=random_lps())
def test_full_solves_identical_under_reference_kernels(lp):
    """Whole solves agree bitwise when the scalar kernels are swapped in.

    The vectorised kernels promise *identical IEEE operations*, so the
    entire solve — pivot sequence, iteration count, final vertex bytes —
    must match, not merely the optimum.
    """
    vectorised = _solve_outcome(lp)
    originals = (
        simplex._pivot,
        simplex._ratio_test,
        simplex._entering_index,
        simplex._canonical_polish,
    )
    simplex._pivot = reference_pivot
    simplex._ratio_test = reference_ratio_test
    simplex._entering_index = reference_entering_index
    simplex._canonical_polish = reference_canonical_polish
    try:
        scalar = _solve_outcome(lp)
    finally:
        (
            simplex._pivot,
            simplex._ratio_test,
            simplex._entering_index,
            simplex._canonical_polish,
        ) = originals
    assert vectorised == scalar


@st.composite
def degenerate_lps(draw):
    """LPs with wide optimal faces, like the contention ILPs' pf0/pf1
    split: each base column appears one to three times (equal costs and
    coefficients), every coefficient is non-negative and a cap row
    bounds the total.  Optionally one bound row is then inserted into
    the solved LP's tableau, as branch-and-bound does, so the polish
    also starts from dual-simplex bases."""
    m = draw(st.integers(1, 3))
    columns, costs = [], []
    for _ in range(draw(st.integers(1, 3))):
        column = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        cost = draw(st.integers(-4, 0))
        copies = draw(st.integers(1, 3))
        columns += [column] * copies
        costs += [cost] * copies
    order = draw(st.permutations(range(len(columns))))
    n = len(order)
    a_ub = np.vstack(
        [np.array([columns[j] for j in order], dtype=float).T, np.ones(n)]
    )
    b_ub = np.array(
        draw(st.lists(st.integers(0, 9), min_size=m + 1, max_size=m + 1)),
        dtype=float,
    )
    c = np.array([costs[j] for j in order], dtype=float)
    bound = draw(
        st.none()
        | st.tuples(st.integers(0, n - 1), st.booleans(), st.integers(0, 4))
    )
    return c, a_ub, b_ub, bound


def _polish_inputs(c, a_ub, b_ub, bound):
    """Every ``_canonical_polish`` call a solve of the drawn LP (and of
    its bound-row child) makes, as copies of its arguments."""
    calls = []

    def recording(tableau, basis, cost, n, budget, reduced0=None):
        calls.append(
            (
                tableau.copy(),
                basis.copy(),
                cost.copy(),
                n,
                budget,
                None if reduced0 is None else reduced0.copy(),
            )
        )
        return _canonical_polish(tableau, basis, cost, n, budget, reduced0)

    simplex._canonical_polish = recording
    try:
        parent = solve_lp(
            c, a_ub, b_ub, np.empty((0, c.size)), np.empty(0),
            keep_tableau=True,
        )
        if bound is not None and parent.tableau is not None:
            column, lower, value = bound
            warm_solve_insert_row(
                parent.tableau,
                parent.basis,
                c,
                row_position=a_ub.shape[0],
                column=column,
                sigma=-1.0 if lower else 1.0,
                rhs=-float(value) if lower else float(value),
            )
    finally:
        simplex._canonical_polish = _canonical_polish
    return calls


def _polish_both(call):
    """Run the library polish and the full-matrix oracle on copies of
    one recorded call; returns each side's (outcome, basis, tableau)."""
    tableau, basis, cost, n, budget, reduced0 = call
    outcomes = []
    for polish in (_canonical_polish, reference_canonical_polish):
        t, b = tableau.copy(), basis.copy()
        r0 = None if reduced0 is None else reduced0.copy()
        try:
            outcome = polish(t, b, cost, n, budget, r0)
        except IlpNumericalError:
            outcome = "raised"
        outcomes.append((outcome, b.tolist(), t.tobytes()))
    return outcomes


#: Twin columns 0 and 2 (cost -1) under x0 + x2 <= 4 beside a zero-cost
#: x1 under the cap x0 + x1 + x2 <= 6: phase 2 ends with the cap's slack
#: basic, and the polish pivots x1 in to reach the lexicographically
#: greatest optimum (4, 2, 0).  The child x1 >= 1 then polishes warm.
TWIN_LP = (
    np.array([-1.0, 0.0, -1.0]),
    np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
    np.array([4.0, 6.0]),
    (1, True, 1),
)


@example(lp=TWIN_LP)
@SETTINGS
@given(lp=degenerate_lps())
def test_polish_matches_reference_on_degenerate_optima(lp):
    """The quick exit changes no polish: equal pivot counts, bases and
    tableau bytes against the full-matrix oracle."""
    for call in _polish_inputs(*lp):
        library, oracle = _polish_both(call)
        assert library == oracle


def test_degenerate_example_exercises_polish_pivots():
    """The pinned example reaches the full polish loop, so the parity
    test above compares real polish pivots, not only the quick exit."""
    calls = _polish_inputs(*TWIN_LP)
    assert [_polish_both(call)[0][0] for call in calls] == [1, 0]


# ---------------------------------------------------------------------------
# Warm-extension equivalence: tableau shortcuts vs explicit cold solves.
# ---------------------------------------------------------------------------

#: A parent LP with a non-trivial optimum and all-slack-free basis, so
#: the cold solve keeps its final tableau for extension.
PARENT_C = np.array([-2.0, -3.0, -1.0])
PARENT_A_UB = np.array(
    [[1.0, 1.0, 1.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
)
PARENT_B_UB = np.array([10.0, 8.0, 6.0])
_EMPTY_EQ = (np.empty((0, 3)), np.empty(0))


@functools.lru_cache(maxsize=1)
def _solved_parent():
    result = solve_lp(
        PARENT_C, PARENT_A_UB, PARENT_B_UB, *_EMPTY_EQ, keep_tableau=True
    )
    assert result.status is LpStatus.OPTIMAL
    assert result.tableau is not None
    return result


def _assert_same_optimum(warm, cold):
    """Same status; at optimality, same vertex up to last-ulp noise.

    Warm and cold reach the canonical vertex through different pivot
    sequences, so the values may differ in the final bits — anything
    beyond that is a real divergence.
    """
    assert warm.status is cold.status
    if cold.status is LpStatus.OPTIMAL:
        assert warm.objective == pytest.approx(
            cold.objective, rel=1e-12, abs=1e-9
        )
        assert warm.x == pytest.approx(cold.x, rel=1e-12, abs=1e-9)


@SETTINGS
@given(
    column=st.integers(0, 2),
    lower=st.booleans(),
    value=st.integers(0, 7),
)
def test_insert_row_matches_cold_child(column, lower, value):
    parent = _solved_parent()
    sigma = -1.0 if lower else 1.0
    rhs = -float(value) if lower else float(value)

    warm = warm_solve_insert_row(
        parent.tableau,
        parent.basis,
        PARENT_C,
        row_position=PARENT_A_UB.shape[0],
        column=column,
        sigma=sigma,
        rhs=rhs,
    )
    if warm is None:  # documented fallback: caller re-solves cold
        return

    bound_row = np.zeros((1, 3))
    bound_row[0, column] = sigma
    cold = solve_lp(
        PARENT_C,
        np.vstack([PARENT_A_UB, bound_row]),
        np.append(PARENT_B_UB, rhs),
        *_EMPTY_EQ,
    )
    _assert_same_optimum(warm, cold)


@SETTINGS
@given(deltas=st.lists(st.integers(-16, 16), min_size=3, max_size=3))
def test_rhs_delta_matches_cold_child(deltas):
    """The whole-column form with ``B^-1 b`` assembled from the
    tableau's own slack columns — exactly how the batch layer's root
    chaining uses it."""
    parent = _solved_parent()
    delta = np.array(deltas, dtype=float) / 4.0
    n = PARENT_C.shape[0]
    rhs = parent.tableau[:, n : n + 3] @ (PARENT_B_UB + delta)

    warm = warm_solve_rhs(parent.tableau, parent.basis, PARENT_C, rhs)
    if warm is None:
        return

    cold = solve_lp(PARENT_C, PARENT_A_UB, PARENT_B_UB + delta, *_EMPTY_EQ)
    _assert_same_optimum(warm, cold)


def test_extension_entry_points_do_not_mutate_inputs():
    parent = _solved_parent()
    tableau = parent.tableau.copy()
    basis = parent.basis.copy()

    warm_solve_insert_row(
        tableau, basis, PARENT_C, row_position=3, column=1, sigma=1.0,
        rhs=2.0,
    )
    warm_solve_rhs(tableau, basis, PARENT_C, np.array([0.25, -0.5, 0.0]))

    assert np.array_equal(tableau, parent.tableau)
    assert np.array_equal(basis, parent.basis)


# ---------------------------------------------------------------------------
# Simulator vs its step-generator oracle: byte-identical results.
# ---------------------------------------------------------------------------


def _assert_engines_agree(programs, dma_agents=(), **sim_kwargs):
    library = SystemSimulator(**sim_kwargs).run(programs, dma_agents)
    oracle = ReferenceSimulator(**sim_kwargs).run(programs, dma_agents)
    assert pickle.dumps(library) == pickle.dumps(oracle)


class TestEngineByteEquivalence:
    def test_builtin_family_isolation_and_corun(self):
        scale = 1 / 256
        app, _ = build_control_loop(scenario_1(), scale=scale)
        load = build_load("scenario1", "H", scale=scale)
        _assert_engines_agree({1: app})
        _assert_engines_agree({1: app, 2: load})

    @SETTINGS
    @given(seed=st.integers(0, 10_000), second=st.booleans())
    def test_random_workloads(self, seed, second):
        scenario = scenario_2() if second else scenario_1()
        task, contender = random_task_pair(
            scenario, seed=seed, max_requests=300
        )
        _assert_engines_agree({1: task})
        _assert_engines_agree({1: task, 2: contender})

    def test_dma_corun_multi_outstanding(self):
        # A deep-queue DMA master exercises the one path where the
        # library engine cannot take its no-contention shortcut.
        program = program_from_steps(
            "victim", [(2, code_fetch(Target.PF0))] * 40
        )
        agent = DmaAgent(
            master_id=9,
            request=data_access(Target.LMU),
            count=30,
            period=3,
            queue_depth=4,
        )
        _assert_engines_agree({1: program}, (agent,))
        _assert_engines_agree(
            {1: program},
            (agent,),
            arbitration="priority",
            priorities={9: 2, 1: 1},
        )

    def test_trailing_gap_only_steps(self):
        # Trailing gap-only steps have no following request to merge
        # into — the compiled representation's final_gap edge case.
        request = data_access(Target.LMU)
        program = program_from_steps(
            "tail", [(3, request), (5, None), (7, None)]
        )
        _assert_engines_agree({1: program})

    def test_gap_only_program(self):
        # A program that never touches the SRI: zero requests, pure
        # computation.  Both engines must agree on the degenerate case.
        program = program_from_steps("idle", [(11, None), (4, None)])
        contender = program_from_steps(
            "busy", [(1, code_fetch(Target.PF0))] * 10
        )
        _assert_engines_agree({1: program})
        _assert_engines_agree({1: program, 2: contender})

    def test_interleaved_zero_gap_requests(self):
        # Zero-gap back-to-back requests from two cores maximises
        # arbitration pressure (every cycle contends).
        left = program_from_steps(
            "left", [(0, code_fetch(Target.PF0))] * 25
        )
        right = program_from_steps(
            "right", [(0, data_access(Target.LMU))] * 25
        )
        _assert_engines_agree({1: left, 2: right})


# ---------------------------------------------------------------------------
# Generated multi-core runs, with and without DMA agents.
# ---------------------------------------------------------------------------

_TIMING = tc27x_sim_timing()

#: DMA transaction templates.  No core program of either reference
#: scenario touches the DFL, so a DFL agent is alone on its target; with
#: a period of at least its service time it takes the library's
#: closed-form shortcut.
_DMA_REQUESTS = (
    data_access(Target.LMU),
    data_access(Target.DFL),
    code_fetch(Target.PF1),
)

_SCENARIOS = {"scenario1": scenario_1, "scenario2": scenario_2}


class GeneratedRun(NamedTuple):
    """One drawn simulation run.

    ``cores`` lists, for cores 1, 2, ..., which side of
    ``random_task_pair`` runs there (``"task"`` or ``"contender"``) and
    the pair's seed and ``max_requests``.  ``priorities`` is ``None``
    for round-robin arbitration.
    """

    scenario: str
    cores: tuple[tuple[str, int, int], ...]
    dma: tuple[DmaAgent, ...]
    priorities: dict[int, int] | None


@st.composite
def generated_runs(draw):
    cores = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("task", "contender")),
                st.integers(0, 10**6),
                st.integers(20, 300),
            ),
            min_size=2,
            max_size=4,
        )
    )
    dma = []
    for master_id in range(10, 10 + draw(st.integers(0, 2))):
        request = draw(st.sampled_from(_DMA_REQUESTS))
        service = _TIMING.service_time(request)
        dma.append(
            DmaAgent(
                master_id,
                request,
                count=draw(st.integers(0, 40)),
                period=draw(st.sampled_from((1, 2, service, service + 7))),
                queue_depth=draw(st.integers(1, 8)),
                start_time=draw(st.integers(0, 50)),
            )
        )
    priorities = None
    if draw(st.booleans()):
        masters = [*range(1, len(cores) + 1), *(a.master_id for a in dma)]
        priorities = {master: draw(st.integers(0, 2)) for master in masters}
    return GeneratedRun(
        draw(st.sampled_from(sorted(_SCENARIOS))),
        tuple(cores),
        tuple(dma),
        priorities,
    )


# The three pinned runs each end a single-master transaction and a
# shared one in the same cycle, with the single master's next request
# due at once on the shared device.  An oracle that orders the two
# completions by sequence number alone lets the shared grant miss that
# request on these runs.
@SETTINGS
@example(
    run=GeneratedRun(
        "scenario1",
        (("task", 902926, 298), ("contender", 789814, 44)),
        (
            DmaAgent(
                10,
                code_fetch(Target.PF1),
                count=32,
                period=23,
                queue_depth=6,
                start_time=30,
            ),
        ),
        None,
    )
)
@example(
    run=GeneratedRun(
        "scenario2",
        (("task", 681240, 42), ("contender", 119195, 118), ("task", 249001, 62)),
        (),
        {1: 0, 2: 2, 3: 1},
    )
)
@example(
    run=GeneratedRun(
        "scenario1",
        (("task", 593196, 172), ("contender", 274620, 115), ("task", 673520, 260)),
        (),
        None,
    )
)
@given(run=generated_runs())
def test_generated_runs_match_oracle(run):
    scenario = _SCENARIOS[run.scenario]()
    programs = {}
    for core, (side, seed, max_requests) in enumerate(run.cores, start=1):
        task, contender = random_task_pair(
            scenario, seed=seed, max_requests=max_requests
        )
        programs[core] = task if side == "task" else contender
    sim_kwargs = (
        {}
        if run.priorities is None
        else {"arbitration": "priority", "priorities": run.priorities}
    )
    _assert_engines_agree(programs, run.dma, **sim_kwargs)
