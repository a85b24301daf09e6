"""Hypothesis property tests on the substrate layers.

The paper-level properties live in ``test_properties_soundness``; these
pin the invariants of the building blocks the models and the simulator
rest on: cache bookkeeping, deterministic mix sequencing, apportionment,
address resolution, the LP solver, branch-and-bound on contention ILPs
and the fast isolation-time calculator.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.ilp_ptac import IlpPtacOptions, ilp_ptac_bound
from repro.core.multicontender import multi_contender_bound
from repro.counters.readings import TaskReadings
from repro.errors import IlpError
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.latency import tc27x_latency_profile
from repro.platform.memory_map import MemoryMap
from repro.platform.targets import Operation
from repro.platform.tc27x import CacheGeometry
from repro.sim.caches import SetAssociativeCache
from repro.workloads.spec import _FractionSequencer, spread_counts

SETTINGS = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------
@SETTINGS
@given(
    addresses=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200),
    writes=st.lists(st.booleans(), min_size=1, max_size=200),
)
def test_cache_accounting_invariants(addresses, writes):
    cache = SetAssociativeCache(CacheGeometry(size=512, line_size=32, ways=2))
    n = min(len(addresses), len(writes))
    dirty_seen = 0
    for address, write in zip(addresses[:n], writes[:n]):
        result = cache.access(address, write=write)
        if result.evicted_dirty:
            dirty_seen += 1
        # After any access, the line must be resident (write-allocate).
        assert cache.contains(address)
    assert cache.hits + cache.misses == n
    assert cache.dirty_evictions == dirty_seen
    assert 0.0 <= cache.miss_rate <= 1.0


@SETTINGS
@given(base=st.integers(0, 1 << 20))
def test_cache_lru_keeps_working_set(base):
    """Touching at most `ways` distinct same-set lines never evicts."""
    geometry = CacheGeometry(size=1024, line_size=32, ways=2)
    cache = SetAssociativeCache(geometry)
    stride = geometry.sets * geometry.line_size
    lines = [base, base + stride]  # two lines, same set, 2 ways
    for _ in range(10):
        for line in lines:
            cache.access(line)
    assert all(cache.contains(line) for line in lines)
    assert cache.misses == len(lines)  # only the cold misses


def test_cache_dirty_requires_prior_write():
    geometry = CacheGeometry(size=256, line_size=32, ways=2)
    cache = SetAssociativeCache(geometry)
    stride = geometry.sets * geometry.line_size
    for i in range(8):  # read-only sweep with evictions
        cache.access(i * stride)
    assert cache.dirty_evictions == 0


# ----------------------------------------------------------------------
# Deterministic mix sequencing and apportionment
# ----------------------------------------------------------------------
@SETTINGS
@given(
    fraction=st.floats(0.0, 1.0),
    n=st.integers(1, 2_000),
)
def test_fraction_sequencer_exactness(fraction, n):
    sequencer = _FractionSequencer(fraction)
    trues = sum(sequencer.next() for _ in range(n))
    assert int(np.floor(n * fraction - 1e-9)) <= trues
    assert trues <= int(np.ceil(n * fraction + 1e-9))


@SETTINGS
@given(
    total=st.integers(0, 100_000),
    weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8).filter(
        lambda w: sum(w) > 0
    ),
)
def test_spread_counts_properties(total, weights):
    shares = spread_counts(total, weights)
    assert sum(shares) == total
    assert all(share >= 0 for share in shares)
    weight_sum = sum(weights)
    for share, weight in zip(shares, weights):
        assert abs(share - total * weight / weight_sum) < 1.0


# ----------------------------------------------------------------------
# Memory map
# ----------------------------------------------------------------------
@SETTINGS
@given(data=st.data())
def test_memory_map_resolution_consistency(data):
    memory_map = MemoryMap()
    region = data.draw(st.sampled_from(memory_map.regions))
    offset = data.draw(st.integers(0, region.size - 1))
    address = region.base + offset
    resolved = memory_map.resolve(address)
    assert resolved is region
    assert resolved.contains(address)
    assert memory_map.target_of(address) is region.target
    assert memory_map.is_cacheable(address) == region.cacheable


# ----------------------------------------------------------------------
# Simplex with equality constraints, against scipy
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_simplex_with_equalities_matches_scipy(seed):
    from scipy.optimize import linprog

    from repro.ilp.simplex import LpStatus, solve_lp

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    c = rng.integers(-5, 6, size=n).astype(float)
    a_ub = rng.integers(-3, 4, size=(int(rng.integers(1, 4)), n)).astype(float)
    b_ub = rng.integers(0, 12, size=a_ub.shape[0]).astype(float)
    a_eq = rng.integers(-2, 3, size=(1, n)).astype(float)
    b_eq = rng.integers(0, 8, size=1).astype(float)

    ours = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    # presolve=False: HiGHS's presolve cannot always distinguish
    # infeasible from unbounded and then reports status 2 for problems
    # that are in fact feasible and unbounded (seed 6054 is a witness:
    # x=(0,0,7,0) is feasible and the objective has a feasible ray).
    # The oracle must classify exactly, so let the full solve run — and
    # when that ends in HiGHS's "Unknown" model status (scipy status 4,
    # seed 849), fall back to the presolved solve, which classifies
    # such instances fine.
    def classify(presolve):
        return linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * n,
            method="highs",
            options={"presolve": presolve},
        )

    reference = classify(presolve=False)
    if reference.status == 4:
        reference = classify(presolve=True)
    # Rarely HiGHS abstains either way (seed 3405 stays "Unknown" under
    # both settings); with no oracle verdict there is nothing to
    # compare against.
    assume(reference.status != 4)
    if reference.status == 2:
        assert ours.status is LpStatus.INFEASIBLE
    elif reference.status == 3:
        assert ours.status is LpStatus.UNBOUNDED
    else:
        assert ours.status is LpStatus.OPTIMAL
        assert ours.objective == pytest.approx(reference.fun, abs=1e-6)


# ----------------------------------------------------------------------
# Contention ILPs: branch-and-bound against HiGHS
# ----------------------------------------------------------------------
#: Branch-and-bound node budget of the differential test.  Some drawn
#: readings put the search on the pf0/pf1 plateau (two banks, one
#: latency), where it can take thousands of nodes; those draws are
#: assumed away, since an unfinished search has no optimum to compare.
DIFFERENTIAL_NODE_LIMIT = 300


def _explained_readings(data, name, scenario, profile, stall_budget):
    """Readings that drawn per-target counts explain, so every model
    built from them is feasible: ``pm`` is the code count, ``ps``/``ds``
    the counts' minimum stalls (plus slack under the ``minimum``
    budget), and ``DMC + DMD`` at most the data count."""
    code = data_count = ps = ds = 0
    for target, op in scenario.valid_pairs():
        count = data.draw(
            st.integers(0, 4_000), label=f"{name} {target.value}"
        )
        stalls = count * profile.stall_cycles(target, op)
        if op is Operation.CODE:
            code, ps = code + count, ps + stalls
        else:
            data_count, ds = data_count + count, ds + stalls
    if stall_budget == "minimum":
        ps += data.draw(st.integers(0, 5_000), label=f"{name} ps slack")
        ds += data.draw(st.integers(0, 5_000), label=f"{name} ds slack")
    misses = data.draw(st.integers(0, data_count), label=f"{name} misses")
    dirty = data.draw(st.integers(0, misses), label=f"{name} dirty")
    return TaskReadings(
        name, pmem_stall=ps, dmem_stall=ds, pcache_miss=code,
        dcache_miss_clean=misses - dirty, dcache_miss_dirty=dirty,
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from((scenario_1, scenario_2)),
    stall_budget=st.sampled_from(("minimum", "exact")),
    exact_codes=st.booleans(),
    n_contenders=st.integers(0, 2),
    data=st.data(),
)
def test_contention_ilps_branch_and_bound_matches_highs(
    scenario, stall_budget, exact_codes, n_contenders, data
):
    """Branch-and-bound and HiGHS agree on generated contention ILPs
    with zero, one and two contenders, and the LP relaxation bounds
    both from above."""
    scenario = scenario()
    profile = tc27x_latency_profile()
    app, *contenders = (
        _explained_readings(data, name, scenario, profile, stall_budget)
        for name in ("a", "b1", "b2")[: n_contenders + 1]
    )

    def optimum(backend):
        options = IlpPtacOptions(
            stall_budget=stall_budget,
            use_exact_code_counts=exact_codes,
            contender_constraints=bool(contenders),
            backend=backend,
            node_limit=DIFFERENTIAL_NODE_LIMIT,
        )
        if len(contenders) > 1:
            result = multi_contender_bound(
                app, contenders, profile, scenario, options
            )
        else:
            rival = contenders[0] if contenders else None
            result = ilp_ptac_bound(app, rival, profile, scenario, options)
        return result.solution.objective

    try:
        bnb = optimum("bnb")
    except IlpError as exc:
        assume("node_limit" not in str(exc))
        raise
    assert optimum("scipy") == bnb
    assert optimum("lp") >= bnb - 1e-6


# ----------------------------------------------------------------------
# Fast isolation-time calculator vs the event engine
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_isolation_cycles_matches_engine(seed):
    from repro.platform.deployment import scenario_2
    from repro.sim.system import run_isolation
    from repro.workloads.footprint import isolation_cycles
    from repro.workloads.synthetic import random_workload

    program = random_workload(
        "w", scenario_2(), seed=seed, max_requests=300
    ).program()
    fast = isolation_cycles(program)
    engine = run_isolation(program).readings.require_ccnt()
    assert fast == engine
