"""Workload specs compile straight to arrays, exactly as their step walk.

:meth:`WorkloadSpec.program` builds its
:class:`~repro.sim.program.CompiledProgram` per block, not per request: a
run of constant-fill blocks becomes one ``np.repeat`` of request ids, and
a block with a fractional mix contributes its numpy column of variant
codes.  :func:`~repro.workloads.footprint.isolation_cycles` reads those
arrays.  The oracle is the per-request step generator in
``oracles/spec_steps.py``; compiling its stream through the step walk
(:func:`program_from_steps`) must give the same arrays, request table,
trailing gap and steps.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles.sim_reference import ReferenceSimulator
from oracles.spec_steps import oracle_block_steps, oracle_spec_steps
from repro.platform.targets import VALID_PAIRS, Operation, Target
from repro.sim.program import compile_program, program_from_steps
from repro.sim.requests import MissKind, code_fetch, data_access
from repro.sim.system import SystemSimulator, run_isolation
from repro.workloads.footprint import isolation_cycles
from repro.workloads.spec import RequestBlock, WorkloadSpec, _FractionSequencer

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_DATA_MISS_KINDS = (MissKind.DCACHE_MISS_CLEAN, MissKind.DCACHE_MISS_DIRTY)

#: The library engine and its step-generator oracle.
_SIMULATORS = (SystemSimulator(), ReferenceSimulator())


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Constant fills, arbitrary floats and the rationals n/d (d < 200) on
#: which the float accumulator and the floor closed form part ways.
fractions = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.integers(1, 199).flatmap(
        lambda d: st.integers(0, d).map(lambda n: n / d)
    ),
)


#: Only the constant fills: every block drawn with these is constant-fill.
constant_fills = st.sampled_from([0.0, 1.0])


@st.composite
def request_blocks(draw, fractions=fractions, max_count=400):
    target, operation = draw(st.sampled_from(VALID_PAIRS))
    count = draw(st.integers(0, max_count))
    gap = draw(st.integers(0, 6))
    sequential = draw(fractions)
    if operation is Operation.CODE:
        miss_kind = draw(
            st.sampled_from([MissKind.ICACHE_MISS, MissKind.UNCACHED])
        )
        return RequestBlock(
            target, operation, count, gap, sequential, miss_kind=miss_kind
        )
    miss_kind = draw(st.sampled_from(list(MissKind)))
    dirty = draw(fractions) if miss_kind in _DATA_MISS_KINDS else 0.0
    return RequestBlock(
        target,
        operation,
        count,
        gap,
        sequential,
        write_fraction=draw(fractions),
        miss_kind=miss_kind,
        dirty_fraction=dirty,
    )


def _specs(block_lists):
    return st.builds(
        WorkloadSpec,
        name=st.just("spec"),
        blocks=block_lists.map(tuple),
        iterations=st.integers(1, 3),
        epilogue_gap=st.one_of(st.just(0), st.integers(1, 50)),
    )


#: A few blocks of up to 400 requests each.
workload_specs = _specs(st.lists(request_blocks(), max_size=4))

#: 16-96 blocks of up to 12 requests (the builders emit 80-192) mixing
#: constant-fill, any-mix and zero-count blocks, so runs of constant
#: fills start, end and break everywhere.
long_workload_specs = _specs(
    st.lists(
        st.one_of(
            request_blocks(constant_fills, max_count=12),
            request_blocks(max_count=12),
            request_blocks(max_count=0),
        ),
        min_size=16,
        max_size=96,
    )
)

#: 1/197 is the first density whose accumulator replay differs from the
#: floor closed form (at decision 196), pinned on all three sequencers.
_ONE_197 = 1 / 197
PINNED_SPEC = WorkloadSpec(
    name="spec",
    blocks=(
        RequestBlock(
            Target.PF0,
            Operation.CODE,
            count=400,
            gap=2,
            sequential_fraction=_ONE_197,
            miss_kind=MissKind.ICACHE_MISS,
        ),
        RequestBlock(Target.LMU, Operation.DATA, count=0),
        RequestBlock(
            Target.LMU,
            Operation.DATA,
            count=600,
            gap=1,
            sequential_fraction=1 - _ONE_197,
            write_fraction=_ONE_197,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
            dirty_fraction=_ONE_197,
        ),
    ),
    iterations=2,
    epilogue_gap=17,
)


#: Every constant-fill mix of a data block, each its own block.
CONSTANT_SPEC = WorkloadSpec(
    name="spec",
    blocks=tuple(
        RequestBlock(
            Target.LMU,
            Operation.DATA,
            count=3,
            sequential_fraction=sequential,
            write_fraction=write,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
            dirty_fraction=dirty,
        )
        for sequential in (0.0, 1.0)
        for write in (0.0, 1.0)
        for dirty in (0.0, 1.0)
    ),
)


#: Each place a run of constant fills ends: two constant blocks, a
#: fractional block (whose clean write is the second block's request), a
#: zero-count block (whose variant occurs nowhere else, so it must not
#: enter the table) and a last constant block (whose dirty-miss kind
#: falls back to the clean write already in the table).
RUN_SPEC = WorkloadSpec(
    name="spec",
    blocks=(
        RequestBlock(
            Target.PF0,
            Operation.CODE,
            count=5,
            gap=2,
            sequential_fraction=1.0,
            miss_kind=MissKind.ICACHE_MISS,
        ),
        RequestBlock(
            Target.LMU,
            Operation.DATA,
            count=4,
            write_fraction=1.0,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
        ),
        RequestBlock(
            Target.LMU,
            Operation.DATA,
            count=9,
            gap=3,
            sequential_fraction=0.5,
            write_fraction=1 / 3,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
            dirty_fraction=0.25,
        ),
        RequestBlock(
            Target.PF1,
            Operation.DATA,
            count=0,
            sequential_fraction=1.0,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
        ),
        RequestBlock(
            Target.LMU,
            Operation.DATA,
            count=6,
            write_fraction=1.0,
            miss_kind=MissKind.DCACHE_MISS_DIRTY,
        ),
    ),
    iterations=2,
    epilogue_gap=9,
)


# ----------------------------------------------------------------------
# Compile equivalence
# ----------------------------------------------------------------------
def test_pinned_density_differs_from_the_closed_form():
    sequencer = _FractionSequencer(_ONE_197)
    decisions = [sequencer.next() for _ in range(197)]
    closed_form = [
        math.floor((k + 1) * _ONE_197) > math.floor(k * _ONE_197)
        for k in range(197)
    ]
    assert decisions != closed_form


def _assert_compiles_like_its_step_walk(spec):
    oracle_steps = list(oracle_spec_steps(spec))
    expected = compile_program(program_from_steps("spec", oracle_steps))
    program = spec.program()
    compiled = program.compiled()

    assert compiled.gaps.dtype == np.int64
    assert compiled.request_ids.dtype == np.int64
    assert np.array_equal(compiled.gaps, expected.gaps)
    assert np.array_equal(compiled.request_ids, expected.request_ids)
    assert compiled.requests == expected.requests
    assert compiled.final_gap == expected.final_gap
    assert list(program.steps()) == oracle_steps
    for block in spec.blocks:
        assert list(block.steps()) == list(oracle_block_steps(block))


def _assert_isolation_cycles_match_both_engines(spec):
    program = spec.program()
    cycles = isolation_cycles(program)
    for simulator in _SIMULATORS:
        readings = simulator.run({1: program}).readings(1)
        assert cycles == (readings.ccnt or 0)


@SETTINGS
@example(spec=PINNED_SPEC)
@example(spec=CONSTANT_SPEC)
@given(spec=workload_specs)
def test_spec_compiles_like_its_step_walk(spec):
    _assert_compiles_like_its_step_walk(spec)


@SETTINGS
@example(spec=RUN_SPEC)
@given(spec=long_workload_specs)
def test_long_spec_compiles_like_its_step_walk(spec):
    _assert_compiles_like_its_step_walk(spec)


@SETTINGS
@example(spec=PINNED_SPEC)
@example(spec=CONSTANT_SPEC)
@given(spec=workload_specs)
def test_spec_isolation_cycles_match_both_engines(spec):
    _assert_isolation_cycles_match_both_engines(spec)


@SETTINGS
@example(spec=RUN_SPEC)
@given(spec=long_workload_specs)
def test_long_spec_isolation_cycles_match_both_engines(spec):
    _assert_isolation_cycles_match_both_engines(spec)


def test_run_spec_tables_each_request_once():
    # The zero-count block's PF1 fill never enters the table; the
    # fractional block's clean writes and every request of the dirty-miss
    # block reuse the second block's entry.
    compiled = RUN_SPEC.program().compiled()
    assert len(compiled.requests) == 5
    assert Target.PF1 not in {request.target for request in compiled.requests}
    assert compiled.requests[1] == data_access(
        Target.LMU, write=True, miss_kind=MissKind.DCACHE_MISS_CLEAN
    )
    assert compiled.request_ids[:24].tolist().count(1) == 4 + 2 + 6


def test_each_emitted_request_is_a_table_entry():
    program = PINNED_SPEC.program()
    table = program.compiled().requests
    assert len(table) == len(set(table))
    for _, request in program.steps():
        assert request is None or any(request is entry for entry in table)


# ----------------------------------------------------------------------
# isolation_cycles against the engines, on gap-only runs
# ----------------------------------------------------------------------
#: Requests with overlaps 0, 1 and 6, so gap-only steps after them
#: consume their credit fully, partly or not at all.
_REQUESTS = (
    code_fetch(Target.PF0, sequential=True),
    code_fetch(Target.PF1),
    data_access(Target.LMU, write=True),
    data_access(Target.LMU, sequential=True),
    data_access(
        Target.LMU,
        miss_kind=MissKind.DCACHE_MISS_DIRTY,
        dirty_eviction=True,
    ),
    data_access(Target.DFL, write=True),
)

step_lists = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.one_of(st.none(), st.sampled_from(_REQUESTS)),
    ),
    max_size=40,
)


@SETTINGS
@example(
    steps=[
        (0, _REQUESTS[0]),
        (2, None),
        (1, None),
        (9, None),
        (3, _REQUESTS[2]),
        (0, None),
        (4, None),
    ]
)
@given(steps=step_lists)
def test_isolation_cycles_on_gap_only_runs(steps):
    program = program_from_steps("steps", steps)
    cycles = isolation_cycles(program)
    for simulator in _SIMULATORS:
        readings = simulator.run({1: program}).readings(1)
        assert cycles == (readings.ccnt or 0)


def test_gap_only_run_after_an_overlapping_request():
    # The sequential PF0 fetch hides 6 cycles: 2 + 1 of the following
    # gap-only steps and 3 of the 9 are absorbed, 6 remain.
    program = program_from_steps(
        "credit", [(0, _REQUESTS[0]), (2, None), (1, None), (9, None)]
    )
    assert isolation_cycles(program) == 12 + 6
    assert run_isolation(program).readings.require_ccnt() == 12 + 6
