"""Workload specs compile straight to arrays, exactly as their step walk.

:meth:`WorkloadSpec.program` builds its
:class:`~repro.sim.program.CompiledProgram` from per-block numpy columns
of variant codes, and :func:`~repro.workloads.footprint.isolation_cycles`
reads those arrays.  The oracle here is the per-request generator that
used to be ``RequestBlock.steps()``: one :class:`SriRequest` per
transaction, drawn from three :class:`_FractionSequencer` instances
advanced one decision at a time.  Compiling the oracle's stream through
the step walk (:func:`program_from_steps`) must give the same arrays,
request table, trailing gap and steps.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles.sim_reference import ReferenceSimulator
from repro.platform.targets import VALID_PAIRS, Operation, Target
from repro.sim.program import compile_program, program_from_steps
from repro.sim.requests import MissKind, SriRequest, code_fetch, data_access
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
# The oracle: the per-request step generator
# ----------------------------------------------------------------------
def oracle_block_steps(block):
    sequential = _FractionSequencer(block.sequential_fraction)
    writes = _FractionSequencer(block.write_fraction)
    dirty = _FractionSequencer(block.dirty_fraction)
    for _ in range(block.count):
        is_dirty = block.operation is Operation.DATA and dirty.next()
        miss_kind = block.miss_kind
        if is_dirty:
            miss_kind = MissKind.DCACHE_MISS_DIRTY
        elif miss_kind is MissKind.DCACHE_MISS_DIRTY:
            miss_kind = MissKind.DCACHE_MISS_CLEAN
        yield (
            block.gap,
            SriRequest(
                target=block.target,
                operation=block.operation,
                miss_kind=miss_kind,
                sequential=sequential.next(),
                write=(
                    block.operation is Operation.DATA
                    and not is_dirty
                    and writes.next()
                ),
                dirty_eviction=is_dirty,
            ),
        )


def oracle_spec_steps(spec):
    for _ in range(spec.iterations):
        for block in spec.blocks:
            yield from oracle_block_steps(block)
    if spec.epilogue_gap:
        yield (spec.epilogue_gap, None)


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


@st.composite
def request_blocks(draw):
    target, operation = draw(st.sampled_from(VALID_PAIRS))
    count = draw(st.integers(0, 400))
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


workload_specs = st.builds(
    WorkloadSpec,
    name=st.just("spec"),
    blocks=st.lists(request_blocks(), min_size=0, max_size=4).map(tuple),
    iterations=st.integers(1, 3),
    epilogue_gap=st.one_of(st.just(0), st.integers(1, 50)),
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


@SETTINGS
@example(spec=PINNED_SPEC)
@example(spec=CONSTANT_SPEC)
@given(spec=workload_specs)
def test_spec_compiles_like_its_step_walk(spec):
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


@SETTINGS
@example(spec=PINNED_SPEC)
@example(spec=CONSTANT_SPEC)
@given(spec=workload_specs)
def test_spec_isolation_cycles_match_both_engines(spec):
    program = spec.program()
    cycles = isolation_cycles(program)
    for simulator in _SIMULATORS:
        readings = simulator.run({1: program}).readings(1)
        assert cycles == (readings.ccnt or 0)


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
