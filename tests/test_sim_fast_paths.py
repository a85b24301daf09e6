"""The simulator's fast paths: closed forms and the co-run event diet.

``SystemSimulator.run`` computes a run with one core and no DMA agent
without walking the program (counters and blocking extremes per distinct
request, finish time from ``CompiledProgram.isolation_time``).  In
co-runs a core's next shared request joins its busy device's queue or
starts service on its idle device without an issue event, observables
are folded once per run from per-request wait extremes and sums, a DMA
agent with a full queue parks instead of ticking, and an issue that finds
its device idle with nothing else due in its cycle is granted inline
instead of through an arbitration event.  The last master left finishes
without heap events: a core from the request it places
(``CompiledProgram.time_alone``), a DMA agent with nothing outstanding
and ``period >= service`` from the tick that finds it alone.  All of it
must leave every pickled :class:`SimResult` byte-identical to the
step-generator oracle (``tests/oracles/sim_reference.py``); the event
counts pin that the shortcuts are actually taken.  One known, older
divergence from the oracle is pinned as a strict xfail.
"""

import itertools
import pickle

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.sim.system as system
from oracles.sim_reference import ReferenceSimulator
from repro.errors import InvalidAccessError, SimulationError
from repro.platform.deployment import scenario_1
from repro.platform.targets import Operation, Target
from repro.sim.dma import DmaAgent
from repro.sim.program import program_from_steps
from repro.sim.requests import MissKind, SriRequest, code_fetch, data_access
from repro.sim.timing import DeviceTiming, SimTiming, tc27x_sim_timing
from repro.workloads.control_loop import build_control_loop
from repro.workloads.footprint import isolation_cycles
from repro.workloads.loads import build_load
from sim_events import counted_pushes


def _valid_requests() -> tuple[SriRequest, ...]:
    """Every distinct transaction the request type accepts."""
    pool = []
    flags = (False, True)
    for target, operation, miss_kind, sequential, write, dirty in (
        itertools.product(Target, Operation, MissKind, flags, flags, flags)
    ):
        try:
            pool.append(
                SriRequest(
                    target=target,
                    operation=operation,
                    miss_kind=miss_kind,
                    sequential=sequential,
                    write=write,
                    dirty_eviction=dirty,
                )
            )
        except (InvalidAccessError, SimulationError):
            continue
    return tuple(pool)


_REQUESTS = _valid_requests()


@st.composite
def timings(draw):
    """The Table 2 timing, or per-target timing whose overlaps may reach
    or pass the service time (blocking then clamps to 0)."""
    if draw(st.booleans()):
        return tc27x_sim_timing()
    devices = {}
    for target in Target:
        sequential = draw(st.integers(1, 20))
        devices[target] = DeviceTiming(
            service_sequential=sequential,
            service_random=draw(st.integers(sequential, 30)),
            service_dirty=draw(st.none() | st.integers(1, 40)),
            overlap_code_seq=draw(st.integers(0, 30)),
            overlap_data_seq=draw(st.integers(0, 30)),
            overlap_write=draw(st.integers(0, 30)),
        )
    return SimTiming(devices=devices)


_STEPS = st.lists(
    st.tuples(st.integers(0, 25), st.none() | st.sampled_from(_REQUESTS)),
    max_size=40,
)

_DMA = st.none() | st.builds(
    DmaAgent,
    master_id=st.just(9),
    request=st.sampled_from(_REQUESTS),
    count=st.integers(0, 12),
    period=st.integers(1, 45),
    queue_depth=st.integers(1, 4),
    start_time=st.integers(0, 30),
)

_PF_CODE = code_fetch(Target.PF0, sequential=True)  # service 12, overlap 6
_LMU_READ = data_access(Target.LMU)  # uncached: counts no miss


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(steps=[], timing=tc27x_sim_timing(), core=1, dma=None)
@example(steps=[(0, None)], timing=tc27x_sim_timing(), core=1, dma=None)
@example(
    steps=[(7, None), (0, None), (5, None)],
    timing=tc27x_sim_timing(),
    core=0,
    dma=None,
)
@example(  # each overlap (6) is longer than the gap after it
    steps=[(3, _PF_CODE), (2, _PF_CODE), (4, _LMU_READ), (1, None)],
    timing=tc27x_sim_timing(),
    core=1,
    dma=None,
)
@example(  # overlap >= service: no blocking at all
    steps=[(1, _PF_CODE), (0, _PF_CODE), (9, _LMU_READ)],
    timing=SimTiming(
        devices={
            target: DeviceTiming(
                service_sequential=12,
                service_random=16,
                overlap_code_seq=12 if target is Target.PF0 else 0,
                overlap_data_seq=20,
                overlap_write=30,
            )
            for target in Target
        }
    ),
    core=2,
    dma=None,
)
@example(
    steps=[(2, _LMU_READ), (0, _PF_CODE)],
    timing=tc27x_sim_timing(),
    core=1,
    dma=DmaAgent(9, _LMU_READ, count=5, period=2, queue_depth=3),
)
@given(
    steps=_STEPS,
    timing=timings(),
    core=st.integers(0, 3),
    dma=_DMA,
)
def test_single_core_runs_match_oracle(steps, timing, core, dma):
    program = program_from_steps("alone", steps)
    agents = () if dma is None else (dma,)
    with counted_pushes() as pushes:
        result = system.SystemSimulator(timing).run({core: program}, agents)
    oracle = ReferenceSimulator(timing).run({core: program}, agents)
    assert pickle.dumps(result) == pickle.dumps(oracle)
    if dma is None:
        # Closed form: no event was ever scheduled.
        assert not pushes
        # One core alone: its finish time is the makespan.
        assert isolation_cycles(program, timing) == result.makespan
    else:
        # A DMA agent shares the SRI: the event loop runs.
        assert pushes[system._STEP] == 1


def test_corun_event_diet():
    """Scenario 1's app against H-Load at scale 1/256: every transaction
    until the load ends is one completion event, and only 206 of them
    still need an issue event (their device is free before they are
    issued, and another event is due by then); only issues that meet
    another event in their cycle still queue an arbitration event.  The
    app's last 2052 transactions run alone and take no event at all."""
    scale = 1 / 256
    app, _ = build_control_loop(scenario_1(), scale=scale)
    load = build_load("scenario1", "H", scale=scale)
    programs = {1: app, 2: load}
    with counted_pushes() as pushes:
        result = system.SystemSimulator().run(programs)
    assert pickle.dumps(result) == pickle.dumps(
        ReferenceSimulator().run(programs)
    )
    assert app.request_count() + load.request_count() == 6083
    assert dict(pushes) == {
        system._STEP: 2,
        system._ISSUE: 206,
        system._COMPLETE: 4031,
        system._GRANT: 125,
    }


def test_dma_event_diet():
    """A victim against a higher-priority period-2, depth-8 DMA agent on
    the LMU: the agent parks while its queue is full instead of ticking
    every period, its re-issues at completions and its ticks onto an
    idle LMU need no arbitration event, and the victim's LMU requests
    join the busy device's queue without an issue event.  The agent
    finishes first, and the victim's last 9 LMU reads take no event."""
    victim = program_from_steps(
        "victim", [(3, _LMU_READ), (2, _PF_CODE)] * 10
    )
    agent = DmaAgent(9, _LMU_READ, count=60, period=2, queue_depth=8)
    kwargs = {"arbitration": "priority", "priorities": {1: 1, 9: 0}}
    with counted_pushes() as pushes:
        result = system.SystemSimulator(**kwargs).run({1: victim}, (agent,))
    assert pickle.dumps(result) == pickle.dumps(
        ReferenceSimulator(**kwargs).run({1: victim}, (agent,))
    )
    assert result.dma_result(9).served == 60
    assert result.core(1).total_wait_cycles == 657
    # 60 DMA completions and the victim's first LMU one; PF0 is the
    # victim's alone.  Ticking every period, the engine pushed 287
    # ticks, 52 grants and 10 issues here.
    assert dict(pushes) == {
        system._STEP: 1,
        system._ISSUE: 1,
        system._COMPLETE: 61,
        system._DMA_TICK: 10,
    }


def test_lone_agent_event_diet():
    """A period-24, depth-1 DMA agent on the LMU outlives its victim:
    the first tick that finds it alone, with nothing outstanding,
    finishes its remaining 49 transactions in closed form, where a
    tick-by-tick walk would push 60 ticks and 70 completions."""
    victim = program_from_steps(
        "victim", [(3, _LMU_READ), (2, _PF_CODE)] * 10
    )
    agent = DmaAgent(9, _LMU_READ, count=60, period=24, queue_depth=1)
    with counted_pushes() as pushes:
        result = system.SystemSimulator().run({1: victim}, (agent,))
    assert pickle.dumps(result) == pickle.dumps(
        ReferenceSimulator().run({1: victim}, (agent,))
    )
    assert result.core(1).readings.ccnt == 261
    assert result.dma_result(9).finish_time == result.makespan == 1427
    # The victim's 10 LMU reads and the agent's first 11 transactions;
    # the twelfth tick (cycle 264) closes the agent's tail.
    assert dict(pushes) == {
        system._STEP: 1,
        system._ISSUE: 10,
        system._COMPLETE: 21,
        system._DMA_TICK: 12,
    }


#: PF0 overlaps its sequential code fetches by more than it serves them
#: (slack 8), the LMU by exactly its service: waits below, at and above
#: the slack all occur when two cores hammer both devices.
_SLACK_TIMING = SimTiming(
    devices={
        target: DeviceTiming(
            service_sequential=12,
            service_random=16,
            overlap_code_seq=20,
            overlap_data_seq=12,
            overlap_write=4,
        )
        for target in Target
    }
)
_LMU_STREAM = data_access(Target.LMU, sequential=True)


# Derandomized: the engine and the oracle still differ on rare co-runs
# (see test_inline_chain_issue_order_matches_oracle), so fresh draws on
# every run would make this test flaky rather than stricter.
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(
    cores=[
        [(0, _PF_CODE), (1, _LMU_STREAM)] * 8,
        [(2, _PF_CODE), (0, _PF_CODE), (0, _LMU_STREAM)] * 6,
    ],
    timing=_SLACK_TIMING,
    dma=None,
    priority=False,
)
@example(
    cores=[[(0, _PF_CODE)] * 10, [(0, _LMU_STREAM), (5, _PF_CODE)] * 5],
    timing=_SLACK_TIMING,
    dma=DmaAgent(9, _LMU_STREAM, count=12, period=2, queue_depth=3),
    priority=True,
)
# The last master left finishes without events.  Core 1 outlives core
# 0: its requests from cycle 84 on close in one step.
@example(
    cores=[
        [(0, _LMU_STREAM)] * 3,
        [(1, _LMU_STREAM), (2, _PF_CODE)] * 8,
    ],
    timing=_SLACK_TIMING,
    dma=None,
    priority=False,
)
@example(  # core 0 outlives the DMA agent and core 1 (PF0 alone)
    cores=[[(3, _LMU_STREAM)] * 12, [(0, _PF_CODE)] * 4],
    timing=_SLACK_TIMING,
    dma=DmaAgent(9, _LMU_STREAM, count=6, period=3, queue_depth=2),
    priority=False,
)
@example(  # the agent outlives both cores, at period == service (12)
    cores=[
        [(0, _LMU_STREAM)] + [(0, _PF_CODE)] * 6,
        [(1, _LMU_STREAM)] + [(0, _PF_CODE)] * 6,
    ],
    timing=_SLACK_TIMING,
    dma=DmaAgent(
        9, _LMU_STREAM, count=20, period=12, queue_depth=1, start_time=30
    ),
    priority=False,
)
@example(  # core 1, above the agent, ends with the agent's queue full:
    # only a tick that finds the queue drained may close the agent
    cores=[[], [(0, _LMU_STREAM)] * 10],
    timing=_SLACK_TIMING,
    dma=DmaAgent(9, _LMU_STREAM, count=40, period=16, queue_depth=3),
    priority=True,
)
@example(  # period 5 < service 12: the agent alone still backs up
    cores=[[(0, _LMU_STREAM)] * 2, [(4, _LMU_STREAM)]],
    timing=_SLACK_TIMING,
    dma=DmaAgent(
        9, _LMU_STREAM, count=15, period=5, queue_depth=2, start_time=40
    ),
    priority=False,
)
@example(  # three cores, two of which finish first
    cores=[
        [(0, _LMU_STREAM)] * 2,
        [(1, _LMU_STREAM)] * 4,
        [(0, _LMU_STREAM), (3, _PF_CODE)] * 6,
    ],
    timing=_SLACK_TIMING,
    dma=None,
    priority=False,
)
@given(
    cores=st.lists(_STEPS, min_size=2, max_size=3),
    timing=timings(),
    dma=_DMA,
    priority=st.booleans(),
)
def test_coruns_match_oracle(cores, timing, dma, priority):
    """Co-runs under drawn timings, overlaps at or past the service
    included, with or without a DMA agent and priority arbitration."""
    programs = {
        core: program_from_steps(f"core{core}", steps)
        for core, steps in enumerate(cores)
    }
    agents = () if dma is None else (dma,)
    kwargs = (
        {"arbitration": "priority", "priorities": {0: 2, 1: 0, 9: 1}}
        if priority
        else {}
    )
    result = system.SystemSimulator(timing, **kwargs).run(programs, agents)
    oracle = ReferenceSimulator(timing, **kwargs).run(programs, agents)
    assert pickle.dumps(result) == pickle.dumps(oracle)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="an inline single-master chain schedules the core's next shared "
    "issue when the chain starts, the oracle at its last completion",
)
def test_inline_chain_issue_order_matches_oracle():
    """The known divergence from the oracle, pinned so that its fix
    shows.  Core 1's PF0 fetch is the only PF0 transaction, so the engine
    completes it inline and pushes core 1's next shared issue (PF1) when
    that chain starts, where the oracle pushes it at the fetch's
    completion.  The earlier sequence number reorders same-cycle issues,
    then grants, then completions, and core 1's zero-gap LMU request
    waits 0 cycles in the engine and 4 in the oracle."""
    lmu, pf0, pf1 = (
        data_access(Target.LMU),
        code_fetch(Target.PF0),
        code_fetch(Target.PF1),
    )
    timing = SimTiming(
        devices={target: DeviceTiming(2, 2) for target in Target}
    )
    programs = {
        0: program_from_steps(
            "core0", [(0, lmu), (1, lmu), (0, lmu), (0, lmu), (0, lmu)]
        ),
        1: program_from_steps("core1", [(1, pf0), (0, pf1), (0, lmu)]),
    }
    agents = (
        DmaAgent(8, lmu, count=20, period=4, queue_depth=1, start_time=4),
        DmaAgent(9, pf1, count=22, period=2, queue_depth=1, start_time=6),
    )
    result = system.SystemSimulator(timing).run(programs, agents)
    oracle = ReferenceSimulator(timing).run(programs, agents)
    assert pickle.dumps(result) == pickle.dumps(oracle)
