"""The simulator's fast paths: isolation in closed form, co-run event diet.

``SystemSimulator.run`` computes a run with one core and no DMA agent
without walking the program (counters and blocking extremes per distinct
request, finish time from ``CompiledProgram.isolation_time``), and in
co-runs an issue that finds its device idle and nothing else due in its
cycle is granted inline instead of through an arbitration event.  Both
must leave every pickled :class:`SimResult` byte-identical to the
step-generator oracle (``tests/oracles/sim_reference.py``); the event
counts pin that the shortcuts are actually taken.
"""

import collections
import contextlib
import heapq
import itertools
import pickle

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


@contextlib.contextmanager
def _counted_pushes():
    """Count the simulator's heap pushes per event kind."""
    pushes: collections.Counter[int] = collections.Counter()

    class CountingHeapq:
        @staticmethod
        def heappush(heap, item):
            pushes[item[1]] += 1
            heapq.heappush(heap, item)

        heappop = staticmethod(heapq.heappop)

    original = system.heapq
    system.heapq = CountingHeapq
    try:
        yield pushes
    finally:
        system.heapq = original


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
    with _counted_pushes() as pushes:
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
    is one issue and one completion; only issues that meet another event
    in their cycle still queue an arbitration event."""
    scale = 1 / 256
    app, _ = build_control_loop(scenario_1(), scale=scale)
    load = build_load("scenario1", "H", scale=scale)
    programs = {1: app, 2: load}
    with _counted_pushes() as pushes:
        result = system.SystemSimulator().run(programs)
    assert pickle.dumps(result) == pickle.dumps(
        ReferenceSimulator().run(programs)
    )
    transactions = app.request_count() + load.request_count()
    assert transactions == 6083
    assert dict(pushes) == {
        system._STEP: 2,
        system._ISSUE: transactions,
        system._COMPLETE: transactions,
        system._GRANT: 125,
    }
