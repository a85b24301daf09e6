"""Measurement-Based Timing Analysis (MBTA) protocol helpers.

The paper's models plug into standard single-core MBTA practice
(contribution ➁): measure the task in isolation — several runs, keep the
high-watermark execution time and the counter readings — then add the
model's contention bound.  This module codifies that protocol against the
simulator:

1. :func:`measure_isolation` runs the task alone ``runs`` times (with an
   optional per-run program variant hook standing in for input variation)
   and returns the high-watermark readings;
2. :func:`analyse` combines the measurement with a contention model into
   a :class:`~repro.core.results.WcetEstimate`;
3. :func:`observe_corun` performs the deployment-time check the paper
   reports: run against actual contenders and verify the estimate holds.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Sequence

from repro.core.results import WcetEstimate
from repro.core.wcet import wcet_estimate
from repro.counters.readings import TaskReadings
from repro.errors import SimulationError
from repro.platform.deployment import DeploymentScenario
from repro.platform.latency import LatencyProfile
from repro.sim.program import TaskProgram
from repro.sim.system import SimResult, SystemSimulator


@dataclasses.dataclass(frozen=True)
class IsolationMeasurement:
    """Outcome of the isolation measurement campaign.

    Attributes:
        readings: counter readings of the high-watermark run.
        hwm_cycles: highest observed execution time across runs.
        runs: number of runs performed.
        all_cycles: execution time of every run (diagnostics).
    """

    readings: TaskReadings
    hwm_cycles: int
    runs: int
    all_cycles: tuple[int, ...]


def measure_isolation(
    program: TaskProgram,
    *,
    runs: int = 1,
    variant: Callable[[int], TaskProgram] | None = None,
    core: int = 1,
) -> IsolationMeasurement:
    """Run the measurement protocol: isolation runs, high-watermark.

    Args:
        program: the task under analysis.
        runs: how many isolation runs to perform.
        variant: optional hook mapping the run index to a program variant
            (models input-dependent paths; defaults to replaying the same
            program, which is deterministic on the simulator).
        core: core to pin the task on (the paper uses core 1).
    """
    if runs < 1:
        raise SimulationError("at least one isolation run is required")
    sim = SystemSimulator()
    hwm_readings: TaskReadings | None = None
    cycles: list[int] = []
    for index in range(runs):
        candidate = variant(index) if variant is not None else program
        result = sim.run({core: candidate}).core(core)
        elapsed = result.readings.require_ccnt()
        cycles.append(elapsed)
        if hwm_readings is None or elapsed > hwm_readings.require_ccnt():
            hwm_readings = result.readings
    assert hwm_readings is not None
    return IsolationMeasurement(
        readings=hwm_readings,
        hwm_cycles=max(cycles),
        runs=runs,
        all_cycles=tuple(cycles),
    )


def analyse(
    measurement: IsolationMeasurement,
    model: str,
    profile: LatencyProfile,
    scenario: DeploymentScenario,
    contender: TaskReadings | None = None,
    *,
    contenders: Sequence[TaskReadings] = (),
    **model_kwargs,
) -> WcetEstimate:
    """Turn an isolation measurement into a contention-aware WCET estimate.

    ``model`` is any registered contention-model name (see
    ``repro models``), which also fixes its ILP configuration;
    ``contenders`` feeds multi-contender models and further keywords
    (access profiles, DMA agents, ...) are forwarded to
    :func:`~repro.core.wcet.contention_bound`.
    """
    return wcet_estimate(
        model,
        measurement.readings,
        profile,
        scenario,
        contender,
        contenders=tuple(contenders),
        isolation_cycles=measurement.hwm_cycles,
        **model_kwargs,
    )


@dataclasses.dataclass(frozen=True)
class CorunObservation:
    """Observed multicore behaviour of the analysed task.

    Attributes:
        observed_cycles: execution time while co-running.
        slowdown: observed time over the isolation high-watermark.
        interference_wait_cycles: cycles the task actually queued behind
            contenders on the SRI (simulator-only insight).
        result: the full simulation result (all cores).
    """

    observed_cycles: int
    slowdown: float
    interference_wait_cycles: int
    result: SimResult


def observe_corun(
    program: TaskProgram,
    contender_programs: Sequence[TaskProgram] | Mapping[int, TaskProgram],
    isolation_cycles: int,
    *,
    core: int = 1,
) -> CorunObservation:
    """Run the task against contenders and report the observed slowdown.

    Args:
        program: the task under analysis (pinned on ``core``).
        contender_programs: contenders, either a sequence (assigned to the
            next core ids) or an explicit core mapping.
        isolation_cycles: the isolation high-watermark to normalise by.
        core: the analysed task's core.
    """
    if isolation_cycles <= 0:
        raise SimulationError("isolation time must be positive")
    programs: dict[int, TaskProgram] = {core: program}
    if isinstance(contender_programs, Mapping):
        overlap = set(contender_programs) & {core}
        if overlap:
            raise SimulationError(f"core {core} is already taken")
        programs.update(contender_programs)
    else:
        next_core = 0
        for contender in contender_programs:
            while next_core in programs:
                next_core += 1
            programs[next_core] = contender
    if len(programs) < 2:
        raise SimulationError("a co-run needs at least one contender")

    result = SystemSimulator().run(programs)
    task = result.core(core)
    observed = task.readings.require_ccnt()
    return CorunObservation(
        observed_cycles=observed,
        slowdown=observed / isolation_cycles,
        interference_wait_cycles=task.total_wait_cycles,
        result=result,
    )
