"""Contender throttling: trading co-runner bandwidth for victim bounds.

The paper's related work includes runtime mechanisms that "enforce
precomputed bounds to the maximum contention caused/suffered at operation"
(Nowotsch et al., cited as [16]).  This module provides the analysis-side
counterpart on top of our models: throttle a contender's SRI request
*rate* (minimum gap between requests — what an RTOS-level bandwidth
regulator implements with PMC-triggered interrupts), re-measure its
counters, and recompute the victim's ILP bound.

Because the ILP bound is monotone in the contender's counters, rate
regulation translates directly into WCET headroom; :func:`throttle_sweep`
computes the trade-off curve an integrator would use to pick a regulator
setting that makes a deadline feasible.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

from repro.core.ilp_ptac import ilp_ptac_bound
from repro.counters.readings import TaskReadings
from repro.errors import SimulationError
from repro.platform.deployment import DeploymentScenario
from repro.platform.latency import tc27x_latency_profile
from repro.sim.program import Step, TaskProgram
from repro.sim.system import run_isolation


def throttled(program: TaskProgram, min_gap: int) -> TaskProgram:
    """Enforce a minimum computation gap before every SRI request.

    Models a bandwidth regulator that releases at most one SRI request
    per ``min_gap`` cycles: gaps shorter than the floor are stretched,
    longer ones are untouched.  ``min_gap == 0`` returns the program
    unchanged.
    """
    if min_gap < 0:
        raise SimulationError("throttle gap must be non-negative")
    if min_gap == 0:
        return program

    def factory() -> Iterator[Step]:
        for gap, request in program.steps():
            if request is not None and gap < min_gap:
                yield (min_gap, request)
            else:
                yield (gap, request)

    return TaskProgram(
        name=f"{program.name}|throttle{min_gap}", stream_factory=factory
    )


@dataclasses.dataclass(frozen=True)
class ThrottlePoint:
    """One point of a throttling trade-off curve.

    Attributes:
        min_gap: regulator setting (cycles between releases).
        contender_readings: the throttled contender's isolation counters.
        delta_cycles: victim's ILP bound against the throttled contender.
        contender_cycles: the throttling cost paid by the contender
            (its own isolation execution time).
    """

    min_gap: int
    contender_readings: TaskReadings
    delta_cycles: int
    contender_cycles: int


def throttle_sweep(
    victim_readings: TaskReadings,
    contender: TaskProgram,
    scenario: DeploymentScenario,
    *,
    gaps: Sequence[int] = (0, 4, 8, 16, 32, 64),
) -> list[ThrottlePoint]:
    """The bandwidth-regulation trade-off curve.

    For each regulator setting: throttle the contender, measure it in
    isolation (its counters shrink only via DMA-free slack — the request
    *counts* stay, the stall totals stay, but its execution lengthens so
    its request *density* drops; the ILP input that matters is unchanged
    counters over a longer window, which the integrator accounts for by
    windowing — here we keep the conservative whole-run counters), and
    recompute the victim's bound.

    Note the structural insight this surfaces: with whole-run counters
    the ILP bound is throttle-*invariant* (same totals), so the benefit
    of regulation appears only through windowed accounting — the sweep
    reports both the (invariant) bound and the contender's slowdown, and
    the windowed variant divides counters by the run-length ratio, which
    is the per-window bound an enforcement regime guarantees.
    """
    profile = tc27x_latency_profile()
    points = []
    baseline_cycles: int | None = None
    for gap in gaps:
        regulated = throttled(contender, gap)
        result = run_isolation(regulated, core=2)
        readings = result.readings
        cycles = readings.require_ccnt()
        if baseline_cycles is None:
            baseline_cycles = cycles
        # Windowed accounting: the victim only ever overlaps the
        # contender for (at most) its own execution; a regulator
        # guarantees the per-window request density, so the effective
        # counters scale with the density ratio.
        density = baseline_cycles / cycles
        windowed = readings.scaled(min(1.0, density), name=readings.name)
        delta = ilp_ptac_bound(
            victim_readings, windowed, profile, scenario
        ).bound.delta_cycles
        points.append(
            ThrottlePoint(
                min_gap=gap,
                contender_readings=windowed,
                delta_cycles=delta,
                contender_cycles=cycles,
            )
        )
    return points
