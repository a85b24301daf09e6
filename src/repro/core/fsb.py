"""Front-side-bus (FSB) reduction of the crossbar model (Section 4.3).

The paper argues its crossbar model generalises the FSB-based contention
models of prior work: "we consider the FSB model to be a reduced case for
the more generic cross-bar model".  On an FSB platform every request of
every core serialises on a single shared bus, which is exactly the
crossbar model with *one* target.

This module demonstrates the reduction constructively:

* :func:`fsb_latency_profile` builds a degenerate Table 2 where every
  target shares the bus timing;
* :func:`fsb_scenario` routes all code and data to a single nominal target
  (the LMU slot stands in for "the bus");
* :func:`fsb_closed_form` is the textbook FSB bound
  ``min(n_a, n_b) · l_bus`` (per round-robin round, each τa request waits
  for at most one τb request);
* the test-suite and the A3 ablation benchmark check that the generic
  ILP-PTAC machinery instantiated on the FSB scenario returns *exactly*
  the closed form — the reduction claim, executed.
"""

from __future__ import annotations

import dataclasses

from repro.core.access_bounds import access_count_bounds
from repro.core.ilp_ptac import IlpPtacOptions, IlpPtacResult, ilp_ptac_bound
from repro.counters.readings import TaskReadings
from repro.errors import ModelError
from repro.platform.deployment import DeploymentScenario, custom_scenario
from repro.platform.latency import LatencyProfile, TargetTiming
from repro.platform.targets import Target


@dataclasses.dataclass(frozen=True)
class FsbTiming:
    """Timing of the single shared bus.

    Attributes:
        latency: worst-case occupancy of the bus by one request (the
            ``l_bus`` coefficient).
        cs_min: minimum stall cycles a single bus request costs the
            issuing core (used to bound access counts from stalls).
    """

    latency: int
    cs_min: int

    def __post_init__(self) -> None:
        if self.latency <= 0 or self.cs_min <= 0:
            raise ModelError("FSB timing constants must be positive")
        if self.cs_min > self.latency:
            raise ModelError(
                "per-access stall cannot exceed the bus latency"
            )


def fsb_latency_profile(timing: FsbTiming) -> LatencyProfile:
    """A degenerate latency profile where every target is 'the bus'."""
    bus = TargetTiming(
        l_max=timing.latency,
        l_min=timing.latency,
        cs_code=timing.cs_min,
        cs_data=timing.cs_min,
    )
    dfl_bus = TargetTiming(
        l_max=timing.latency,
        l_min=timing.latency,
        cs_data=timing.cs_min,
    )
    return LatencyProfile(
        {
            Target.LMU: bus,
            Target.PF0: bus,
            Target.PF1: bus,
            Target.DFL: dfl_bus,
        }
    )


def fsb_scenario() -> DeploymentScenario:
    """Route all code and data onto one target — a bus in crossbar clothes."""
    return custom_scenario(
        "fsb",
        code_targets=(Target.LMU,),
        data_targets=(Target.LMU,),
        description="single shared front-side bus (reduction of Section 4.3)",
    )


def _floor_total(readings: TaskReadings, timing: FsbTiming) -> int:
    """Tight stall-derived access-count bound of one task on the bus.

    An access costs at least ``cs_min`` stall cycles, so an integer access
    count obeys ``n ≤ ⌊cs / cs_min⌋`` per class.  (Eq. 4 of the paper
    writes ``⌈·⌉``, which is also sound but one looser when the stalls are
    not an exact multiple; the ILP's budget inequalities imply the floor,
    so the closed form uses it for the exact-reduction equality.)
    """
    return readings.ps // timing.cs_min + readings.ds // timing.cs_min


def fsb_closed_form(
    readings_a: TaskReadings,
    readings_b: TaskReadings,
    timing: FsbTiming,
) -> int:
    """Textbook FSB contention bound from stall-derived access counts.

    Every request of τa can wait for at most one τb request per round-robin
    round, so the number of conflicts is ``min(n̂_a, n̂_b)`` and each costs
    at most ``l_bus``:

        Δcont = min(n̂_a, n̂_b) · l_bus
    """
    return min(
        _floor_total(readings_a, timing), _floor_total(readings_b, timing)
    ) * timing.latency


def fsb_via_crossbar_ilp(
    readings_a: TaskReadings,
    readings_b: TaskReadings,
    timing: FsbTiming,
) -> IlpPtacResult:
    """The generic ILP-PTAC model instantiated on the FSB scenario.

    By Section 4.3's argument this must coincide with
    :func:`fsb_closed_form`; the test-suite asserts it does.
    """
    return ilp_ptac_bound(
        readings_a,
        readings_b,
        fsb_latency_profile(timing),
        fsb_scenario(),
        IlpPtacOptions(use_exact_code_counts=False),
    )


def fsb_ftc_closed_form(readings_a: TaskReadings, timing: FsbTiming) -> int:
    """Fully time-composable FSB bound: every τa request delayed once.

        Δcont = n̂_a · l_bus
    """
    profile = fsb_latency_profile(timing)
    scenario = fsb_scenario()
    bounds_a = access_count_bounds(
        readings_a, profile, scenario, use_exact_counts=False
    )
    return bounds_a.total * timing.latency
