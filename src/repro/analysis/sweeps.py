"""Parameter sweeps: the model as a design-space exploration tool.

Section 4.2 argues the model's flexibility "provides a powerful and
reactive method for OEM and SWPs to explore and evaluate different
scheduling allocations and deployment scenarios ... before actual
integration".  This module packages that use case:

* :func:`contender_scale_sweep` — the ILP bound as a function of the
  contender's load, generalising Figure 4's three H/M/L points into a
  curve.  The curve exposes a structural feature the paper's three points
  cannot show: the bound grows with the contender until it **saturates**
  at the fully time-composable ILP level, at the load where the
  contender's possible interference exceeds everything τa exposes.
* :func:`deployment_sweep` — the same task pair across candidate
  deployment scenarios (the integrator's layout question).
* :func:`dirty_latency_sensitivity` — how much of a Scenario 2 bound is
  attributable to the LMU's bracketed 21-cycle dirty-miss latency.

Every sweep point is an independent ILP solve run as an engine job:
pass ``engine=`` to fan the solves out over cores and to cache them
content-addressed (a repeated sweep, or one sharing points with an
earlier sweep, skips the solver entirely).  The deployment and dirty
sweeps are one batch each.  A contender-scale sweep is two batches on
the same engine: its ceiling first, then one batch of points, each of
which gets the solved ceiling as the upper bound at which its
branch-and-bound may stop.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Sequence

from repro.core.ilp_ptac import IlpPtacOptions, _IlpPtacBuilder
from repro.counters.readings import TaskReadings
from repro.engine.batch import job
from repro.engine.runner import ExperimentEngine, run_jobs
from repro.errors import ModelError
from repro.platform.deployment import DeploymentScenario
from repro.platform.latency import tc27x_latency_profile

#: The paper's ILP configuration, which every sweep solves.
_PAPER_OPTIONS = IlpPtacOptions()


def _ilp_delta(
    readings_a: TaskReadings,
    readings_b: TaskReadings | None,
    scenario: DeploymentScenario,
    ceiling: int | None = None,
) -> int:
    """Job: one ILP-PTAC solve in the paper's configuration, reduced to
    its Δ-cycles bound.

    ``readings_b=None`` solves the time-composable ILP, the
    ``ilp-ptac-tc`` bound.  ``ceiling``, when given, is a bound the
    solve cannot exceed (the time-composable bound of the same τa), so
    branch-and-bound stops as soon as its incumbent reaches it; the
    result is the one the full search returns.
    """
    contenders = () if readings_b is None else (readings_b,)
    builder = _IlpPtacBuilder(
        readings_a,
        contenders,
        tc27x_latency_profile(),
        scenario,
        _PAPER_OPTIONS,
    )
    readout = builder.solve(
        "ilp-ptac" if contenders else "ilp-ptac-tc", upper_bound=ceiling
    )
    return readout.bound.delta_cycles


def _check_isolation(isolation_cycles: int | None) -> None:
    """Reject a negative or non-finite isolation time (``None`` and
    ``0`` leave the sweep's output unnormalised)."""
    if isolation_cycles is not None and (
        not math.isfinite(isolation_cycles) or isolation_cycles < 0
    ):
        raise ModelError(
            "isolation_cycles must be finite and not negative, got "
            f"{isolation_cycles!r}"
        )


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One point of a contender-load sweep.

    Attributes:
        scale: contender footprint relative to the reference contender.
        delta_cycles: ILP-PTAC bound at this load.
        slowdown: normalised prediction, when an isolation time is given.
        saturated: whether the bound equals the fully time-composable
            ceiling (contender information no longer helps).
    """

    scale: float
    delta_cycles: int
    slowdown: float | None
    saturated: bool


def contender_scale_sweep(
    readings_a: TaskReadings,
    reference_contender: TaskReadings,
    scenario: DeploymentScenario,
    *,
    scales: Sequence[float] = (0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0),
    isolation_cycles: int | None = None,
    engine: ExperimentEngine | None = None,
) -> list[SweepPoint]:
    """ILP-PTAC bound as a function of contender load, in the paper's
    ILP configuration.

    The sweep runs its ceiling (the time-composable bound) first, as a
    one-job batch, then one batch of points on the same engine.  The
    one-contender ILP is the time-composable one plus the contender's
    columns and rows, so no point exceeds the ceiling: each point job
    gets it as the upper bound at which branch-and-bound stops, and a
    saturated point closes as soon as its incumbent reaches it.

    Args:
        readings_a: the analysed task's isolation readings.
        reference_contender: the contender whose footprint is scaled.
        scenario: shared deployment scenario.
        scales: footprint multipliers (1.0 = the reference itself).
        isolation_cycles: optional isolation time for normalised output
            (``0`` leaves it unnormalised; a negative or non-finite
            time is rejected).
        engine: optional execution engine (parallel solves, caching).

    Returns:
        One :class:`SweepPoint` per scale, in order.
    """
    scales = tuple(scales)  # accept one-shot iterables
    if not scales:
        raise ModelError("at least one scale is required")
    for scale in scales:
        if not math.isfinite(scale) or scale <= 0:
            raise ModelError(
                f"scales must be positive and finite, got {scale!r}"
            )
    _check_isolation(isolation_cycles)

    (ceiling,) = run_jobs(
        [
            job(
                _ilp_delta,
                readings_a,
                None,
                scenario,
                label=f"sweep:{scenario.name}:ceiling",
            )
        ],
        engine,
    )
    jobs = []
    for scale in scales:
        contender = (
            reference_contender
            if scale == 1.0
            else reference_contender.scaled(scale)
        )
        jobs.append(
            job(
                _ilp_delta,
                readings_a,
                contender,
                scenario,
                ceiling,
                label=f"sweep:{scenario.name}:x{scale:g}",
            )
        )
    deltas = run_jobs(jobs, engine)

    return [
        SweepPoint(
            scale=scale,
            delta_cycles=delta,
            slowdown=(
                1 + delta / isolation_cycles if isolation_cycles else None
            ),
            saturated=delta >= ceiling,
        )
        for scale, delta in zip(scales, deltas)
    ]


@dataclasses.dataclass(frozen=True)
class DeploymentComparison:
    """Bound of one candidate deployment in a deployment sweep."""

    scenario: str
    delta_cycles: int
    slowdown: float | None


def deployment_sweep(
    readings_a: TaskReadings,
    readings_b: TaskReadings,
    scenarios: Mapping[str, DeploymentScenario],
    *,
    isolation_cycles: int | None = None,
    engine: ExperimentEngine | None = None,
) -> list[DeploymentComparison]:
    """Compare candidate deployments by their worst-case contention.

    Note the caveat baked into the model: the counter *semantics* of the
    readings must be compatible with each candidate scenario (e.g. a
    scenario claiming exact code counts needs P$_MISS to mean that), which
    is the integrator's responsibility — exactly as in the paper, where
    the deployment is fixed before measurement.
    """
    if not scenarios:
        raise ModelError("at least one scenario is required")
    _check_isolation(isolation_cycles)
    names = list(scenarios)
    deltas = run_jobs(
        [
            job(
                _ilp_delta,
                readings_a,
                readings_b,
                scenarios[name],
                label=f"deployment:{name}",
            )
            for name in names
        ],
        engine,
    )
    return [
        DeploymentComparison(
            scenario=name,
            delta_cycles=delta,
            slowdown=(
                1 + delta / isolation_cycles if isolation_cycles else None
            ),
        )
        for name, delta in zip(names, deltas)
    ]


@dataclasses.dataclass(frozen=True)
class DirtySensitivity:
    """Impact of the LMU dirty-miss latency on one bound.

    Attributes:
        with_dirty_cycles: bound with the 21-cycle dirty LMU latency.
        without_dirty_cycles: bound with the plain 11-cycle latency.
        share: fraction of the dirty-latency bound attributable to the
            dirty/plain difference.
    """

    with_dirty_cycles: int
    without_dirty_cycles: int

    @property
    def share(self) -> float:
        if self.with_dirty_cycles == 0:
            return 0.0
        return 1 - self.without_dirty_cycles / self.with_dirty_cycles


def dirty_latency_sensitivity(
    readings_a: TaskReadings,
    readings_b: TaskReadings,
    scenario: DeploymentScenario,
    *,
    engine: ExperimentEngine | None = None,
) -> DirtySensitivity:
    """Quantify the cost of assuming dirty evictions on the LMU.

    Table 2 brackets the LMU's 21-cycle latency because it "applies only
    on limited scenarios"; Scenario 2 is such a scenario.  This sweep
    re-solves the ILP with the dirty possibility removed, isolating its
    contribution — useful when deciding whether write-through
    configuration (no dirty lines) buys a meaningful bound reduction.
    """
    clean_scenario = dataclasses.replace(
        scenario, dirty_targets=frozenset()
    )
    with_dirty, without_dirty = run_jobs(
        [
            job(
                _ilp_delta,
                readings_a,
                readings_b,
                scenario,
                label=f"dirty:{scenario.name}:with",
            ),
            job(
                _ilp_delta,
                readings_a,
                readings_b,
                clean_scenario,
                label=f"dirty:{scenario.name}:without",
            ),
        ],
        engine,
    )
    return DirtySensitivity(
        with_dirty_cycles=with_dirty, without_dirty_cycles=without_dirty
    )
