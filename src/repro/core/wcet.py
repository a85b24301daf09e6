"""Assembling contention-aware WCET estimates (the MBTA end product).

The workflow the paper targets (Section 1, contribution ➁): a software
provider measures its task **in isolation** during early development —
execution time plus debug counters — and computes, per candidate
deployment scenario and per hypothesised contender load, a WCET estimate
that already includes multicore contention:

    WCET = ET_isolation(high-watermark) + Δcont(model)

:func:`contention_bound` and :func:`wcet_estimate` are the one-call
facade over the model family.  They are thin lookups into the
:mod:`repro.core.registry`: the ``model`` argument is any registered
name (see ``repro models`` or
:func:`~repro.core.registry.model_names`), the remaining arguments are
folded into an :class:`~repro.core.model.AnalysisContext`, and the
registered model's capabilities decide which of them are required.
"""

from __future__ import annotations

from repro.core.model import AnalysisContext
from repro.core.registry import get_model
from repro.core.ptac import AccessProfile
from repro.core.results import ContentionBound, WcetEstimate
from repro.counters.readings import TaskReadings
from repro.platform.deployment import DeploymentScenario
from repro.platform.latency import LatencyProfile


def contention_bound(
    model: str,
    readings_a: TaskReadings | None = None,
    profile: LatencyProfile | None = None,
    scenario: DeploymentScenario | None = None,
    readings_b: TaskReadings | None = None,
    *,
    contenders=(),
    access_profile_a: AccessProfile | None = None,
    access_profile_b: AccessProfile | None = None,
    contender_profiles=(),
    dma_agents=(),
    fsb_timing=None,
    task: str | None = None,
) -> ContentionBound:
    """Compute Δcont with any registered model.

    Args:
        model: a registered model name (see ``repro models``).
        readings_a: isolation readings of the task under analysis
            (required by the counter-based models).
        profile: Table 2 constants.
        scenario: deployment scenario (ignored by models that declare no
            deployment knowledge, e.g. the baseline fTC).
        readings_b: single-contender shorthand for ``contenders``.
        contenders: contender readings (the multi-contender ILP accepts
            any number; single-contender models read the first).
        access_profile_a: τa's ground-truth per-target access profile
            (the ideal model's input; simulator-only).
        access_profile_b: single-contender shorthand for
            ``contender_profiles``.
        contender_profiles: ground-truth / statically-known contender or
            higher-priority-master access profiles.
        dma_agents: DMA transfer descriptors (``dma-occupancy``).
        fsb_timing: bus timing constants (the ``fsb-*`` reductions).
        task: victim name for models needing no τa measurements.

    Raises:
        ModelError: unknown model name (the message lists the registered
            names), or the chosen model's declared inputs are missing.
    """
    spec = get_model(model)
    all_contenders = tuple(contenders)
    if readings_b is not None:
        all_contenders = (readings_b,) + all_contenders
    profiles = tuple(contender_profiles)
    if access_profile_b is not None:
        profiles = (access_profile_b,) + profiles
    context = AnalysisContext(
        profile=profile,
        scenario=scenario,
        readings=readings_a,
        contenders=all_contenders,
        access_profile=access_profile_a,
        contender_profiles=profiles,
        dma_agents=tuple(dma_agents),
        fsb_timing=fsb_timing,
        task=task,
    )
    return spec.bound(context)


def wcet_estimate(
    model: str,
    readings_a: TaskReadings,
    profile: LatencyProfile | None = None,
    scenario: DeploymentScenario | None = None,
    readings_b: TaskReadings | None = None,
    *,
    isolation_cycles: int | None = None,
    contenders=(),
    **context_kwargs,
) -> WcetEstimate:
    """One-call WCET estimate: isolation time + model contention bound.

    Args:
        model: which contention model to use (any registered name).
        readings_a: isolation readings of the task under analysis;
            must carry ``ccnt`` unless ``isolation_cycles`` is given.
        profile: Table 2 constants.
        scenario: deployment scenario.
        readings_b: contender readings (single-contender shorthand).
        isolation_cycles: override for the isolation execution time
            (e.g. a high-watermark over many runs rather than one run).
        contenders: contender readings for multi-contender models.
        **context_kwargs: any further :func:`contention_bound` keyword
            (access profiles, DMA agents, FSB timing, task name).
    """
    bound = contention_bound(
        model,
        readings_a,
        profile,
        scenario,
        readings_b,
        contenders=contenders,
        **context_kwargs,
    )
    cycles = (
        isolation_cycles
        if isolation_cycles is not None
        else readings_a.require_ccnt()
    )
    return WcetEstimate(isolation_cycles=cycles, bound=bound)
