"""Named contention-model registry: models as data, not an enum.

Adding a contention model means registering a
:class:`~repro.core.model.ModelSpec`::

    from repro.core import (
        AnalysisContext, ModelCapabilities, ModelSpec, register_model,
    )

    def _my_bound(context: AnalysisContext) -> ContentionBound:
        ...  # read the fields your capabilities declare

    register_model(ModelSpec(
        name="my-model",
        description="one line for `repro models` and the README",
        capabilities=ModelCapabilities(min_contenders=1, max_contenders=1),
        fn=_my_bound,
    ))

after which ``contention_bound("my-model", ...)``, the experiment
drivers' ``models=`` arguments and ``repro figure4 --model my-model``
all resolve it, and engine jobs can carry the *name* (plain, picklable
data that participates in the content-addressed cache key) instead of a
callable.

Process-pool caveat: a worker resolves names against *its own*
process's default registry.  Fork-based platforms (Linux) inherit the
parent's registrations; platforms that spawn fresh workers
(macOS/Windows) re-import the package instead, so perform
``register_model(...)`` at import time of a module your job functions
import — then every worker re-creates the registration itself.

The default registry ships the paper's whole model family: the fTC
baseline/refined pair (Section 3.4), the ILP-PTAC model and its fully
time-composable variant (Section 3.5), the multi-contender joint ILP
(Section 2's extension), the ideal model (Eq. 1), the priority/DMA
occupancy bounds for higher-priority masters (plus ``dma-rr-alignment``,
the same-class accounting applied to DMA descriptors — the sound/unsound
contrast the dma-pressure scenario family measures), and the three FSB
reductions of Section 4.3.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import Iterable

from repro.core.fsb import (
    fsb_closed_form,
    fsb_ftc_closed_form,
    fsb_via_crossbar_ilp,
)
from repro.core.ftc import ftc_baseline, ftc_refined
from repro.core.ideal import ideal_bound
from repro.core.ilp_ptac import IlpPtacOptions, ilp_ptac_bound
from repro.core.model import (
    AnalysisContext,
    ContentionModel,
    ModelCapabilities,
    ModelSpec,
)
from repro.core.multicontender import multi_contender_bound
from repro.core.priority import dma_victim_bound, priority_victim_bound
from repro.core.results import ContentionBound
from repro.errors import ModelError
from repro.platform.targets import Operation, Target
from repro.registry import Registry


# ----------------------------------------------------------------------
# Builtin model implementations (context adapters over repro.core.*)
# ----------------------------------------------------------------------
def _ftc_baseline(context: AnalysisContext) -> ContentionBound:
    return ftc_baseline(context.readings, context.profile)


def _ftc_refined(context: AnalysisContext) -> ContentionBound:
    return ftc_refined(context.readings, context.profile, context.scenario)


def _ilp_ptac(context: AnalysisContext) -> ContentionBound:
    return ilp_ptac_bound(
        context.readings,
        context.contender,
        context.profile,
        context.scenario,
    ).bound


def _ilp_ptac_tc(context: AnalysisContext) -> ContentionBound:
    return ilp_ptac_bound(
        context.readings,
        None,
        context.profile,
        context.scenario,
        IlpPtacOptions(contender_constraints=False),
    ).bound


def _ilp_ptac_multi(context: AnalysisContext) -> ContentionBound:
    return multi_contender_bound(
        context.readings,
        context.contenders,
        context.profile,
        context.scenario,
    ).bound


def _ideal(context: AnalysisContext) -> ContentionBound:
    # Eq. 1 is pairwise.  Under round-robin each victim request waits
    # once per contending *core* per round, so the multi-contender bound
    # is the SUM of the pairwise solves — merging the profiles first
    # would compute min(n_a, Σ n_b) and undercount the interference.
    bounds = [
        ideal_bound(
            context.access_profile, profile, context.profile,
            context.scenario,
        )
        for profile in context.contender_profiles
    ]
    if len(bounds) == 1:
        return bounds[0]
    breakdown: dict = {}
    op_totals = {Operation.CODE: 0, Operation.DATA: 0}
    for bound in bounds:
        for pair, cycles in (bound.breakdown or {}).items():
            breakdown[pair] = breakdown.get(pair, 0) + cycles
        op_totals[Operation.CODE] += bound.code_cycles
        op_totals[Operation.DATA] += bound.data_cycles
    return ContentionBound(
        model="ideal",
        task=bounds[0].task,
        contenders=tuple(p.task for p in context.contender_profiles),
        delta_cycles=sum(bound.delta_cycles for bound in bounds),
        op_breakdown=op_totals,
        breakdown=breakdown,
        scenario=bounds[0].scenario,
        time_composable=False,
    )


def _priority_occupancy(context: AnalysisContext) -> ContentionBound:
    profiles = context.contender_profiles
    traffic = profiles[0]
    for extra in profiles[1:]:  # occupancies of independent masters add
        traffic = traffic.merged(extra)
    return priority_victim_bound(
        context.scenario, context.profile, traffic, task=context.task_name
    )


def _dma_occupancy(context: AnalysisContext) -> ContentionBound:
    return dma_victim_bound(
        context.scenario,
        context.profile,
        context.dma_agents,
        task=context.task_name,
    )


def _dma_rr_alignment(context: AnalysisContext) -> ContentionBound:
    """The same-class alignment assumption applied to DMA descriptors.

    Under round-robin every victim request to slave ``t`` is delayed at
    most once per other master per round, so an agent addressing ``t``
    costs at most ``min(count, n̂_a^t) · l^{t,o}`` — with ``n̂_a^t`` the
    Eqs. 2-4 bound on the victim's requests that can reach ``t``.  This
    is exactly the accounting the paper's same-priority-class models
    perform for core contenders; registering it as a DMA bound makes the
    scoping decision *testable*: the bound is sound for paced,
    single-outstanding agents and demonstrably under-predicts once a
    higher-priority agent saturates its slave or queues a deep burst
    (the dma-pressure scenario family measures both regimes).
    """
    from repro.core.access_bounds import access_count_bounds

    scenario = context.scenario
    bounds = access_count_bounds(context.readings, context.profile, scenario)
    breakdown: dict[tuple[Target, Operation], int] = {}
    op_totals = {Operation.CODE: 0, Operation.DATA: 0}
    for agent in context.dma_agents:
        target = agent.request.target
        operations = scenario.operations_on(target)
        if not operations or agent.count == 0:
            continue  # traffic the victim cannot conflict with
        victim_requests = sum(bounds.bound(op).count for op in operations)
        latency = scenario.interference_latency(
            context.profile, target, agent.request.operation
        )
        cycles = min(agent.count, victim_requests) * latency
        key = (target, agent.request.operation)
        breakdown[key] = breakdown.get(key, 0) + cycles
        op_totals[agent.request.operation] += cycles
    return ContentionBound(
        model="dma-rr-alignment",
        task=context.task_name,
        contenders=tuple(agent.label for agent in context.dma_agents),
        delta_cycles=sum(op_totals.values()),
        op_breakdown=op_totals,
        breakdown={k: v for k, v in breakdown.items() if v},
        scenario=scenario.name,
        time_composable=False,
    )


def _fsb_bound(
    model: str,
    task: str,
    contenders: tuple[str, ...],
    delta: int,
    *,
    time_composable: bool,
) -> ContentionBound:
    # The bus serialises code and data alike and the closed forms cannot
    # attribute classes, so the whole bound reports under the nominal
    # bus slot (the LMU data pair of the degenerate FSB scenario).
    return ContentionBound(
        model=model,
        task=task,
        contenders=contenders,
        delta_cycles=delta,
        op_breakdown={Operation.CODE: 0, Operation.DATA: delta},
        breakdown={(Target.LMU, Operation.DATA): delta} if delta else {},
        scenario="fsb",
        time_composable=time_composable,
    )


def _fsb_closed_form(context: AnalysisContext) -> ContentionBound:
    contender = context.contenders[0]
    delta = fsb_closed_form(context.readings, contender, context.fsb_timing)
    return _fsb_bound(
        "fsb-closed-form",
        context.readings.name,
        (contender.name,),
        delta,
        time_composable=False,
    )


def _fsb_ftc(context: AnalysisContext) -> ContentionBound:
    delta = fsb_ftc_closed_form(context.readings, context.fsb_timing)
    return _fsb_bound(
        "fsb-ftc", context.readings.name, (), delta, time_composable=True
    )


def _fsb_crossbar_ilp(context: AnalysisContext) -> ContentionBound:
    result = fsb_via_crossbar_ilp(
        context.readings, context.contenders[0], context.fsb_timing
    )
    return dataclasses.replace(result.bound, model="fsb-crossbar-ilp")


def builtin_models() -> tuple[ModelSpec, ...]:
    """The model family every registry starts from (the paper's plus the
    extensions its discussion calls for)."""
    return (
        ModelSpec(
            name="ftc-baseline",
            description=(
                "fully time-composable bound from architectural worst "
                "cases alone (Eqs. 4+6-8); no deployment or contender "
                "knowledge"
            ),
            capabilities=ModelCapabilities(
                needs_scenario=False, time_composable=True
            ),
            fn=_ftc_baseline,
        ),
        ModelSpec(
            name="ftc-refined",
            description=(
                "deployment-refined fTC bound of Figure 4 (Section 4.1): "
                "exact code counts, scenario-restricted latencies, still "
                "contender-blind"
            ),
            capabilities=ModelCapabilities(time_composable=True),
            fn=_ftc_refined,
        ),
        ModelSpec(
            name="ilp-ptac",
            description=(
                "ILP over per-target access counts consistent with both "
                "tasks' counters (Section 3.5, Eqs. 9-23); the paper's "
                "tightest counter-based bound"
            ),
            capabilities=ModelCapabilities(
                min_contenders=1,
                max_contenders=1,
                joint_counterpart="ilp-ptac-multi",
                needs_ilp=True,
            ),
            fn=_ilp_ptac,
        ),
        ModelSpec(
            name="ilp-ptac-tc",
            description=(
                "ILP-PTAC without the contender-side constraints "
                "(Eqs. 22-23 dropped): fully time-composable again, at "
                "the cost of tightness"
            ),
            capabilities=ModelCapabilities(
                needs_ilp=True, time_composable=True
            ),
            fn=_ilp_ptac_tc,
        ),
        ModelSpec(
            name="ilp-ptac-multi",
            description=(
                "joint ILP over any number of simultaneous contenders "
                "sharing one consistent victim mapping (the Section 2 "
                "extension)"
            ),
            capabilities=ModelCapabilities(
                min_contenders=1, max_contenders=None, needs_ilp=True
            ),
            fn=_ilp_ptac_multi,
        ),
        ModelSpec(
            name="ideal",
            description=(
                "Equation 1 with ground-truth per-target access counts of "
                "both tasks; the simulator-only tightness yardstick"
            ),
            capabilities=ModelCapabilities(
                needs_readings=False,
                needs_scenario=False,
                needs_access_profile=True,
                needs_contender_profiles=True,
            ),
            fn=_ideal,
        ),
        ModelSpec(
            name="priority-occupancy",
            description=(
                "occupancy bound against higher-priority multi-outstanding "
                "SRI masters with known traffic profiles (sound where "
                "round-robin alignment breaks)"
            ),
            capabilities=ModelCapabilities(
                needs_readings=False,
                needs_contender_profiles=True,
                time_composable=True,
                dma_aware=True,
            ),
            fn=_priority_occupancy,
        ),
        ModelSpec(
            name="dma-occupancy",
            description=(
                "occupancy bound against a set of higher-priority DMA "
                "agents, from their transfer descriptors (additive per "
                "master)"
            ),
            capabilities=ModelCapabilities(
                needs_readings=False,
                needs_dma_agents=True,
                time_composable=True,
                dma_aware=True,
            ),
            fn=_dma_occupancy,
        ),
        ModelSpec(
            name="dma-rr-alignment",
            description=(
                "the same-class round-robin alignment assumption applied "
                "to DMA descriptors (each victim request delayed at most "
                "once per agent); sound for paced single-outstanding "
                "agents, under-predicts saturating or deep-queue bursts"
            ),
            capabilities=ModelCapabilities(
                needs_dma_agents=True,
                dma_aware=False,
            ),
            fn=_dma_rr_alignment,
        ),
        ModelSpec(
            name="fsb-closed-form",
            description=(
                "textbook front-side-bus bound min(n_a, n_b) * l_bus; the "
                "single-target reduction of Section 4.3"
            ),
            capabilities=ModelCapabilities(
                needs_profile=False,
                needs_scenario=False,
                min_contenders=1,
                max_contenders=1,
                needs_fsb_timing=True,
            ),
            fn=_fsb_closed_form,
        ),
        ModelSpec(
            name="fsb-ftc",
            description=(
                "fully time-composable FSB bound n_a * l_bus (every "
                "victim request delayed once on the bus)"
            ),
            capabilities=ModelCapabilities(
                needs_profile=False,
                needs_scenario=False,
                needs_fsb_timing=True,
                time_composable=True,
            ),
            fn=_fsb_ftc,
        ),
        ModelSpec(
            name="fsb-crossbar-ilp",
            description=(
                "the generic crossbar ILP instantiated on the one-target "
                "FSB scenario; provably equal to the closed form"
            ),
            capabilities=ModelCapabilities(
                needs_profile=False,
                needs_scenario=False,
                min_contenders=1,
                max_contenders=1,
                needs_fsb_timing=True,
                needs_ilp=True,
            ),
            fn=_fsb_crossbar_ilp,
        ),
    )


def _model_problem(model: object) -> str | None:
    if isinstance(model, ContentionModel):
        return None
    return (
        "expected a ContentionModel (name/description/capabilities/"
        f"bound), got {type(model).__qualname__}"
    )


@functools.cache
def default_model_registry() -> Registry[ContentionModel]:
    """The process-wide registry, created with the builtin models."""
    return Registry("model", ModelError, _model_problem, builtin_models())


def register_model(
    model: ContentionModel, *, replace: bool = False
) -> ContentionModel:
    """Register a model in the default registry."""
    return default_model_registry().register(model, replace=replace)


def temporary_models(
    *models: ContentionModel, replace: bool = False
) -> contextlib.AbstractContextManager[Registry[ContentionModel]]:
    """Scope model registrations to a ``with`` block
    (:meth:`repro.registry.Registry.temporary` on the default registry)."""
    return default_model_registry().temporary(*models, replace=replace)


def get_model(name: str) -> ContentionModel:
    """Look a model up in the default registry."""
    return default_model_registry().get(name)


def model_names() -> tuple[str, ...]:
    """Names registered in the default registry."""
    return default_model_registry().names()


def model_specs() -> tuple[ContentionModel, ...]:
    """Registered models, in registration order."""
    return default_model_registry().specs()


def counter_based_model_names() -> tuple[str, ...]:
    """Registered models a scenario run can drive, in registry order.

    Exactly the models whose declared capabilities are satisfied by
    counter measurements alone (see
    :attr:`~repro.core.model.ModelCapabilities.counter_based`); the
    default model set of the matrix and family-matrix drivers — one
    filter, shared, so the two can never accept different model sets.
    """
    return tuple(
        spec.name
        for spec in default_model_registry()
        if spec.capabilities.counter_based
    )


def require_counter_based(names: Iterable[str]) -> None:
    """Reject any named model a scenario run cannot drive.

    The one gate of :func:`~repro.engine.experiment.run_spec`, the
    model x scenario matrix and the scenario families, called before
    any of their jobs runs: a scenario run measures counter readings
    only, so each model must be counter-based.
    """
    for name in names:
        if not get_model(name).capabilities.counter_based:
            raise ModelError(
                f"model {name!r} cannot drive a scenario run: scenario "
                "runs measure counter readings only, so pick counter-based "
                f"models ({', '.join(counter_based_model_names())})"
            )


def model_bound(model: str, context: AnalysisContext) -> ContentionBound:
    """Run a registered model over a context, both addressed as data.

    This is the engine-job entry point: ``job(model_bound, name, ctx)``
    is picklable for process-mode fan-out, and the *name* participates
    in the content-addressed cache key, so sweeps over models cache per
    model.
    """
    return default_model_registry().get(model).bound(context)


__all__ = [
    "builtin_models",
    "counter_based_model_names",
    "default_model_registry",
    "get_model",
    "model_bound",
    "model_names",
    "model_specs",
    "register_model",
    "require_counter_based",
]
