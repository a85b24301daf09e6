"""Generic end-to-end execution of a registered scenario spec.

:func:`run_spec` is the engine's universal driver: given any
:class:`~repro.engine.scenario.ScenarioSpec` — two cores, the TC277's
three, or an N-core derivative — it performs the paper's full protocol:

1. measure the application and every contender in isolation;
2. bound the joint contention (single-contender ILP-PTAC for a pair, the
   multi-contender ILP otherwise) and, for comparison, the naive sum of
   pairwise bounds;
3. co-run all cores (plus any declared DMA masters) and check the
   prediction upper-bounds the observation.

Because it is a module-level function of picklable arguments, whole-spec
runs are themselves engine jobs: :func:`run_specs` fans a list of specs
out over worker processes and caches each result under the spec's content
hash.
"""

from __future__ import annotations

import dataclasses

from repro.core.model import AnalysisContext
from repro.core.registry import get_model, model_names, require_counter_based
from repro.core.wcet import contention_bound
from repro.counters.readings import TaskReadings
from repro.engine.batch import job
from repro.engine.registry import default_registry
from repro.engine.runner import ExperimentEngine, run_jobs
from repro.engine.scenario import ScenarioSpec
from repro.errors import ModelError
from repro.platform.latency import LatencyProfile, tc27x_latency_profile
from repro.sim.system import SystemSimulator


@dataclasses.dataclass(frozen=True)
class ScenarioRunResult:
    """Outcome of one spec's end-to-end run.

    Attributes:
        spec_name: the executed spec.
        base: deployment base of the spec.
        core_count: cores occupied (application included).
        isolation_cycles: application's isolation time.
        contender_names: per-core-tagged contender identifiers.
        joint_delta: joint contention bound over all core contenders.
        pairwise_deltas: single-contender bound per contender (same order
            as ``contender_names``).
        observed_cycles: application's time in the full co-run.
        dma_delta: bound on the declared DMA masters' interference (zero
            when the spec has none), computed by ``dma_model``.
        model: registered name of the pairwise contention model used.
        dma_model: registered name of the DMA-descriptor model that
            produced ``dma_delta``.
    """

    spec_name: str
    base: str
    core_count: int
    isolation_cycles: int
    contender_names: tuple[str, ...]
    joint_delta: int
    pairwise_deltas: tuple[int, ...]
    observed_cycles: int
    dma_delta: int = 0
    model: str = "ilp-ptac"
    dma_model: str = "dma-occupancy"

    @property
    def pairwise_sum_delta(self) -> int:
        return sum(self.pairwise_deltas)

    @property
    def joint_prediction(self) -> int:
        return self.isolation_cycles + self.joint_delta + self.dma_delta

    @property
    def predicted_slowdown(self) -> float:
        return self.joint_prediction / self.isolation_cycles

    @property
    def observed_slowdown(self) -> float:
        return self.observed_cycles / self.isolation_cycles

    @property
    def sound(self) -> bool:
        """Prediction upper-bounds the observation (must hold)."""
        return self.joint_prediction >= self.observed_cycles

    @property
    def joint_saving(self) -> int:
        """Cycles the joint formulation saves over the pairwise sum."""
        return self.pairwise_sum_delta - self.joint_delta


def _tagged(readings: TaskReadings, core: int) -> TaskReadings:
    """Disambiguate contender names by core (two H-Loads must not clash
    in the multi-contender ILP's per-contender variables)."""
    return dataclasses.replace(readings, name=f"{readings.name}@core{core}")


def _dma_delta(
    spec: ScenarioSpec,
    profile: LatencyProfile,
    dma_model: str,
    readings: TaskReadings,
) -> int:
    """Bound the declared DMA masters' interference with ``dma_model``.

    The default, ``"dma-occupancy"``, is the sound occupancy bound: each
    DMA transaction occupies its slave once, delaying at most one
    conflicting application request by the per-request interference
    latency ``l^{t,o}`` — ``count · l^{t,o}`` summed over agents.
    ``"dma-rr-alignment"`` instead extends the paper's same-class
    alignment assumption to the agents (each victim request delayed at
    most once per agent), which is *not* sound against saturating
    higher-priority masters — the dma-pressure scenario family uses the
    pair to demonstrate exactly where the scoping decision breaks.
    Agents addressing slaves the application cannot reach interfere with
    nothing and contribute zero under either model.
    """
    if not spec.dma:
        return 0
    context = AnalysisContext(
        profile=profile,
        scenario=spec.deployment(),
        readings=readings,
        dma_agents=spec.dma_agents(),
        task=readings.name,
    )
    return get_model(dma_model).bound(context).delta_cycles


def run_spec(
    spec: ScenarioSpec | str,
    *,
    model: str = "ilp-ptac",
    dma_model: str = "dma-occupancy",
) -> ScenarioRunResult:
    """Execute one spec end to end (measure → bound → co-run → check).

    Args:
        spec: a :class:`ScenarioSpec` or the name of a registered one.
        model: registered contention-model name used for the per-contender
            bounds; must be counter-based (its only inputs the readings a
            scenario run measures).  The joint bound follows the model's
            declared contender arity: unbounded models take all
            contenders at once, models declaring a ``joint_counterpart``
            (``ilp-ptac`` → ``ilp-ptac-multi``) delegate to it, and
            every other model sums the per-core bounds (each victim
            request waits once per co-runner core per round under
            round-robin, so per-contender bounds add).
        dma_model: registered model bounding the declared DMA masters'
            interference from their transfer descriptors (must declare
            ``needs_dma_agents``); ignored for specs without DMA.

    An ILP-backed model solves with the configuration its registration
    fixes; another :class:`~repro.core.ilp_ptac.IlpPtacOptions` is
    passed straight to :func:`~repro.core.ilp_ptac.ilp_ptac_bound` or
    :func:`~repro.core.multicontender.multi_contender_bound`.
    """
    if isinstance(spec, str):
        spec = default_registry().get(spec)
    require_counter_based((model,))
    capabilities = get_model(model).capabilities
    # The name must resolve always (fail fast on typos), but the
    # descriptor capability only matters when there is DMA to bound —
    # a DMA-less spec ignores dma_model, as documented.
    dma_capabilities = get_model(dma_model).capabilities
    if spec.dma and not dma_capabilities.needs_dma_agents:
        descriptor_models = [
            name
            for name in model_names()
            if get_model(name).capabilities.needs_dma_agents
        ]
        raise ModelError(
            f"model {dma_model!r} cannot bound DMA traffic: dma_model "
            "must consume transfer descriptors "
            f"({', '.join(descriptor_models)})"
        )
    profile = tc27x_latency_profile()
    deployment = spec.deployment()
    simulator = SystemSimulator(
        arbitration=spec.arbitration,
        priorities=spec.priority_map(),
    )

    app_program = spec.app_program()
    app = simulator.run({spec.app_core: app_program}).core(spec.app_core)
    isolation = app.readings.require_ccnt()

    contender_programs = spec.contender_programs()
    contender_readings: list[TaskReadings] = []
    for core in sorted(contender_programs):
        result = simulator.run({core: contender_programs[core]}).core(core)
        contender_readings.append(_tagged(result.readings, core))

    pairwise = tuple(
        contention_bound(
            model, app.readings, profile, deployment, contender
        ).delta_cycles
        for contender in contender_readings
    )
    if not contender_readings:
        joint = 0
    elif len(contender_readings) == 1:
        joint = pairwise[0]
    elif capabilities.max_contenders is None:
        joint = contention_bound(
            model, app.readings, profile, deployment,
            contenders=tuple(contender_readings),
        ).delta_cycles
    elif capabilities.joint_counterpart is not None:
        # The model declares its multi-contender generalisation (one
        # shared victim mapping); bound the whole set jointly with it.
        joint = contention_bound(
            capabilities.joint_counterpart, app.readings, profile,
            deployment, contenders=tuple(contender_readings),
        ).delta_cycles
    else:
        # No joint formulation: per-contender bounds are additive under
        # round-robin (one delay per co-runner core per round).
        joint = sum(pairwise)

    corun_programs = {spec.app_core: app_program, **contender_programs}
    if len(corun_programs) > 1 or spec.dma:
        observed = (
            simulator.run(corun_programs, dma_agents=spec.dma_agents())
            .core(spec.app_core)
            .readings.require_ccnt()
        )
    else:
        observed = isolation

    return ScenarioRunResult(
        spec_name=spec.name,
        base=spec.base,
        core_count=spec.core_count,
        isolation_cycles=isolation,
        contender_names=tuple(r.name for r in contender_readings),
        joint_delta=joint,
        pairwise_deltas=pairwise,
        observed_cycles=observed,
        dma_delta=_dma_delta(spec, profile, dma_model, app.readings),
        model=model,
        dma_model=dma_model,
    )


def run_specs(
    specs,
    *,
    engine: ExperimentEngine | None = None,
    model: str = "ilp-ptac",
) -> list[ScenarioRunResult]:
    """Run many specs as one engine batch (parallel-safe, cacheable).

    Args:
        specs: iterable of :class:`ScenarioSpec` objects or registered
            names (resolved eagerly so workers need no registry state).
        engine: execution engine; ``None`` runs serially.
        model: registered contention-model name; travels through each
            job as plain data, so it is picklable for process-mode
            fan-out and participates in the content-addressed cache key
            (the same spec under two models caches separately).  Specs
            with DMA take their DMA bound from ``dma-occupancy``.
    """
    resolved = [
        default_registry().get(spec) if isinstance(spec, str) else spec
        for spec in specs
    ]
    return run_jobs([spec_job(spec, model) for spec in resolved], engine)


def spec_job(
    spec: ScenarioSpec,
    model: str,
    *,
    dma_model: str = "dma-occupancy",
):
    """One :func:`run_spec` engine job.

    A scenario run is dominated by its simulations (the ILP solves are
    ~1% of the job).  Its own pairwise and joint solves share the
    running worker's batch solver pool, as does every later job that
    worker runs.
    """
    return job(
        run_spec,
        spec,
        model=model,
        dma_model=dma_model,
        label=f"run-spec:{spec.name}:{model}",
    )
