"""Experiment drivers regenerating the paper's evaluation artefacts.

Two operating modes per experiment, matching DESIGN.md:

* **paper-counters mode** — feed the *published* Table 6 readings (plus
  the derived M/L scalings and isolation times) through our model
  implementations.  This isolates the model arithmetic: the resulting
  Figure 4 ratios must match the paper to ±0.02.
* **simulation mode** — generate the workloads, measure them on the
  bundled simulator (counters *and* isolation times), run the models on
  the measured readings, and additionally co-run the tasks to check that
  every prediction upper-bounds the observed multicore time (the paper's
  soundness statement).

Every driver expresses its work as a batch of independent engine jobs
(one per scenario/workload/model combination) and accepts an optional
``engine=`` argument: ``None`` runs serially, exactly as before; an
:class:`~repro.engine.runner.ExperimentEngine` adds parallel fan-out and
content-addressed result caching (a cached simulation is never re-run,
whichever driver asked for it first).  Output is identical in every mode.

Models are addressed by *registry name* throughout (see
:mod:`repro.core.registry`): the ``models=`` arguments accept any
registered contention model, and the names travel through engine jobs as
plain data, so model choice is picklable for process-mode fan-out and
participates in each job's content-addressed cache key.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro import paper
from repro.analysis.mbta import CorunObservation, observe_corun
from repro.core.ptac import AccessProfile
# counter_based_model_names is re-exported: the matrix driver is its
# historical home, and the family matrix shares the same filter.
from repro.core.registry import (
    counter_based_model_names,
    get_model,
    require_counter_based,
)
from repro.core.results import WcetEstimate
from repro.core.wcet import contention_bound
from repro.counters.readings import TaskReadings
from repro.engine.batch import job
from repro.engine.experiment import ScenarioRunResult, spec_job
from repro.engine.registry import default_registry
from repro.engine.runner import ExperimentEngine, run_jobs
from repro.engine.scenario import ScenarioSpec
from repro.errors import ModelError
from repro.platform.deployment import DeploymentScenario, named_scenarios
from repro.platform.latency import tc27x_latency_profile
from repro.sim.system import run_isolation
from repro.workloads.control_loop import build_control_loop
from repro.workloads.loads import LOAD_LEVELS, build_load

SCENARIOS: tuple[str, ...] = ("scenario1", "scenario2")

#: The two bars Figure 4 plots per scenario/load.
DEFAULT_FIGURE4_MODELS: tuple[str, ...] = ("ftc-refined", "ilp-ptac")

#: The information-degree ladder of experiment A1.
DEFAULT_ABLATION_MODELS: tuple[str, ...] = (
    "ftc-baseline",
    "ftc-refined",
    "ilp-ptac",
    "ideal",
)


def _model_loads(model: str) -> tuple[str, ...]:
    """The contender loads a model produces bars for.

    Contender-blind models yield one bar per scenario (load ``"-"``);
    contender-aware models yield one bar per load level.
    """
    if get_model(model).capabilities.uses_contender_information:
        return LOAD_LEVELS
    return ("-",)


def reference_scenario(name: str) -> DeploymentScenario:
    """Resolve one of the paper's two reference scenarios by name.

    The shared validator of every driver that takes a scenario *name*
    (Figure 4, Table 6, ablation, three-core): only the evaluated
    deployments are accepted, with a :class:`ModelError` otherwise.
    """
    if name not in SCENARIOS:
        raise ModelError(f"unknown scenario {name!r}")
    return named_scenarios()[name]


@dataclasses.dataclass(frozen=True)
class Figure4Row:
    """One bar of Figure 4.

    Attributes:
        scenario: ``"scenario1"`` / ``"scenario2"``.
        load: contender level (``"H"``/``"M"``/``"L"``); fTC bars ignore
            the contender, so their load is ``"-"``.
        model: model identifier.
        delta_cycles: the contention bound.
        slowdown: prediction normalised by the isolation time (the y-axis).
        paper_value: the published ratio, when the paper reports one.
        observed_slowdown: measured co-run slowdown (simulation mode only).
    """

    scenario: str
    load: str
    model: str
    delta_cycles: int
    slowdown: float
    paper_value: float | None = None
    observed_slowdown: float | None = None

    @property
    def sound(self) -> bool | None:
        """Prediction ≥ observation (None when nothing was observed)."""
        if self.observed_slowdown is None:
            return None
        return self.slowdown >= self.observed_slowdown


# ----------------------------------------------------------------------
# Paper-counters mode
# ----------------------------------------------------------------------
def _figure4_reference(
    scenario_name: str, model: str, load: str
) -> float | None:
    """The published Figure 4 ratio for a bar, when the paper reports one."""
    published = paper.FIGURE4[scenario_name]
    if model == "ftc-refined":
        return published.ftc
    if model == "ilp-ptac":
        return published.ilp.get(load)
    return None


def _paper_model_row(
    scenario_name: str,
    load: str,
    model: str,
) -> Figure4Row:
    """Job: one Figure 4 bar (scenario × model × load, published readings)."""
    scenario = reference_scenario(scenario_name)
    readings_a = paper.table6(scenario_name, "app")
    readings_b = (
        paper.contender_readings(scenario_name, load) if load != "-" else None
    )
    isolation = paper.ISOLATION_CYCLES[scenario_name]
    bound = contention_bound(
        model, readings_a, tc27x_latency_profile(), scenario, readings_b
    )
    return Figure4Row(
        scenario=scenario_name,
        load=load,
        model=bound.model,
        delta_cycles=bound.delta_cycles,
        slowdown=WcetEstimate(isolation, bound).slowdown,
        paper_value=_figure4_reference(scenario_name, model, load),
    )


def figure4_paper_jobs(
    *,
    models: Sequence[str] = DEFAULT_FIGURE4_MODELS,
) -> list:
    """The job batch behind paper-counters Figure 4.

    One engine job per bar, ready for :func:`run_jobs` — or for the
    analysis service: ``repro submit figure4`` queues the same batch on
    a coordinator, and ``repro watch`` renders the identical figure
    from the collected results.
    """
    jobs = []
    for scenario_name in SCENARIOS:
        for model in models:
            for load in _model_loads(model):
                jobs.append(
                    job(
                        _paper_model_row,
                        scenario_name,
                        load,
                        model,
                        label=(
                            f"figure4-paper:{scenario_name}:{model}:{load}"
                        ),
                    )
                )
    return jobs


def figure4_paper_mode(
    *,
    models: Sequence[str] = DEFAULT_FIGURE4_MODELS,
    engine: ExperimentEngine | None = None,
) -> list[Figure4Row]:
    """Figure 4 from the published Table 6 readings.

    Returns one row per bar: contender-blind models once per scenario,
    contender-aware models once per (scenario, load level).  ``models``
    accepts any registered counter-based model names.
    """
    return run_jobs(figure4_paper_jobs(models=models), engine)


# ----------------------------------------------------------------------
# Simulation mode
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ScenarioSimData:
    """Measured inputs of one scenario in simulation mode.

    The counter readings are what the models see; the ground-truth
    access profiles feed only the ``ideal`` rung of the ablation ladder.
    ``corun_observations`` stays empty until :func:`_simulate_datasets`
    adds the co-run stage.
    """

    scenario: DeploymentScenario
    app_readings: TaskReadings
    app_profile: AccessProfile
    app_isolation_cycles: int
    load_readings: Mapping[str, TaskReadings]
    load_profiles: Mapping[str, AccessProfile]
    corun_observations: Mapping[str, CorunObservation]


def simulate_scenario(
    scenario_name: str,
    *,
    scale: float = 1 / 16,
) -> ScenarioSimData:
    """Measure the application and the loads in isolation on the simulator.

    This is the expensive half of simulation mode and an engine job in
    its own right: Table 6, Figure 4 and the ablation schedule it once
    per scenario and a caching engine reuses the measurement across
    artefacts and sweeps.  The co-runs are a separate job
    (:func:`_corun_observations`), so Table 6 and the ablation never pay
    for them.

    Args:
        scenario_name: which reference scenario to reproduce.
        scale: workload scale relative to the paper's full-size run.
    """
    scenario = reference_scenario(scenario_name)
    app_program, _ = build_control_loop(scenario, scale=scale)
    app = run_isolation(app_program)
    loads = {
        load: run_isolation(
            build_load(scenario_name, load, scale=scale), core=2
        )
        for load in LOAD_LEVELS
    }
    return ScenarioSimData(
        scenario=scenario,
        app_readings=app.readings,
        app_profile=app.profile,
        app_isolation_cycles=app.readings.require_ccnt(),
        load_readings={load: r.readings for load, r in loads.items()},
        load_profiles={load: r.profile for load, r in loads.items()},
        corun_observations={},
    )


def _sim_model_row(
    scenario_name: str,
    load: str,
    model: str,
    data: ScenarioSimData,
) -> Figure4Row:
    """Job: one Figure 4 bar (scenario × model × load, measured counters)."""
    readings_b = data.load_readings[load] if load != "-" else None
    bound = contention_bound(
        model, data.app_readings, tc27x_latency_profile(), data.scenario,
        readings_b,
    )
    if load == "-":
        # Contender-blind bars must cover the worst co-run of any load.
        observed = max(
            (
                observation.slowdown
                for observation in data.corun_observations.values()
            ),
            default=None,
        )
    else:
        observation = data.corun_observations.get(load)
        observed = observation.slowdown if observation else None
    return Figure4Row(
        scenario=scenario_name,
        load=load,
        model=bound.model,
        delta_cycles=bound.delta_cycles,
        slowdown=WcetEstimate(data.app_isolation_cycles, bound).slowdown,
        paper_value=_figure4_reference(scenario_name, model, load),
        observed_slowdown=observed,
    )


def _corun_observations(
    scenario_name: str,
    scale: float,
    isolation_cycles: int,
) -> dict[str, CorunObservation]:
    """Job: co-run the application against each load level.

    Split from the isolation measurements so the two stages cache
    independently: Table 6 needs only the measurements, Figure 4 needs
    both, and with a shared engine neither re-simulates the other's part.
    """
    scenario = reference_scenario(scenario_name)
    app_program, _ = build_control_loop(scenario, scale=scale)
    coruns: dict[str, CorunObservation] = {}
    for load in LOAD_LEVELS:
        load_program = build_load(scenario_name, load, scale=scale)
        coruns[load] = observe_corun(
            app_program, {2: load_program}, isolation_cycles
        )
    return coruns


def _simulate_datasets(
    scale: float,
    engine: ExperimentEngine | None,
    *,
    with_coruns: bool = False,
) -> list[ScenarioSimData]:
    """Measure both scenarios, in two independently-cached job stages:
    the isolation measurements, then (``with_coruns``) the co-runs."""
    datasets = run_jobs(
        [
            job(
                simulate_scenario,
                scenario_name,
                scale=scale,
                label=f"simulate:{scenario_name}:scale={scale:g}",
            )
            for scenario_name in SCENARIOS
        ],
        engine,
    )
    if not with_coruns:
        return datasets
    corun_maps = run_jobs(
        [
            job(
                _corun_observations,
                scenario_name,
                scale,
                data.app_isolation_cycles,
                label=f"corun:{scenario_name}:scale={scale:g}",
            )
            for scenario_name, data in zip(SCENARIOS, datasets)
        ],
        engine,
    )
    return [
        dataclasses.replace(data, corun_observations=coruns)
        for data, coruns in zip(datasets, corun_maps)
    ]


def figure4_sim_mode(
    *,
    models: Sequence[str] = DEFAULT_FIGURE4_MODELS,
    scale: float = 1 / 16,
    engine: ExperimentEngine | None = None,
) -> list[Figure4Row]:
    """Figure 4 end-to-end on the simulator (counters measured, models
    applied, predictions validated against observed co-runs).

    Two engine phases: the per-scenario isolation measurements and
    co-runs run first (parallel across scenarios; the measurement is the
    one Table 6 and the ablation use, so a caching engine shares it),
    then one model job per bar (any registered counter-based model via
    ``models=``).
    """
    datasets = _simulate_datasets(scale, engine, with_coruns=True)
    model_jobs = []
    for scenario_name, data in zip(SCENARIOS, datasets):
        for model in models:
            for load in _model_loads(model):
                model_jobs.append(
                    job(
                        _sim_model_row,
                        scenario_name,
                        load,
                        model,
                        data,
                        label=f"figure4-sim:{scenario_name}:{model}:{load}",
                    )
                )
    return run_jobs(model_jobs, engine)


# ----------------------------------------------------------------------
# Table 6 (simulation mode) and the information-degree ablation
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Table6Row:
    """One Table 6 row: simulated counters next to the (scaled) paper's."""

    scenario: str
    core: str
    task: str
    simulated: TaskReadings
    reference: TaskReadings


def table6_sim_mode(
    *,
    scale: float = 1 / 16,
    engine: ExperimentEngine | None = None,
) -> list[Table6Row]:
    """Regenerate Table 6 on the simulator and pair it with the paper's
    readings scaled by the same factor (shape comparison)."""
    datasets = _simulate_datasets(scale, engine)
    rows: list[Table6Row] = []
    for scenario_name, data in zip(SCENARIOS, datasets):
        rows.append(
            Table6Row(
                scenario=scenario_name,
                core="Core1",
                task="app",
                simulated=data.app_readings,
                reference=paper.table6(scenario_name, "app").scaled(scale),
            )
        )
        rows.append(
            Table6Row(
                scenario=scenario_name,
                core="Core2",
                task="H-Load",
                simulated=data.load_readings["H"],
                reference=paper.table6(scenario_name, "H-Load").scaled(scale),
            )
        )
    return rows


@dataclasses.dataclass(frozen=True)
class AblationRow:
    """One bound in the information-degree ablation (A1)."""

    scenario: str
    load: str
    model: str
    delta_cycles: int
    slowdown: float


def _ablation_scenario_rows(
    scenario_name: str,
    data: ScenarioSimData,
    models: tuple[str, ...],
) -> list[AblationRow]:
    """Job: the full information ladder of one scenario.

    Contender-blind models run once per scenario; contender-aware ones
    once per load level.  Every model runs over the *same* context
    superset (measured counters plus ground-truth access profiles), so
    the ladder is a pure information-degree comparison.
    """
    profile = tc27x_latency_profile()
    isolation = data.app_isolation_cycles
    blind = [m for m in models if "-" in _model_loads(m)]
    aware = [m for m in models if "-" not in _model_loads(m)]

    rows: list[AblationRow] = []

    def append(model: str, load: str, readings_b, profile_b) -> None:
        bound = contention_bound(
            model,
            data.app_readings,
            profile,
            data.scenario,
            readings_b,
            access_profile_a=data.app_profile,
            access_profile_b=profile_b,
        )
        rows.append(
            AblationRow(
                scenario=scenario_name,
                load=load,
                model=bound.model,
                delta_cycles=bound.delta_cycles,
                slowdown=WcetEstimate(isolation, bound).slowdown,
            )
        )

    for model in blind:
        append(model, "-", None, None)
    for load in LOAD_LEVELS:
        for model in aware:
            append(
                model, load, data.load_readings[load], data.load_profiles[load]
            )
    return rows


# ----------------------------------------------------------------------
# The model × scenario matrix (every counter-based model, every spec)
# ----------------------------------------------------------------------


def model_scenario_matrix(
    *,
    models: Sequence[str] | None = None,
    specs: Sequence[ScenarioSpec | str] | None = None,
    engine: ExperimentEngine | None = None,
) -> list[ScenarioRunResult]:
    """Run every model over every scenario spec — the full matrix.

    The two registries composed: by default every counter-based
    contention model (:func:`counter_based_model_names`) is run end to
    end over every registered deployment spec, one engine job per
    (spec, model) cell.  Rows come back spec-major in registration
    order — ``repro matrix`` renders them grouped per spec, so the
    models' joint bounds line up for comparison.

    Cell jobs fan out one per (spec, model); each cell's pairwise and
    joint ILPs share its worker's warm-start pool.  A model name fixes
    its ILP configuration, so with a caching engine the matrix is also
    incremental: cells are content-addressed by (spec, model), and
    repeated invocations only compute what changed.

    Args:
        models: registered model names (must be counter-based; defaults
            to all of them).
        specs: scenario specs or registered names (defaults to every
            registered spec).
        engine: optional execution engine (parallel cells, caching).
    """
    return run_jobs(
        model_scenario_matrix_jobs(models=models, specs=specs), engine
    )


def model_scenario_matrix_jobs(
    *,
    models: Sequence[str] | None = None,
    specs: Sequence[ScenarioSpec | str] | None = None,
) -> list:
    """The job batch behind :func:`model_scenario_matrix`.

    One cell job per (spec, model), spec-major in registration order —
    the same batch whether the engine runs it directly or the analysis
    service queues it on a coordinator.
    """
    model_names = (
        tuple(models) if models is not None else counter_based_model_names()
    )
    require_counter_based(model_names)
    registry = default_registry()
    resolved = [
        registry.get(spec) if isinstance(spec, str) else spec
        for spec in (specs if specs is not None else registry.specs())
    ]
    return [
        spec_job(spec, model)
        for spec in resolved
        for model in model_names
    ]


def information_ablation(
    *,
    models: Sequence[str] = DEFAULT_ABLATION_MODELS,
    scale: float = 1 / 32,
    engine: ExperimentEngine | None = None,
) -> list[AblationRow]:
    """Quantify what each level of information buys (experiment A1).

    By default runs the four-step ladder on identical simulator-measured
    inputs: ``ftc-baseline`` (no deployment knowledge), ``ftc-refined``
    (deployment knowledge about τa), ``ilp-ptac`` (+ contender counters)
    and ``ideal`` (ground-truth PTACs, unobtainable on real hardware).
    Any registered model name can join the ladder via ``models=``.

    Two engine phases: the ladder of each scenario is one job over the
    isolation measurement Table 6 and Figure 4 use, so with a caching
    engine the three artefacts simulate each scenario once between them.
    """
    for model in models:
        get_model(model)  # fail fast on unknown names, before any job
    datasets = _simulate_datasets(scale, engine)
    row_lists = run_jobs(
        [
            job(
                _ablation_scenario_rows,
                scenario_name,
                data,
                tuple(models),
                label=f"ablation:{scenario_name}",
            )
            for scenario_name, data in zip(SCENARIOS, datasets)
        ],
        engine,
    )
    return [row for rows in row_lists for row in rows]
