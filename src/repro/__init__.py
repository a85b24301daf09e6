"""repro — reproduction of "Modelling Multicore Contention on the AURIX
TC27x" (Diaz, Mezzetti, Kosmidis, Abella, Cazorla — DAC 2018).

The library has five layers; each is importable on its own and the most
useful names are re-exported here for convenience:

* :mod:`repro.platform` — TC27x architecture facts: SRI targets, Table 2
  latencies, memory map, Table 3 placement rules, deployment scenarios.
* :mod:`repro.core` — the contention models as a registered,
  name-addressable family (fTC, ILP-PTAC and its time-composable /
  multi-contender variants, ideal, the priority/DMA occupancy bounds
  and the FSB reductions — ``repro models`` lists them) behind one
  ``contention_bound(name, ...)`` facade, plus WCET assembly;
  :mod:`repro.ilp` is the self-contained ILP substrate underneath.
* :mod:`repro.sim` — a cycle-level simulator of the TC27x memory system
  standing in for the paper's hardware testbed, with
  :mod:`repro.workloads` generating the evaluation tasks.
* :mod:`repro.engine` — the unified experiment engine: deployments as
  declarative, registered :class:`~repro.engine.scenario.ScenarioSpec`
  data (any core count), whole parameter grids as registered
  :class:`~repro.engine.families.ScenarioFamily` generators
  (``repro families``), experiments as batches of independent jobs
  run serially, on a local process pool or through the analysis
  service (:mod:`repro.service`, workers on any host), and a
  content-addressed result cache that lets repeated sweeps skip
  re-simulation.
* :mod:`repro.analysis` — MBTA protocol, platform characterisation and
  the drivers regenerating every table and figure of the paper
  (reference constants in :mod:`repro.paper`); every driver accepts an
  optional ``engine=`` for parallel, cached execution.

Quickstart::

    from repro import (
        TaskReadings, scenario_1, tc27x_latency_profile, wcet_estimate,
    )

    app = TaskReadings("app", pmem_stall=3_421_242, dmem_stall=8_345_056,
                       pcache_miss=236_544, ccnt=13_600_000)
    rival = TaskReadings("rival", pmem_stall=1_744_167,
                         dmem_stall=4_251_811, pcache_miss=120_594)
    estimate = wcet_estimate(
        "ilp-ptac", app, tc27x_latency_profile(), scenario_1(), rival,
    )
    print(estimate.describe())   # isolation + Δcont, 1.49x

Registering and running a new deployment scenario::

    from repro import ScenarioSpec, WorkloadRef, register_scenario, run_spec

    register_scenario(ScenarioSpec(
        name="my-quad",
        base="scenario2",
        app=WorkloadRef.control_loop(scale=1 / 32),
        contenders=(
            (0, WorkloadRef.load("H", scale=1 / 32)),
            (2, WorkloadRef.load("M", scale=1 / 32)),
            (3, WorkloadRef.load("L", scale=1 / 32)),
        ),
    ))
    print(run_spec("my-quad").sound)   # measured, bounded, co-run: True
"""

from repro.core import (
    AccessProfile,
    AnalysisContext,
    ContentionBound,
    ContentionModel,
    IlpPtacOptions,
    ModelCapabilities,
    ModelSpec,
    WcetEstimate,
    access_count_bounds,
    contention_bound,
    ftc_baseline,
    ftc_refined,
    get_model,
    ideal_bound,
    ilp_ptac_bound,
    model_names,
    multi_contender_bound,
    register_model,
    temporary_models,
    wcet_estimate,
)
from repro.counters import DebugCounter, TaskReadings
from repro.engine import (
    DmaSpec,
    ExperimentEngine,
    ResultCache,
    ScenarioFamily,
    ScenarioSpec,
    WorkloadRef,
    expand_family,
    register_family,
    register_scenario,
    run_family,
    run_spec,
    temporary_families,
    temporary_scenarios,
)
from repro.errors import ReproError
from repro.platform import (
    DeploymentScenario,
    LatencyProfile,
    Operation,
    Target,
    architectural_scenario,
    custom_scenario,
    scenario_1,
    scenario_2,
    tc277,
    tc27x_latency_profile,
)

__version__ = "1.0.0"

__all__ = [
    "AccessProfile",
    "AnalysisContext",
    "ContentionBound",
    "ContentionModel",
    "DebugCounter",
    "DeploymentScenario",
    "ExperimentEngine",
    "IlpPtacOptions",
    "LatencyProfile",
    "ModelCapabilities",
    "ModelSpec",
    "Operation",
    "DmaSpec",
    "ReproError",
    "ResultCache",
    "ScenarioFamily",
    "ScenarioSpec",
    "Target",
    "TaskReadings",
    "WcetEstimate",
    "WorkloadRef",
    "__version__",
    "access_count_bounds",
    "architectural_scenario",
    "contention_bound",
    "custom_scenario",
    "expand_family",
    "ftc_baseline",
    "ftc_refined",
    "get_model",
    "ideal_bound",
    "ilp_ptac_bound",
    "model_names",
    "multi_contender_bound",
    "register_family",
    "register_model",
    "register_scenario",
    "run_family",
    "run_spec",
    "scenario_1",
    "scenario_2",
    "tc277",
    "tc27x_latency_profile",
    "temporary_families",
    "temporary_models",
    "temporary_scenarios",
    "wcet_estimate",
]
