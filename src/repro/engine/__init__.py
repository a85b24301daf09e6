"""Unified experiment engine: scenarios as data, experiments as batches.

The engine layer decouples *what* an experiment is from *how* it runs:

* :mod:`repro.engine.scenario` / :mod:`repro.engine.registry` — declarative
  :class:`ScenarioSpec` deployments (any core count, any contender mix,
  optional DMA, round-robin or fixed-priority SRI arbitration)
  registered under names, so new deployments are data; specs validate
  *at construction* — ill-formed placements, workloads and DMA
  descriptors never reach a worker — and ``temporary_scenarios()``
  scopes registrations for tests and examples;
* :mod:`repro.engine.families` — declarative :class:`ScenarioFamily`
  grids expanded into many member specs (``expand_family``,
  ``register_family_members``) and batched end to end
  (``run_family``, or ``family_jobs`` for the CLI's ``--matrix``);
  the builtin dma-pressure / priority-arbitration / cacheability
  families probe the contention regimes the paper scopes out;
* :mod:`repro.engine.batch` / :mod:`repro.engine.runner` — experiments as
  batches of independent ``(scenario, workload, model)`` jobs, executed
  serially (deterministic default), fanned out over a local process
  pool (``mode="process"``), or queued on the analysis-service
  coordinator's durable queue for workers on any host
  (``mode="service"``, see :mod:`repro.service`; the envelopes they
  exchange live in :mod:`repro.engine.remote`), with results always in
  job order;
* :mod:`repro.engine.cache` — a content-addressed result cache keyed by a
  stable hash of the job inputs, so repeated sweeps and figure
  regenerations skip re-simulation; ``ResultCache(directory=...)``
  additionally persists entries to disk, making the cache survive
  across processes and CLI invocations (``--cache-dir``);
* :mod:`repro.engine.artifact` — the common :class:`ExperimentArtifact`
  record the report/export layers render;
* :mod:`repro.engine.experiment` — the generic end-to-end driver that
  turns any registered spec into measurements, bounds and a soundness
  check.

Every analysis driver in :mod:`repro.analysis` accepts an optional
``engine=`` argument; ``None`` preserves the historical serial behaviour
bit for bit.
"""

from repro.engine.artifact import ExperimentArtifact, artifact
from repro.engine.batch import Job, as_jobs, job
from repro.engine.cache import ResultCache, stable_hash
from repro.engine.experiment import ScenarioRunResult, run_spec, run_specs
from repro.engine.families import (
    FamilyMember,
    FamilyRunResult,
    ScenarioFamily,
    builtin_families,
    default_family_registry,
    expand_family,
    family_jobs,
    family_names,
    family_results,
    get_family,
    register_family,
    register_family_members,
    run_family,
    temporary_families,
)
from repro.engine.registry import (
    builtin_specs,
    default_registry,
    get_scenario,
    register_scenario,
    scenario_names,
    temporary_scenarios,
)
from repro.engine.runner import (
    EXECUTION_MODES,
    EngineStats,
    ExperimentEngine,
    run_jobs,
)
from repro.engine.scenario import DmaSpec, ScenarioSpec, WorkloadRef

__all__ = [
    "EXECUTION_MODES",
    "DmaSpec",
    "EngineStats",
    "ExperimentArtifact",
    "ExperimentEngine",
    "FamilyMember",
    "FamilyRunResult",
    "Job",
    "ResultCache",
    "ScenarioFamily",
    "ScenarioRunResult",
    "ScenarioSpec",
    "WorkloadRef",
    "artifact",
    "as_jobs",
    "builtin_families",
    "builtin_specs",
    "default_family_registry",
    "default_registry",
    "expand_family",
    "family_jobs",
    "family_names",
    "family_results",
    "get_family",
    "get_scenario",
    "job",
    "register_family",
    "register_family_members",
    "register_scenario",
    "run_family",
    "run_jobs",
    "run_spec",
    "run_specs",
    "scenario_names",
    "stable_hash",
    "temporary_families",
    "temporary_scenarios",
]
