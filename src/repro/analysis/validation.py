"""Soundness validation: model predictions vs. observed co-runs.

The paper's empirical soundness statement — "In all experiments our model
predictions upperbound the observed multicore execution time" — is the
one property a contention model must never violate.  This module sweeps
randomized task pairs through the full pipeline (isolation measurement →
model bound → co-run observation) and reports any violation, serving both
the property-test suite and the A4 benchmark.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.analysis.mbta import measure_isolation, observe_corun
from repro.core.results import WcetEstimate
from repro.core.wcet import contention_bound
from repro.engine.batch import job
from repro.engine.runner import ExperimentEngine, run_jobs
from repro.platform.deployment import DeploymentScenario
from repro.platform.latency import tc27x_latency_profile
from repro.sim.program import TaskProgram
from repro.workloads.synthetic import random_task_pair

#: Models every soundness case runs by default (counter-based family).
DEFAULT_SOUNDNESS_MODELS: tuple[str, ...] = (
    "ftc-baseline",
    "ftc-refined",
    "ilp-ptac",
)


@dataclasses.dataclass(frozen=True)
class SoundnessCase:
    """One task pair's soundness outcome across all models.

    Attributes:
        name: case identifier (seed or workload name).
        isolation_cycles: τa's isolation time.
        observed_cycles: τa's co-run time.
        predictions: model name → predicted WCET cycles.
        violations: model names whose prediction fell below the
            observation (must be empty).
    """

    name: str
    isolation_cycles: int
    observed_cycles: int
    predictions: dict[str, int]
    violations: tuple[str, ...]

    @property
    def sound(self) -> bool:
        return not self.violations

    @property
    def observed_slowdown(self) -> float:
        return self.observed_cycles / self.isolation_cycles

    def tightness(self, model: str) -> float:
        """Prediction over observation (1.0 = perfectly tight)."""
        return self.predictions[model] / self.observed_cycles


def check_soundness(
    task: TaskProgram,
    contender: TaskProgram,
    scenario: DeploymentScenario,
    *,
    models: Sequence[str] = DEFAULT_SOUNDNESS_MODELS,
    name: str = "",
) -> SoundnessCase:
    """Full pipeline soundness check for one (τa, τb) pair.

    Measures both tasks in isolation, computes every requested
    registered model's bound from the measured counters, co-runs the
    pair, and compares predictions against the observation.
    """
    profile = tc27x_latency_profile()
    measurement_a = measure_isolation(task)
    measurement_b = measure_isolation(contender, core=2)

    bounds = {
        model: contention_bound(
            model,
            measurement_a.readings,
            profile,
            scenario,
            measurement_b.readings,
        )
        for model in models
    }
    predictions = {
        model: WcetEstimate(measurement_a.hwm_cycles, bound).wcet_cycles
        for model, bound in bounds.items()
    }

    observation = observe_corun(task, {2: contender}, measurement_a.hwm_cycles)
    violations = tuple(
        model
        for model, predicted in predictions.items()
        if predicted < observation.observed_cycles
    )
    return SoundnessCase(
        name=name or task.name,
        isolation_cycles=measurement_a.hwm_cycles,
        observed_cycles=observation.observed_cycles,
        predictions=predictions,
        violations=violations,
    )


@dataclasses.dataclass(frozen=True)
class SoundnessSweep:
    """Aggregated outcome of a randomized soundness sweep."""

    cases: tuple[SoundnessCase, ...]

    @property
    def all_sound(self) -> bool:
        return all(case.sound for case in self.cases)

    @property
    def violations(self) -> list[tuple[str, str]]:
        """(case, model) pairs that violated soundness (must be empty)."""
        return [
            (case.name, model)
            for case in self.cases
            for model in case.violations
        ]

    def mean_tightness(self, model: str) -> float:
        """Average prediction/observation ratio of one model."""
        values = [case.tightness(model) for case in self.cases]
        return sum(values) / len(values)


def soundness_sweep(
    pairs: Sequence[tuple[TaskProgram, TaskProgram]],
    scenario: DeploymentScenario,
    *,
    models: Sequence[str] = DEFAULT_SOUNDNESS_MODELS,
    engine: ExperimentEngine | None = None,
) -> SoundnessSweep:
    """Run :func:`check_soundness` over many task pairs.

    Each pair is one engine job.  Note task programs carry closures, so
    a process-mode engine transparently demotes these jobs to in-process
    execution; for fully parallel sweeps generate the pairs inside the
    job via :func:`random_soundness_jobs`.
    """
    cases = run_jobs(
        [
            job(
                check_soundness,
                task,
                contender,
                scenario,
                models=tuple(models),
                name=f"{task.name} vs {contender.name}",
                label=f"soundness:{task.name} vs {contender.name}",
                cacheable=False,
            )
            for task, contender in pairs
        ],
        engine,
    )
    return SoundnessSweep(cases=tuple(cases))


def _random_soundness_case(
    scenario: DeploymentScenario,
    seed: int,
    max_requests: int,
    models: tuple[str, ...],
) -> SoundnessCase:
    """Job: one seeded pair through the full soundness pipeline."""
    task, contender = random_task_pair(
        scenario, seed=seed, max_requests=max_requests
    )
    return check_soundness(
        task,
        contender,
        scenario,
        models=models,
        name=f"{task.name} vs {contender.name}",
    )


def random_soundness_jobs(
    scenario: DeploymentScenario,
    *,
    pairs: int,
    max_requests: int = 2_000,
    models: Sequence[str] = DEFAULT_SOUNDNESS_MODELS,
) -> list:
    """The seeded randomized soundness sweep as one job batch.

    Equivalent to :func:`soundness_sweep` over
    ``random_task_pair(scenario, seed=s)`` for ``s in range(pairs)``,
    but each job builds its pair itself, so every job is plain picklable
    data — the model *names* included — runnable by the local engine or
    the analysis-service queue and cached per model set.
    ``SoundnessSweep(tuple(run_jobs(jobs, engine)))`` is the sweep, as
    ``repro soundness`` runs it.
    """
    return [
        job(
            _random_soundness_case,
            scenario,
            seed,
            max_requests,
            tuple(models),
            label=f"soundness:{scenario.name}:seed={seed}",
        )
        for seed in range(pairs)
    ]
