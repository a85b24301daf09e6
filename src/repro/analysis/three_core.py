"""Three-core evaluation: the full TC277 under joint contention.

The paper evaluates pairs (application on core 1, one contender on
core 2) and notes the model extends to more contenders.  The TC277 has
three cores, so the realistic integration question is: application plus
*two* co-runners.  Each load pairing is one
:class:`~repro.engine.scenario.ScenarioSpec` — the control loop on
core 1, the first load on core 0, the second on core 2 — run end to end
by :func:`repro.engine.experiment.run_spec`: measure every task alone,
bound the joint contention with ``ilp-ptac``'s joint counterpart (the
multi-contender ILP ``ilp-ptac-multi``) next to the sum of the pairwise
``ilp-ptac`` bounds, then co-run all three cores to check the bound.

This module only builds one spec job per pairing and reshapes each
:class:`~repro.engine.experiment.ScenarioRunResult` into a
:class:`ThreeCoreRow`; for any other layout, register a spec and call
``run_spec`` directly.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.analysis.experiments import reference_scenario
from repro.engine.batch import job
from repro.engine.experiment import run_spec
from repro.engine.runner import ExperimentEngine, run_jobs
from repro.engine.scenario import ScenarioSpec, WorkloadRef


@dataclasses.dataclass(frozen=True)
class ThreeCoreRow:
    """Outcome of one three-core configuration.

    Attributes:
        scenario: deployment scenario name.
        loads: the two contender levels (e.g. ``("H", "L")``).
        isolation_cycles: application's isolation time.
        joint_delta: multi-contender ILP bound.
        pairwise_sum_delta: sum of the two single-contender bounds.
        observed_cycles: application's time in the three-core co-run.
    """

    scenario: str
    loads: tuple[str, str]
    isolation_cycles: int
    joint_delta: int
    pairwise_sum_delta: int
    observed_cycles: int

    @property
    def joint_prediction(self) -> int:
        return self.isolation_cycles + self.joint_delta

    @property
    def pairwise_prediction(self) -> int:
        return self.isolation_cycles + self.pairwise_sum_delta

    @property
    def observed_slowdown(self) -> float:
        return self.observed_cycles / self.isolation_cycles

    @property
    def sound(self) -> bool:
        return self.joint_prediction >= self.observed_cycles

    @property
    def joint_saving(self) -> int:
        """Cycles the joint formulation saves over the pairwise sum."""
        return self.pairwise_sum_delta - self.joint_delta


def _pairing_spec(
    scenario_name: str, first: str, second: str, scale: float
) -> ScenarioSpec:
    """The TC277 layout of one pairing: the control loop on core 1,
    ``first`` on core 0 and ``second`` on core 2."""
    return ScenarioSpec(
        name=f"{scenario_name}-3core-{first}+{second}",
        base=scenario_name,
        app=WorkloadRef.control_loop(scale=scale),
        contenders=(
            (0, WorkloadRef.load(first, scale=scale)),
            (2, WorkloadRef.load(second, scale=scale)),
        ),
    )


def three_core_experiment(
    scenario_name: str,
    load_pairs: Sequence[tuple[str, str]] = (("H", "L"), ("M", "M"), ("H", "H")),
    *,
    scale: float = 1 / 32,
    engine: ExperimentEngine | None = None,
) -> list[ThreeCoreRow]:
    """Run the three-core evaluation for several contender pairings.

    The bounds are the paper's ILP configuration, fixed by the model
    names ``ilp-ptac`` and ``ilp-ptac-multi``.

    Args:
        scenario_name: ``"scenario1"`` or ``"scenario2"``.
        load_pairs: contender levels for cores 0 and 2.
        scale: workload scale of the application (the Table 6 control
            loop) and both loads.
        engine: optional execution engine (one ``run_spec`` job per
            pairing, so pairings run in parallel and cache as specs).
    """
    reference_scenario(scenario_name)  # validate the name before any work
    results = run_jobs(
        [
            job(
                run_spec,
                _pairing_spec(scenario_name, first, second, scale),
                model="ilp-ptac",
                label=f"three-core:{scenario_name}:{first}+{second}",
            )
            for first, second in load_pairs
        ],
        engine,
    )
    return [
        ThreeCoreRow(
            scenario=scenario_name,
            loads=(first, second),
            isolation_cycles=result.isolation_cycles,
            joint_delta=result.joint_delta,
            pairwise_sum_delta=result.pairwise_sum_delta,
            observed_cycles=result.observed_cycles,
        )
        for (first, second), result in zip(load_pairs, results)
    ]
