"""The experiment layer runs one platform: the TC27x.

Interference bounds are platform-specific, so a platform is varied where
its constants are consumed — ``SystemSimulator(timing)``,
``characterize(timing=)``, ``isolation_cycles(program, timing)`` and the
model API's ``profile`` — never through the experiment functions, jobs
and workload constructors above them, whose arguments also feed every
job's cache key.  The same holds for the ILP configuration: a registered
model name fixes it, or an ``IlpPtacOptions`` goes straight to the
ILP-PTAC functions.
"""

from __future__ import annotations

import inspect

from repro.analysis import (
    alignment,
    enforcement,
    experiments,
    mbta,
    sweeps,
    three_core,
    validation,
)
from repro.analysis.characterization import characterize
from repro.core import ilp_ptac, multicontender, wcet
from repro.core.model import AnalysisContext
from repro.engine import experiment, families
from repro.ilp import simplex
from repro.ilp.batch import BatchSolver
from repro.ilp.model import IlpModel
from repro.sim import system
from repro.sim.system import SystemSimulator
from repro.workloads import control_loop, loads
from repro.workloads.footprint import isolation_cycles

#: Entry points that resolve the platform themselves.
ONE_PLATFORM = (
    experiments.figure4_paper_jobs,
    experiments.figure4_paper_mode,
    experiments._paper_model_row,
    experiments._sim_model_row,
    experiments.simulate_scenario,
    experiments._corun_observations,
    experiments._simulate_datasets,
    experiments.figure4_sim_mode,
    experiments.model_scenario_matrix,
    experiments.model_scenario_matrix_jobs,
    validation.check_soundness,
    validation.soundness_sweep,
    validation.random_soundness_jobs,
    validation.random_soundness_sweep,
    validation._random_soundness_case,
    sweeps.contender_scale_sweep,
    sweeps.deployment_sweep,
    sweeps.dirty_latency_sensitivity,
    sweeps._ilp_delta,
    three_core.three_core_experiment,
    enforcement.throttle_sweep,
    alignment.alignment_sweep,
    mbta.measure_isolation,
    mbta.observe_corun,
    experiment.run_spec,
    experiment.run_specs,
    experiment.spec_job,
    families.family_jobs,
    families.run_family,
    families.family_matrix,
    control_loop.build_control_loop,
    system.run_isolation,
    system.run_corun,
)

#: Constants that are not parameters: (function, parameter that is gone).
FIXED = (
    (IlpModel.solve, "verify"),
    (BatchSolver.solve, "verify"),
    (simplex.solve_lp, "max_iterations"),
    (simplex.warm_solve_insert_row, "max_iterations"),
    (simplex.warm_solve_shift_rhs, "max_iterations"),
    (simplex.warm_solve_rhs, "max_iterations"),
    (control_loop.build_control_loop, "chunks"),
    (loads.build_load, "chunks"),
)


def _parameters(fn) -> set[str]:
    return set(inspect.signature(fn).parameters)


def test_platform_knobs_live_where_the_constants_are_consumed():
    assert len(ONE_PLATFORM) == 33
    knobs = [
        f"{fn.__module__}.{fn.__qualname__}({name})"
        for fn in ONE_PLATFORM
        for name in sorted(_parameters(fn) & {"timing", "profile"})
    ]
    knobs += [
        f"{fn.__module__}.{fn.__qualname__}({name})"
        for fn, name in FIXED
        if name in _parameters(fn)
    ]
    assert not knobs, knobs
    for consumer in (SystemSimulator, characterize, isolation_cycles):
        assert "timing" in _parameters(consumer), consumer


#: Drivers, jobs and facade functions that run registered models' fixed
#: ILP configurations.
FIXED_ILP = (
    experiments.figure4_paper_jobs,
    experiments.figure4_paper_mode,
    experiments._paper_model_row,
    experiments._sim_model_row,
    experiments.figure4_sim_mode,
    experiments.information_ablation,
    experiments._ablation_scenario_rows,
    experiments.model_scenario_matrix,
    experiments.model_scenario_matrix_jobs,
    sweeps.contender_scale_sweep,
    sweeps.deployment_sweep,
    sweeps.dirty_latency_sensitivity,
    sweeps._ilp_delta,
    three_core.three_core_experiment,
    enforcement.throttle_sweep,
    experiment.run_spec,
    experiment.run_specs,
    experiment.spec_job,
    families.family_jobs,
    families.run_family,
    families.family_matrix,
    wcet.contention_bound,
    wcet.wcet_estimate,
    AnalysisContext,
)


def test_ilp_options_live_on_the_ilp_functions():
    assert len(FIXED_ILP) == 24
    knobs = [
        f"{fn.__module__}.{fn.__qualname__}"
        for fn in FIXED_ILP
        if "options" in _parameters(fn)
    ]
    assert not knobs, knobs
    for consumer in (
        ilp_ptac.ilp_ptac_bound,
        ilp_ptac.build_ilp_ptac,
        multicontender.multi_contender_bound,
        ilp_ptac.solve_contention_ilp,
    ):
        assert "options" in _parameters(consumer), consumer
