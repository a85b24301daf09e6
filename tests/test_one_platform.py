"""The experiment layer runs one platform: the TC27x.

Interference bounds are platform-specific, so a platform is varied where
its constants are consumed — ``SystemSimulator(timing)``,
``characterize(timing=)``, ``isolation_cycles(program, timing)`` and the
model API's ``profile`` — never through the experiment functions, jobs
and workload constructors above them, whose arguments also feed every
job's cache key.  The same holds for the ILP configuration: a registered
model name fixes it, or an ``IlpPtacOptions`` goes straight to the
ILP-PTAC functions.  And each thing is done one way: the second ways
pinned in ``GONE`` and ``NO_DMA_MODEL`` stay gone.
"""

from __future__ import annotations

import inspect

import repro.analysis
import repro.engine
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
from repro.engine.families import ScenarioFamily
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
    (simplex.warm_solve_rhs, "max_iterations"),
    (control_loop.build_control_loop, "chunks"),
    (loads.build_load, "chunks"),
)


def _parameters(fn) -> set[str]:
    return set(inspect.signature(fn).parameters)


def test_platform_knobs_live_where_the_constants_are_consumed():
    assert len(ONE_PLATFORM) == 31
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
    wcet.contention_bound,
    wcet.wcet_estimate,
    AnalysisContext,
)


def test_ilp_options_live_on_the_ilp_functions():
    assert len(FIXED_ILP) == 23
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


#: Second ways to do one thing, and the module that held each: a program
#: loops through ``sim.program.repeat``, a family batch is ``family_jobs``
#: run by ``run_jobs``, a soundness batch is ``random_soundness_jobs``
#: run by ``run_jobs``, and a branching child either inserts its bound
#: row into the parent's tableau or solves cold.
GONE = (
    (alignment, "looped"),
    (repro.analysis, "looped"),
    (families, "family_matrix"),
    (repro.engine, "family_matrix"),
    (validation, "random_soundness_sweep"),
    (repro.analysis, "random_soundness_sweep"),
    (simplex, "warm_solve_shift_rhs"),
)

#: Batches whose DMA bound is named by a descriptor model in ``models`` /
#: ``model`` (or the family's default), not by a ``dma_model`` keyword.
NO_DMA_MODEL = (
    families.family_jobs,
    families.run_family,
    experiment.run_specs,
)


def test_one_way_to_do_each_thing():
    present = [
        f"{module.__name__}.{name}"
        for module, name in GONE
        if hasattr(module, name)
    ]
    assert not present, present
    knobs = [
        f"{fn.__module__}.{fn.__qualname__}"
        for fn in NO_DMA_MODEL
        if "dma_model" in _parameters(fn)
    ]
    assert not knobs, knobs
    # The one job per spec still carries the bound family_jobs sets.
    for fn in (experiment.spec_job, experiment.run_spec):
        assert "dma_model" in _parameters(fn), fn
    assert "default_dma_model" in _parameters(ScenarioFamily)
