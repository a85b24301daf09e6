"""Acceptance tests for the engine refactor.

Three properties the ISSUE pins down:

(a) parallel execution returns results equal to serial, driver by driver;
(b) a second identical engine run hits the cache — zero re-simulations,
    asserted via the engine's execution counter;
(c) a registered four-core :class:`ScenarioSpec` runs end to end.

Plus the byte-identity guarantee: the rendered artefacts of the ported
drivers are independent of the execution mode.
"""

import pytest

from repro import paper
from repro.analysis.experiments import figure4_paper_mode, figure4_sim_mode
from repro.analysis.report import render_figure4
from repro.analysis.sweeps import contender_scale_sweep
from repro.analysis.three_core import three_core_experiment
from repro.analysis.validation import random_soundness_jobs
from repro.engine import (
    ExperimentEngine,
    ResultCache,
    get_scenario,
    run_jobs,
    run_spec,
    run_specs,
)
from repro.platform.deployment import scenario_1

SIM_SCALE = 1 / 128


@pytest.fixture()
def process_engine():
    with ExperimentEngine(
        mode="process", workers=2, cache=ResultCache()
    ) as engine:
        yield engine


class TestParallelEqualsSerial:
    def test_figure4_paper_mode(self, process_engine):
        serial = figure4_paper_mode()
        parallel = figure4_paper_mode(engine=process_engine)
        assert parallel == serial
        # Byte-identical rendered artefact, not just equal rows.
        assert render_figure4(parallel) == render_figure4(serial)

    def test_figure4_sim_mode(self, process_engine):
        serial = figure4_sim_mode(scale=SIM_SCALE)
        parallel = figure4_sim_mode(scale=SIM_SCALE, engine=process_engine)
        assert parallel == serial

    def test_contender_scale_sweep(self, process_engine):
        args = (
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            scenario_1(),
        )
        kwargs = dict(
            scales=(0.5, 1.0, 4.0),
            isolation_cycles=paper.ISOLATION_CYCLES["scenario1"],
        )
        assert contender_scale_sweep(
            *args, engine=process_engine, **kwargs
        ) == contender_scale_sweep(*args, **kwargs)

    def test_three_core(self, process_engine):
        serial = three_core_experiment(
            "scenario1", [("H", "L")], scale=1 / 128
        )
        parallel = three_core_experiment(
            "scenario1", [("H", "L")], scale=1 / 128, engine=process_engine
        )
        assert parallel == serial

    def test_soundness(self, process_engine):
        jobs = random_soundness_jobs(scenario_1(), pairs=3, max_requests=300)
        serial = run_jobs(jobs, None)
        parallel = run_jobs(jobs, process_engine)
        assert parallel == serial

    def test_run_specs_process_pool(self):
        names = ["scenario1-pair-H", "scenario1-pair-L"]
        specs = [get_scenario(name).scaled(1 / 4) for name in names]
        serial = run_specs(specs)
        parallel = run_specs(
            specs, engine=ExperimentEngine(mode="process", workers=2)
        )
        assert parallel == serial


class TestCacheSkipsResimulation:
    def test_second_sim_mode_run_executes_zero_jobs(self, process_engine):
        first = figure4_sim_mode(scale=SIM_SCALE, engine=process_engine)
        executed = process_engine.stats.executed
        assert executed > 0
        second = figure4_sim_mode(scale=SIM_SCALE, engine=process_engine)
        assert second == first
        assert process_engine.stats.executed == executed  # zero re-simulations
        assert process_engine.stats.cached > 0

    def test_table6_reuses_figure4_measurements(self, process_engine):
        from repro.analysis.experiments import table6_sim_mode

        figure4_sim_mode(scale=SIM_SCALE, engine=process_engine)
        executed = process_engine.stats.executed
        rows = table6_sim_mode(scale=SIM_SCALE, engine=process_engine)
        # The isolation measurements are shared: Table 6 adds no
        # simulation jobs on top of Figure 4's.
        assert process_engine.stats.executed == executed
        assert len(rows) == 4

    def test_table6_reuses_ablation_measurements(self):
        from repro.analysis.experiments import (
            information_ablation,
            table6_sim_mode,
        )

        engine = ExperimentEngine(cache=ResultCache())
        information_ablation(scale=1 / 32, engine=engine)
        executed, cached = engine.stats.executed, engine.stats.cached
        table6_sim_mode(scale=1 / 32, engine=engine)
        # The ladder runs over the same per-scenario measurement Table 6
        # reads, so Table 6 simulates nothing of its own.
        assert engine.stats.executed == executed
        assert engine.stats.cached == cached + 2

    def test_sweep_reuses_cached_solves_point_by_point(self, process_engine):
        args = (
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            scenario_1(),
        )
        contender_scale_sweep(*args, scales=(0.5, 1.0), engine=process_engine)
        executed = process_engine.stats.executed
        # A wider sweep re-uses the ceiling and the two shared points.
        contender_scale_sweep(
            *args, scales=(0.5, 1.0, 2.0), engine=process_engine
        )
        assert process_engine.stats.executed == executed + 1

    def test_spec_run_is_cached_under_its_content_hash(self):
        engine = ExperimentEngine(cache=ResultCache())
        spec = get_scenario("scenario1-pair-L").scaled(1 / 4)
        first = run_specs([spec], engine=engine)
        assert engine.stats.executed == 1
        second = run_specs([spec], engine=engine)
        assert second == first
        assert engine.stats.executed == 1


class TestFourCoreEndToEnd:
    def test_registered_four_core_spec_runs(self):
        spec = get_scenario("scenario1-4core").scaled(1 / 4)
        engine = ExperimentEngine(cache=ResultCache())
        result = run_specs([spec], engine=engine)[0]
        assert result.core_count == 4
        assert result.spec_name == "scenario1-4core"
        assert len(result.contender_names) == 3
        # The paper's invariants carry over to four cores: the joint
        # bound is sound and never looser than the pairwise sum.
        assert result.sound
        assert result.joint_delta <= result.pairwise_sum_delta
        assert result.observed_cycles > result.isolation_cycles

    def test_four_core_direct_run_spec_matches_engine(self):
        spec = get_scenario("scenario2-4core").scaled(1 / 4)
        direct = run_spec(spec)
        batched = run_specs([spec])[0]
        assert direct == batched
        assert direct.core_count == 4
        assert direct.sound


class TestDmaSpecs:
    def test_dma_interference_is_bounded_and_sound(self):
        from repro.engine import DmaSpec, ScenarioSpec, WorkloadRef
        from repro.platform.targets import Target

        spec = ScenarioSpec(
            name="pair-plus-dma",
            base="scenario1",
            app=WorkloadRef.control_loop(scale=1 / 8),
            contenders=((2, WorkloadRef.load("H", scale=1 / 8)),),
            dma=(
                DmaSpec(
                    master_id=5,
                    target=Target.LMU,
                    count=50_000,
                    period=1,
                ),
            ),
        )
        result = run_spec(spec)
        assert result.dma_delta > 0
        # The DMA traffic slows the co-run beyond the contender-only
        # bound; the prediction must still cover the observation.
        assert result.sound

    def test_unreachable_dma_target_contributes_nothing(self):
        from repro.engine import DmaSpec, ScenarioSpec, WorkloadRef
        from repro.platform.targets import Target

        # Scenario 1 reaches pf0/pf1/LMU only; DFL-bound DMA cannot
        # conflict with the application.
        spec = ScenarioSpec(
            name="pair-plus-dfl-dma",
            base="scenario1",
            app=WorkloadRef.control_loop(scale=1 / 8),
            contenders=((2, WorkloadRef.load("L", scale=1 / 8)),),
            dma=(DmaSpec(master_id=5, target=Target.DFL, count=1_000),),
        )
        result = run_spec(spec)
        assert result.dma_delta == 0
        assert result.sound


class TestSyntheticScaling:
    def test_scaled_synthetic_workload_shrinks(self):
        from repro.engine import ScenarioSpec, WorkloadRef

        full = ScenarioSpec(
            name="synth-full",
            base="scenario1",
            app=WorkloadRef.synthetic(3, max_requests=1_000),
        )
        small = full.scaled(1 / 4)
        assert (
            small.app_program().request_count()
            < full.app_program().request_count()
        )
