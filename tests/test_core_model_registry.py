"""Parity and capability tests for the contention-model registry.

The registry redesign must be observationally invisible: every registered
model reproduces the *exact* bounds the pre-redesign free-function API
returns on the Figure 4 / Table 6 scenarios, and model names are plain
data that engine jobs can carry (distinct cache keys per model,
picklable for process-mode fan-out).
"""

import dataclasses

import pytest

from repro import paper
from repro.core import (
    AnalysisContext,
    ContentionModel,
    IlpPtacOptions,
    ModelCapabilities,
    ModelSpec,
    contention_bound,
    default_model_registry,
    ftc_baseline,
    ftc_refined,
    get_model,
    ideal_bound,
    ilp_ptac_bound,
    model_bound,
    model_names,
    multi_contender_bound,
    temporary_models,
)
from repro.core.fsb import (
    FsbTiming,
    fsb_closed_form,
    fsb_ftc_closed_form,
    fsb_via_crossbar_ilp,
)
from repro.core.priority import dma_traffic_profile, dma_victim_bound
from repro.core.results import ContentionBound
from repro.engine import ExperimentEngine, ResultCache, job
from repro.errors import ModelError
from repro.platform.targets import Operation, Target
from repro.sim.dma import DmaAgent
from repro.sim.requests import data_access
from repro.sim.system import run_isolation
from repro.counters.readings import TaskReadings
from repro.workloads.control_loop import build_control_loop
from repro.workloads.loads import build_load

TIMING = FsbTiming(latency=8, cs_min=4)

#: Small readings keep the FSB crossbar ILP solvable within the node
#: budget (the full Table 6 counters are in the millions).
FSB_A = TaskReadings("a", pmem_stall=800, dmem_stall=400, pcache_miss=50)
FSB_B = TaskReadings("b", pmem_stall=160, dmem_stall=80, pcache_miss=10)


@pytest.fixture(scope="module")
def sim_data():
    """Simulator-measured readings + ground-truth profiles (scenario 1)."""
    from repro.platform.deployment import scenario_1

    scenario = scenario_1()
    app_program, _ = build_control_loop(scenario, scale=1 / 64)
    load_program = build_load("scenario1", "H", scale=1 / 64)
    app = run_isolation(app_program)
    load = run_isolation(load_program, core=2)
    return scenario, app, load


class TestRegistryContents:
    def test_at_least_eight_models(self):
        assert len(model_names()) >= 8

    def test_specs_satisfy_the_protocol(self):
        for spec in default_model_registry():
            assert isinstance(spec, ContentionModel)
            assert spec.name and spec.description

    def test_register_custom_model_resolves_via_facade(
        self, app_sc1, profile, sc1
    ):
        def zero(context: AnalysisContext) -> ContentionBound:
            return ContentionBound(
                model="zero",
                task=context.task_name,
                contenders=(),
                delta_cycles=0,
                op_breakdown={Operation.CODE: 0, Operation.DATA: 0},
                time_composable=True,
            )

        spec = ModelSpec(
            name="zero",
            description="always-zero test model",
            capabilities=ModelCapabilities(
                needs_profile=False, needs_scenario=False
            ),
            fn=zero,
        )
        with temporary_models(spec):
            bound = contention_bound("zero", app_sc1, profile, sc1)
            assert bound.delta_cycles == 0
        assert "zero" not in model_names()

class TestReadmeModelsSection:
    """The README's Models table is generated from the registry and must
    not drift from it."""

    @pytest.fixture(scope="class")
    def readme(self):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        return path.read_text(encoding="utf-8")

    def test_every_model_is_documented(self, readme):
        for spec in default_model_registry():
            assert f"`{spec.name}`" in readme, spec.name
            assert spec.description in readme, spec.name


class TestParityPaperCounters:
    """Registry output == free-function output on Table 6 readings."""

    def test_ftc_baseline(self, app_sc1, profile, sc1):
        assert contention_bound(
            "ftc-baseline", app_sc1, profile, sc1
        ) == ftc_baseline(app_sc1, profile)

    @pytest.mark.parametrize("scenario_name", ["scenario1", "scenario2"])
    def test_ftc_refined(self, scenario_name, profile):
        from repro.platform.deployment import named_scenarios

        scenario = named_scenarios()[scenario_name]
        readings = paper.table6(scenario_name, "app")
        assert contention_bound(
            "ftc-refined", readings, profile, scenario
        ) == ftc_refined(readings, profile, scenario)

    @pytest.mark.parametrize("scenario_name", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("load", ["H", "M", "L"])
    def test_ilp_ptac(self, scenario_name, load, profile):
        from repro.platform.deployment import named_scenarios

        scenario = named_scenarios()[scenario_name]
        readings_a = paper.table6(scenario_name, "app")
        readings_b = paper.contender_readings(scenario_name, load)
        assert contention_bound(
            "ilp-ptac", readings_a, profile, scenario, readings_b
        ) == ilp_ptac_bound(
            readings_a, readings_b, profile, scenario
        ).bound

    def test_ilp_ptac_tc(self, app_sc1, profile, sc1):
        tc_options = dataclasses.replace(
            IlpPtacOptions(), contender_constraints=False
        )
        assert contention_bound(
            "ilp-ptac-tc", app_sc1, profile, sc1
        ) == ilp_ptac_bound(app_sc1, None, profile, sc1, tc_options).bound

    def test_ilp_ptac_multi(self, app_sc1, profile, sc1, hload_sc1):
        second = dataclasses.replace(hload_sc1, name="H-Load@core0")
        contenders = (hload_sc1, second)
        assert contention_bound(
            "ilp-ptac-multi", app_sc1, profile, sc1, contenders=contenders
        ) == multi_contender_bound(
            app_sc1, contenders, profile, sc1
        ).bound

    def test_expected_delta_regression(self, app_sc1, profile, sc1, hload_sc1):
        bound = contention_bound(
            "ilp-ptac", app_sc1, profile, sc1, hload_sc1
        )
        assert bound.delta_cycles == paper.EXPECTED_DELTA[
            ("scenario1", "ilp-ptac", "H")
        ]


class TestParitySimulatorModels:
    def test_ideal(self, sim_data, profile):
        scenario, app, load = sim_data
        assert contention_bound(
            "ideal",
            profile=profile,
            scenario=scenario,
            access_profile_a=app.profile,
            access_profile_b=load.profile,
        ) == ideal_bound(app.profile, load.profile, profile, scenario)

    def test_ideal_multi_contender_sums_pairwise(self, sim_data, profile):
        # Two identical contenders each delay the victim per round, so
        # the joint ideal bound is the sum of the pairwise solves — NOT
        # min(n_a, sum n_b) over merged profiles, which undercounts.
        scenario, app, load = sim_data
        pairwise = ideal_bound(app.profile, load.profile, profile, scenario)
        second = dataclasses.replace(load.profile, task="H-Load@core0")
        joint = contention_bound(
            "ideal",
            profile=profile,
            scenario=scenario,
            access_profile_a=app.profile,
            contender_profiles=(load.profile, second),
        )
        assert joint.delta_cycles == 2 * pairwise.delta_cycles
        assert joint.contenders == (load.profile.task, "H-Load@core0")

    def test_dma_occupancy(self, profile, sc1):
        agents = (
            DmaAgent(
                master_id=7,
                request=data_access(Target.LMU),
                count=50,
            ),
        )
        assert contention_bound(
            "dma-occupancy", profile=profile, scenario=sc1, dma_agents=agents
        ) == dma_victim_bound(sc1, profile, agents)

    def test_priority_occupancy(self, profile, sc1):
        agent = DmaAgent(
            master_id=7, request=data_access(Target.LMU), count=25
        )
        traffic = dma_traffic_profile(agent)
        direct = contention_bound(
            "priority-occupancy",
            profile=profile,
            scenario=sc1,
            contender_profiles=(traffic,),
        )
        assert direct.delta_cycles == dma_victim_bound(
            sc1, profile, (agent,)
        ).delta_cycles

    def test_fsb_closed_form(self, app_sc1, hload_sc1):
        bound = contention_bound(
            "fsb-closed-form", app_sc1, readings_b=hload_sc1, fsb_timing=TIMING
        )
        assert bound.delta_cycles == fsb_closed_form(
            app_sc1, hload_sc1, TIMING
        )
        assert bound.model == "fsb-closed-form"

    def test_fsb_ftc(self, app_sc1):
        bound = contention_bound("fsb-ftc", app_sc1, fsb_timing=TIMING)
        assert bound.delta_cycles == fsb_ftc_closed_form(app_sc1, TIMING)
        assert bound.time_composable

    def test_fsb_crossbar_ilp(self):
        bound = contention_bound(
            "fsb-crossbar-ilp", FSB_A, readings_b=FSB_B, fsb_timing=TIMING
        )
        reference = fsb_via_crossbar_ilp(FSB_A, FSB_B, TIMING).bound
        assert bound == dataclasses.replace(
            reference, model="fsb-crossbar-ilp"
        )
        # Section 4.3's reduction claim, via the registry this time.
        assert bound.delta_cycles == fsb_closed_form(FSB_A, FSB_B, TIMING)


class TestCapabilityValidation:
    def test_ilp_ptac_without_contender(self, app_sc1, profile, sc1):
        with pytest.raises(ModelError, match="contender readings"):
            contention_bound("ilp-ptac", app_sc1, profile, sc1)

    def test_ftc_refined_without_scenario(self, app_sc1, profile):
        with pytest.raises(ModelError, match="deployment scenario"):
            contention_bound("ftc-refined", app_sc1, profile)

    def test_counter_models_without_readings(self, profile, sc1):
        with pytest.raises(ModelError, match="readings_a"):
            contention_bound("ftc-baseline", profile=profile, scenario=sc1)

    def test_ideal_without_profiles(self, app_sc1, profile, sc1):
        with pytest.raises(ModelError, match="access profile"):
            contention_bound("ideal", app_sc1, profile, sc1)

    def test_dma_without_agents(self, profile, sc1):
        with pytest.raises(ModelError, match="DMA"):
            contention_bound("dma-occupancy", profile=profile, scenario=sc1)

    def test_fsb_without_timing(self, app_sc1, hload_sc1):
        with pytest.raises(ModelError, match="fsb_timing"):
            contention_bound(
                "fsb-closed-form", app_sc1, readings_b=hload_sc1
            )

    def test_single_contender_model_rejects_surplus_contenders(
        self, app_sc1, profile, sc1, hload_sc1
    ):
        # Silently ignoring the second contender would return a bound
        # that does not cover the full contender set.
        second = dataclasses.replace(hload_sc1, name="L-Load@core0")
        with pytest.raises(ModelError, match="ilp-ptac-multi"):
            contention_bound(
                "ilp-ptac", app_sc1, profile, sc1,
                contenders=(hload_sc1, second),
            )

    def test_contender_blind_models_stay_permissive(
        self, app_sc1, profile, sc1, hload_sc1
    ):
        # Legacy facade behaviour: fTC ignores contender readings (its
        # bound holds against any single co-runner), so passing them is
        # allowed.
        bound = contention_bound(
            "ftc-refined", app_sc1, profile, sc1, hload_sc1
        )
        assert bound == contention_bound("ftc-refined", app_sc1, profile, sc1)

    def test_missing_inputs_reported_together(self):
        with pytest.raises(ModelError) as excinfo:
            contention_bound("ilp-ptac")
        message = str(excinfo.value)
        assert "readings_a" in message
        assert "profile" in message
        assert "scenario" in message
        assert "contender" in message


class TestEngineIntegration:
    """Model names as engine-job data: cache keys distinguish models."""

    def test_model_bound_jobs_by_name(self, app_sc1, profile, sc1, hload_sc1):
        context = AnalysisContext(
            profile=profile,
            scenario=sc1,
            readings=app_sc1,
            contenders=(hload_sc1,),
        )
        models = ("ftc-baseline", "ftc-refined", "ilp-ptac", "ilp-ptac-tc")
        cache = ResultCache()
        with ExperimentEngine(cache=cache) as engine:
            results = engine.run(
                [job(model_bound, name, context) for name in models]
            )
            assert engine.stats.executed == len(models)
            # Same context, different model names: four distinct keys.
            assert len(cache) == len(models)
            for name, bound in zip(models, results):
                assert bound == contention_bound(
                    name, app_sc1, profile, sc1, hload_sc1
                )
            # Re-running the batch is answered fully from the cache.
            engine.run([job(model_bound, name, context) for name in models])
            assert engine.stats.executed == len(models)
            assert engine.stats.cached == len(models)

    def test_model_jobs_survive_process_pool(
        self, app_sc1, profile, sc1, hload_sc1
    ):
        context = AnalysisContext(
            profile=profile,
            scenario=sc1,
            readings=app_sc1,
            contenders=(hload_sc1,),
        )
        with ExperimentEngine(mode="process", workers=2) as engine:
            parallel = engine.run(
                [
                    job(model_bound, name, context)
                    for name in ("ftc-refined", "ilp-ptac")
                ]
            )
        assert parallel[0] == contention_bound(
            "ftc-refined", app_sc1, profile, sc1
        )
        assert parallel[1] == contention_bound(
            "ilp-ptac", app_sc1, profile, sc1, hload_sc1
        )

    def test_run_spec_by_model_name(self):
        from repro.engine import get_scenario, run_specs

        spec = get_scenario("scenario1-pair-L").scaled(1 / 8)
        ilp, ftc = (
            run_specs([spec], model=model)[0]
            for model in ("ilp-ptac", "ftc-refined")
        )
        assert ilp.model == "ilp-ptac" and ftc.model == "ftc-refined"
        # The contender-blind bound dominates the counter-informed one.
        assert ftc.joint_delta >= ilp.joint_delta
        assert ilp.sound and ftc.sound

    def test_run_spec_rejects_non_counter_models(self):
        from repro.engine import run_spec

        with pytest.raises(ModelError, match="cannot drive a scenario run"):
            run_spec("scenario1-pair-L", model="fsb-closed-form")
        with pytest.raises(ModelError, match="cannot drive a scenario run"):
            run_spec("scenario1-pair-L", model="ideal")

    def test_run_spec_model_distinguishes_cache_keys(self):
        from repro.engine import get_scenario, run_specs

        spec = get_scenario("scenario1-pair-L").scaled(1 / 8)
        cache = ResultCache()
        with ExperimentEngine(cache=cache) as engine:
            run_specs([spec], model="ilp-ptac", engine=engine)
            run_specs([spec], model="ftc-refined", engine=engine)
            assert engine.stats.executed == 2  # no false cache sharing
