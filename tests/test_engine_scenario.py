"""Tests for declarative scenario specs and the named registry."""

import math
import pickle

import pytest

from repro.engine.registry import (
    builtin_specs,
    get_scenario,
    scenario_names,
)
from repro.engine.scenario import DmaSpec, ScenarioSpec, WorkloadRef
from repro.errors import EngineError
from repro.platform.targets import Target


class TestWorkloadRef:
    def test_kinds_validate(self):
        with pytest.raises(EngineError):
            WorkloadRef(kind="mystery")
        with pytest.raises(EngineError):
            WorkloadRef(kind="load")  # missing level
        with pytest.raises(EngineError):
            WorkloadRef(kind="synthetic")  # missing seed
        with pytest.raises(EngineError):
            WorkloadRef(kind="spec")  # missing spec
        with pytest.raises(EngineError):
            WorkloadRef.load("H", scale=0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, scale):
        # At construction, not later inside run_spec as a CounterError.
        with pytest.raises(EngineError, match="positive and finite"):
            WorkloadRef.control_loop(scale=scale)

    def test_control_loop_requires_reference_base(self):
        # Rejected at construction, not deep inside a worker at run time.
        with pytest.raises(EngineError, match="reference deployments"):
            ScenarioSpec(
                name="arch-app",
                base="architectural",
                app=WorkloadRef.control_loop(),
            )

    def test_load_contender_requires_reference_base(self):
        with pytest.raises(EngineError, match="core 2"):
            ScenarioSpec(
                name="arch-load",
                base="architectural",
                app=WorkloadRef.synthetic(1),
                contenders=((2, WorkloadRef.load("H")),),
            )

    def test_synthetic_build_is_deterministic(self):
        spec = ScenarioSpec(
            name="synth",
            base="scenario1",
            app=WorkloadRef.synthetic(7, max_requests=100),
        )
        first = spec.app_program()
        second = spec.app_program()
        assert first.request_count() == second.request_count()

    def test_synthetic_constructor_exposes_scale(self):
        """Regression: scaling a synthetic ref used to require bypassing
        the documented constructor even though build() honours scale."""
        via_constructor = WorkloadRef.synthetic(7, scale=0.5, max_requests=200)
        by_hand = WorkloadRef(
            kind="synthetic", seed=7, scale=0.5, max_requests=200
        )
        assert via_constructor == by_hand
        spec = ScenarioSpec(name="s", base="scenario1", app=via_constructor)
        deployment = spec.deployment()
        assert (
            via_constructor.build("scenario1", deployment).request_count()
            == by_hand.build("scenario1", deployment).request_count()
        )
        # The scale genuinely shrinks the footprint.
        full = WorkloadRef.synthetic(7, max_requests=200)
        assert (
            via_constructor.build("scenario1", deployment).request_count()
            <= full.build("scenario1", deployment).request_count()
        )

    def test_from_spec_constructor_exposes_scale(self):
        from repro.workloads.synthetic import random_workload

        workload = random_workload(
            "w", ScenarioSpec(name="s").deployment(), seed=3, max_requests=100
        )
        ref = WorkloadRef.from_spec(workload, scale=0.5)
        assert ref.scale == 0.5
        assert ref == WorkloadRef(
            kind="spec", spec=workload, scale=0.5, name=workload.name
        )


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(EngineError):
            ScenarioSpec(name="")
        with pytest.raises(EngineError):
            ScenarioSpec(name="x", base="scenario9")
        with pytest.raises(EngineError):
            ScenarioSpec(name="x", base="custom")  # no targets
        with pytest.raises(EngineError):
            ScenarioSpec(
                name="x",
                contenders=((1, WorkloadRef.load("H")),),  # core 1 is taken
            )
        with pytest.raises(EngineError):
            ScenarioSpec(
                name="x",
                contenders=(
                    (2, WorkloadRef.load("H")),
                    (2, WorkloadRef.load("L")),
                ),
            )
        with pytest.raises(EngineError):
            ScenarioSpec(
                name="x",
                dma=(DmaSpec(master_id=1, target=Target.LMU, count=10),),
            )

    def test_four_core_shape(self):
        spec = ScenarioSpec(
            name="quad",
            contenders=(
                (0, WorkloadRef.load("H", scale=1 / 64)),
                (2, WorkloadRef.load("M", scale=1 / 64)),
                (3, WorkloadRef.load("L", scale=1 / 64)),
            ),
            app=WorkloadRef.control_loop(scale=1 / 64),
        )
        assert spec.core_count == 4
        assert spec.cores == (0, 1, 2, 3)
        programs = spec.programs()
        assert sorted(programs) == [0, 1, 2, 3]
        assert programs[1].name == "app"

    def test_specs_are_picklable(self):
        for spec in builtin_specs():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec

    def test_scaled_rescales_every_workload(self):
        spec = get_scenario("scenario1-pair-H").scaled(0.5)
        assert spec.app.scale == pytest.approx(1 / 64)
        assert spec.contenders[0][1].scale == pytest.approx(1 / 64)
        with pytest.raises(EngineError):
            spec.scaled(0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_scaled_rejects_non_finite(self, factor):
        spec = get_scenario("scenario1-pair-H")
        with pytest.raises(EngineError, match="positive and finite"):
            spec.scaled(factor)

    def test_custom_base_deployment(self):
        spec = ScenarioSpec(
            name="pf0-only",
            base="custom",
            app=WorkloadRef.synthetic(1),
            code_targets=(Target.PF0,),
            data_targets=(Target.LMU,),
            code_count_exact=True,
        )
        deployment = spec.deployment()
        assert deployment.code_targets == (Target.PF0,)
        assert deployment.code_count_exact

    def test_dma_agent_materialisation(self):
        spec = DmaSpec(
            master_id=7, target=Target.LMU, count=5, queue_depth=2
        )
        agent = spec.agent()
        assert agent.master_id == 7
        assert agent.count == 5
        assert agent.request.target is Target.LMU

    def test_dma_spec_validates_at_construction(self):
        """Regression: a bad descriptor used to register cleanly and only
        raise when .agent() ran inside a (possibly remote) worker."""
        good = dict(master_id=9, target=Target.LMU)
        with pytest.raises(EngineError, match="count"):
            DmaSpec(count=-1, **good)
        with pytest.raises(EngineError, match="period"):
            DmaSpec(count=1, period=0, **good)
        with pytest.raises(EngineError, match="queue depth"):
            DmaSpec(count=1, queue_depth=0, **good)
        with pytest.raises(EngineError, match="start time"):
            DmaSpec(count=1, start_time=-1, **good)
        with pytest.raises(EngineError, match="master id"):
            DmaSpec(master_id=-1, target=Target.LMU, count=1)
        with pytest.raises(EngineError, match="Target"):
            DmaSpec(master_id=9, target="lmu", count=1)  # type: ignore[arg-type]

    def test_arbitration_validates_at_construction(self):
        with pytest.raises(EngineError, match="arbitration"):
            ScenarioSpec(name="x", arbitration="lottery")
        with pytest.raises(EngineError, match="priorities only apply"):
            ScenarioSpec(name="x", priorities=((1, 0),))
        with pytest.raises(EngineError, match="neither occupied cores"):
            ScenarioSpec(
                name="x", arbitration="priority", priorities=((4, 0),)
            )
        with pytest.raises(EngineError, match="duplicate"):
            ScenarioSpec(
                name="x",
                arbitration="priority",
                priorities=((1, 0), (1, 1)),
            )
        with pytest.raises(EngineError, match="non-negative"):
            ScenarioSpec(
                name="x", arbitration="priority", priorities=((1, -1),)
            )
        spec = ScenarioSpec(
            name="x",
            arbitration="priority",
            dma=(DmaSpec(master_id=9, target=Target.LMU, count=1),),
            priorities=((1, 5), (9, 0)),
        )
        assert spec.priority_map() == {1: 5, 9: 0}


class TestRegistry:
    def test_builtin_names(self):
        names = scenario_names()
        for base in ("scenario1", "scenario2"):
            for level in ("H", "M", "L"):
                assert f"{base}-pair-{level}" in names
            assert f"{base}-3core" in names
            assert f"{base}-4core" in names

    def test_builtin_four_core_spec(self):
        spec = get_scenario("scenario1-4core")
        assert spec.core_count == 4
