"""Tests for the multi-contender extension."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from readings_strategy import task_readings
from repro import paper
from repro.core import ilp_ptac
from repro.core.ilp_ptac import IlpPtacOptions, build_ilp_ptac, ilp_ptac_bound
from repro.core.multicontender import multi_contender_bound
from repro.counters.readings import TaskReadings
from repro.engine.experiment import run_spec
from repro.engine.registry import default_registry
from repro.errors import IlpError, ModelError
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.latency import tc27x_latency_profile
from repro.sim.system import run_isolation

PROFILE = tc27x_latency_profile()
SCENARIOS = {"scenario1": scenario_1, "scenario2": scenario_2}
PAPER_INSTANCES = [
    (scenario, load) for scenario in SCENARIOS for load in ("H", "M", "L")
]


@pytest.fixture()
def contenders():
    h = paper.contender_readings("scenario1", "H")
    l = paper.contender_readings("scenario1", "L")
    return [h, l]


class TestBasics:
    def test_single_contender_matches_pairwise_model(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        joint = multi_contender_bound(
            app_sc1, [hload_sc1], profile, sc1
        )
        pairwise = ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        assert joint.bound.delta_cycles == pairwise.bound.delta_cycles

    def test_joint_not_exceeding_naive_sum(
        self, app_sc1, profile, sc1, contenders
    ):
        joint = multi_contender_bound(app_sc1, contenders, profile, sc1)
        naive = sum(
            ilp_ptac_bound(app_sc1, c, profile, sc1).bound.delta_cycles
            for c in contenders
        )
        assert joint.bound.delta_cycles <= naive

    def test_joint_at_least_each_individual(
        self, app_sc1, profile, sc1, contenders
    ):
        joint = multi_contender_bound(app_sc1, contenders, profile, sc1)
        for contender in contenders:
            individual = ilp_ptac_bound(
                app_sc1, contender, profile, sc1
            ).bound.delta_cycles
            assert joint.bound.delta_cycles >= individual

    def test_per_contender_attribution_sums(self, app_sc1, profile, sc1, contenders):
        joint = multi_contender_bound(app_sc1, contenders, profile, sc1)
        assert (
            sum(joint.per_contender_cycles.values())
            == joint.bound.delta_cycles
        )
        assert set(joint.per_contender_cycles) == {"H-Load", "L-Load"}

    def test_contender_list_metadata(self, app_sc1, profile, sc1, contenders):
        joint = multi_contender_bound(app_sc1, contenders, profile, sc1)
        assert joint.bound.contenders == ("H-Load", "L-Load")
        assert joint.bound.model == "ilp-ptac-multi"
        assert not joint.bound.time_composable


class TestValidation:
    def test_empty_contenders_rejected(self, app_sc1, profile, sc1):
        with pytest.raises(ModelError):
            multi_contender_bound(app_sc1, [], profile, sc1)

    def test_duplicate_names_rejected(self, app_sc1, hload_sc1, profile, sc1):
        with pytest.raises(ModelError):
            multi_contender_bound(
                app_sc1, [hload_sc1, hload_sc1], profile, sc1
            )

    def test_tc_mode_rejected(self, app_sc1, hload_sc1, profile, sc1):
        with pytest.raises(ModelError):
            multi_contender_bound(
                app_sc1,
                [hload_sc1],
                profile,
                sc1,
                IlpPtacOptions(contender_constraints=False),
            )


class TestScaling:
    def test_idle_contender_contributes_nothing(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        idle = TaskReadings("idle", pmem_stall=0, dmem_stall=0, pcache_miss=0)
        joint = multi_contender_bound(
            app_sc1, [hload_sc1, idle], profile, sc1
        )
        alone = ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        assert joint.bound.delta_cycles == alone.bound.delta_cycles
        assert joint.per_contender_cycles["idle"] == 0

    def test_interference_capped_by_exposure_per_contender(
        self, app_sc1, profile, sc1, contenders
    ):
        joint = multi_contender_bound(app_sc1, contenders, profile, sc1)
        for name, counts in joint.interference.items():
            for (target, _), count in counts.items():
                exposure = sum(
                    joint.solution.int_value(var)
                    for var in joint.model.variables
                    if var.name.startswith("n_a[")
                    and f"[{target.value}," in var.name
                )
                assert count <= exposure

    def test_monotone_in_number_of_contenders(
        self, app_sc1, profile, sc1, contenders
    ):
        one = multi_contender_bound(app_sc1, contenders[:1], profile, sc1)
        two = multi_contender_bound(app_sc1, contenders, profile, sc1)
        assert two.bound.delta_cycles >= one.bound.delta_cycles


class TestLpBackend:
    """``backend="lp"`` is a sound relaxation bound on every path: counts
    are rounded up, never read as integers."""

    @pytest.mark.parametrize("scenario_name, load", PAPER_INSTANCES)
    def test_one_contender_matches_single(self, scenario_name, load):
        scenario = SCENARIOS[scenario_name]()
        app = paper.table6(scenario_name, "app")
        contender = paper.contender_readings(scenario_name, load)
        options = IlpPtacOptions(backend="lp")
        joint = multi_contender_bound(
            app, [contender], PROFILE, scenario, options
        )
        single = ilp_ptac_bound(app, contender, PROFILE, scenario, options)
        assert joint.bound.delta_cycles == single.bound.delta_cycles
        assert joint.interference == {contender.name: single.interference}
        assert joint.per_contender_cycles == {
            contender.name: single.bound.delta_cycles
        }

    def test_joint_spec_bound_dominates_the_ilp(self):
        """The relaxation of the joint ILP ``run_spec`` solves for
        ``scenario1-3core``, built from the same measurements, bounds
        the joint delta it reports."""
        spec = default_registry().get("scenario1-3core")
        app = run_isolation(spec.app_program(), core=spec.app_core)
        contenders = []
        for core, program in sorted(spec.contender_programs().items()):
            readings = run_isolation(program, core=core).readings
            contenders.append(
                dataclasses.replace(
                    readings, name=f"{readings.name}@core{core}"
                )
            )
        exact = run_spec(spec)
        assert app.readings.require_ccnt() == exact.isolation_cycles
        assert tuple(c.name for c in contenders) == exact.contender_names
        relaxed = multi_contender_bound(
            app.readings,
            contenders,
            PROFILE,
            spec.deployment(),
            IlpPtacOptions(backend="lp"),
        )
        assert relaxed.bound.delta_cycles >= exact.joint_delta


def _solved_models(bound):
    """The ILPs ``bound()`` solves (every backend's solve goes through
    ``solve_contention_ilp``), and its outcome: the result, or the
    message of an ``IlpError``."""
    models = []
    solve = ilp_ptac.solve_contention_ilp

    def recording(model, options, *, upper_bound=None):
        if model not in models:
            models.append(model)
        return solve(model, options, upper_bound=upper_bound)

    with mock.patch.object(ilp_ptac, "solve_contention_ilp", recording):
        try:
            outcome = bound()
        except IlpError as exc:
            outcome = str(exc)
    return models, outcome


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario_name=st.sampled_from(sorted(SCENARIOS)),
    stall_budget=st.sampled_from(("minimum", "exact")),
    exact_codes=st.booleans(),
    backend=st.sampled_from(("bnb", "lp")),
    app=task_readings("app"),
    contender=task_readings("rival"),
)
def test_one_contender_builds_the_single_contender_ilp(
    scenario_name, stall_budget, exact_codes, backend, app, contender
):
    """``ilp-ptac-multi`` with one contender is the ``ilp-ptac`` ILP,
    column for column, and reads the same bound back."""
    scenario = SCENARIOS[scenario_name]()
    options = IlpPtacOptions(
        stall_budget=stall_budget,
        use_exact_code_counts=exact_codes,
        backend=backend,
        node_limit=2_000,
    )
    single = build_ilp_ptac(
        app, contender, PROFILE, scenario, options
    ).standard_form()
    models, joint = _solved_models(
        lambda: multi_contender_bound(
            app, [contender], PROFILE, scenario, options
        )
    )
    assert len(models) == 1
    form = models[0].standard_form()
    assert [v.name for v in form.variables] == [
        v.name for v in single.variables
    ]
    for field in ("c", "a_ub", "b_ub", "a_eq", "b_eq", "integer_mask"):
        assert np.array_equal(getattr(form, field), getattr(single, field))

    if stall_budget == "minimum":
        _, pairwise = _solved_models(
            lambda: ilp_ptac_bound(app, contender, PROFILE, scenario, options)
        )
        if isinstance(pairwise, str):
            assert joint == pairwise
        else:
            assert joint.bound.delta_cycles == pairwise.bound.delta_cycles
            assert joint.interference == {"rival": pairwise.interference}
