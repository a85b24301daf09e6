"""Tests for the memoised contention-ILP templates of ``repro.core.ilp_ptac``.

Every ILP-PTAC model is an instance of its structure's template with the
rows that read the counters rewritten.  These tests hold instances to an
unmemoised assembly, check which inputs share a template, and check that
the sharing cannot leak between models.
"""

import dataclasses
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import paper
from repro.core import ilp_ptac
from repro.core.fsb import FsbTiming, fsb_latency_profile, fsb_scenario
from repro.core.ilp_ptac import IlpPtacOptions, build_ilp_ptac
from repro.counters.readings import TaskReadings
from repro.ilp.model import StandardForm
from repro.platform.deployment import custom_scenario, scenario_1, scenario_2
from repro.platform.latency import LatencyProfile, tc27x_latency_profile
from repro.platform.targets import ALL_TARGETS, Target

FORM_ARRAYS = (
    "c", "a_ub", "b_ub", "a_eq", "b_eq", "integer_mask", "lower", "upper"
)

#: Constraint name prefix → the readings attribute its rhs holds.  Every
#: other row of the model is homogeneous (rhs 0).
READING_ROWS = {
    "stall_co": "ps",
    "stall_da": "ds",
    "code_count": "pm",
    "data_count_lb": "data_cache_misses",
}


def _dirty_free():
    return dataclasses.replace(scenario_2(), dirty_targets=frozenset())


def _halved_stalls():
    """Table 2's latencies with every minimum stall halved: the same
    objective, other stall-budget coefficients."""
    table = tc27x_latency_profile()
    timings = {}
    for target in ALL_TARGETS:
        timing = table.timing(target)
        cs_code = None if timing.cs_code is None else timing.cs_code // 2
        timings[target] = dataclasses.replace(
            timing, cs_data=timing.cs_data // 2, cs_code=cs_code
        )
    return LatencyProfile(timings)


#: Fresh (profile, scenario) objects per call, as every sweep point and
#: pool job brings its own.
PLATFORMS = {
    "scenario1": lambda: (tc27x_latency_profile(), scenario_1()),
    "scenario1-halved-stalls": lambda: (_halved_stalls(), scenario_1()),
    "scenario2": lambda: (tc27x_latency_profile(), scenario_2()),
    "scenario2-dirty-free": lambda: (tc27x_latency_profile(), _dirty_free()),
    "scenario2-no-miss-bound": lambda: (
        tc27x_latency_profile(),
        dataclasses.replace(scenario_2(), data_count_lower_bounded=False),
    ),
    "fsb": lambda: (
        fsb_latency_profile(FsbTiming(latency=20, cs_min=8)),
        fsb_scenario(),
    ),
    # The two flash banks share one timing: only the pairs tell these
    # apart.
    **{
        f"{bank.value}-code": lambda bank=bank: (
            tc27x_latency_profile(),
            custom_scenario(
                f"{bank.value}-code",
                code_targets=(bank,),
                data_targets=(Target.LMU,),
                code_count_exact=True,
            ),
        )
        for bank in (Target.PF0, Target.PF1)
    },
}

#: Contender names; from two contenders on they tag variables and rows,
#: so a draw takes three of them in some order.
RIVALS = ("H", "M", "L", "X")

COUNTERS = st.fixed_dictionaries(
    {
        "pmem_stall": st.integers(0, 200_000),
        "dmem_stall": st.integers(0, 200_000),
        "pcache_miss": st.integers(0, 20_000),
        "dcache_miss_clean": st.integers(0, 10_000),
        "dcache_miss_dirty": st.integers(0, 1_000),
    }
)
READINGS = st.lists(COUNTERS, min_size=4, max_size=4)


def _build(names, counters, n_contenders, platform, options):
    """An instance through the memo, for the first task against the next
    ``n_contenders`` (none without contender constraints)."""
    profile, scenario = PLATFORMS[platform]()
    app, *rivals = _tasks(names, counters)
    contenders = rivals[:n_contenders] if options.contender_constraints else ()
    return ilp_ptac._IlpPtacBuilder(
        app, contenders, profile, scenario, options
    ).build()


def _tasks(names, counters):
    return [
        TaskReadings(name, **fields) for name, fields in zip(names, counters)
    ]


def _unmemoised(*args):
    """The same instance assembled from a fresh template, with its
    standard form lowered from its own constraints."""
    with mock.patch.object(
        ilp_ptac, "_template", ilp_ptac._template.__wrapped__
    ):
        model = _build(*args)
    return model, StandardForm(model)


def _same(items, others):
    """Element-wise identity (``Var.__eq__`` builds a constraint)."""
    return len(items) == len(others) and all(
        a is b for a, b in zip(items, others)
    )


def _expected_rhs(constraint, tasks, n_contenders):
    """The rhs the paper's equations give a row of this model."""
    prefix, _, who = constraint.name.partition("[")
    if prefix not in READING_ROWS:
        return 0.0
    who = who.rstrip("]")
    task = {"a": 0, "b": 1}.get(who)
    if task is None:
        task = [t.name for t in tasks].index(who)
    assert task <= n_contenders
    return float(getattr(tasks[task], READING_ROWS[prefix]))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    platform=st.sampled_from(sorted(PLATFORMS)),
    stall_budget=st.sampled_from(("minimum", "exact")),
    exact_codes=st.booleans(),
    contender_constraints=st.booleans(),
    n_contenders=st.integers(0, 3),
    rivals=st.permutations(RIVALS),
    earlier=READINGS,
    readings=READINGS,
)
def test_instances_match_an_unmemoised_assembly(
    platform,
    stall_budget,
    exact_codes,
    contender_constraints,
    n_contenders,
    rivals,
    earlier,
    readings,
):
    """An instance of a template built for other readings is the model a
    fresh assembly gives, array for array and row for row."""
    options = IlpPtacOptions(
        stall_budget=stall_budget,
        use_exact_code_counts=exact_codes,
        contender_constraints=contender_constraints,
    )
    names = ("app", *rivals[:3])
    first = _build(names, earlier, n_contenders, platform, options)
    model = _build(names, readings, n_contenders, platform, options)
    assert _same(model.variables, first.variables)
    assert model.standard_form().a_ub is first.standard_form().a_ub

    reference, reference_form = _unmemoised(
        names, readings, n_contenders, platform, options
    )
    assert model.name == reference.name
    form = model.standard_form()
    assert [v.name for v in form.variables] == [
        v.name for v in reference_form.variables
    ]
    for field in FORM_ARRAYS:
        ours, theirs = getattr(form, field), getattr(reference_form, field)
        assert ours.shape == theirs.shape, field
        assert ours.tobytes() == theirs.tobytes(), field
    assert [(c.name, c.sense, c.rhs) for c in model.constraints] == [
        (c.name, c.sense, c.rhs) for c in reference.constraints
    ]
    n_tasks = n_contenders if contender_constraints else 0
    tasks = _tasks(names, readings)
    for constraint in model.constraints:
        assert constraint.rhs == _expected_rhs(constraint, tasks, n_tasks)


class TestTemplateSharing:
    def test_fresh_profiles_and_replaced_scenarios_share_one_template(self):
        app = paper.table6("scenario2", "app")
        hload = paper.table6("scenario2", "H-Load")
        first = build_ilp_ptac(
            app, hload, tc27x_latency_profile(), scenario_2()
        )
        again = build_ilp_ptac(
            app,
            hload.scaled(0.5),
            tc27x_latency_profile(),
            dataclasses.replace(scenario_2(), description="a copy"),
        )
        dirty_free = build_ilp_ptac(
            app, hload, tc27x_latency_profile(), _dirty_free()
        )
        assert _same(again.variables, first.variables)
        assert again.standard_form().a_ub is first.standard_form().a_ub
        assert not set(map(id, dirty_free.variables)) & set(
            map(id, first.variables)
        )
        # The dirty LMU latency moves only objective coefficients.
        assert not np.array_equal(
            dirty_free.standard_form().c, first.standard_form().c
        )

    def test_building_on_an_instance_leaves_the_template_alone(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        model = build_ilp_ptac(app_sc1, hload_sc1, profile, sc1)
        shape = (len(model.variables), len(model.constraints))
        objective = model.objective
        extra = model.add_var("extra", upper=3)
        model.add_constraint(extra <= 2, name="extra_cap")
        model.maximize(extra + 0)
        assert model.solve().objective == 2.0

        later = build_ilp_ptac(app_sc1, hload_sc1, profile, sc1)
        assert (len(later.variables), len(later.constraints)) == shape
        assert later.objective is objective
        assert "extra" not in {v.name for v in later.variables}
        assert later.standard_form().a_ub.shape[1] == shape[0]
        assert (
            ilp_ptac.ilp_ptac_bound(
                app_sc1, hload_sc1, profile, sc1
            ).bound.delta_cycles
            == 6_606_495
        )

    def test_writing_into_a_shared_array_raises(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        form = build_ilp_ptac(
            app_sc1, hload_sc1, profile, sc1
        ).standard_form()
        for field in ("c", "a_ub", "a_eq", "integer_mask", "lower", "upper"):
            assert not getattr(form, field).flags.writeable, field
        with pytest.raises(ValueError, match="read-only"):
            form.a_ub[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            form.c[0] = 1.0
        # The right-hand sides are the instance's own.
        other = build_ilp_ptac(
            app_sc1, hload_sc1.scaled(2.0), profile, sc1
        ).standard_form()
        assert form.b_ub is not other.b_ub


def test_threads_racing_on_templates_get_the_serial_bounds():
    """Pull workers may run as threads of one interpreter: threads that
    race to assemble and instantiate the same templates read back the
    bounds a serial run gets."""
    profile = tc27x_latency_profile()
    cases = [
        (
            paper.table6(name, "app"),
            paper.contender_readings(name, load),
            scenario,
            options,
        )
        for name, scenario in (
            ("scenario1", scenario_1()),
            ("scenario2", scenario_2()),
        )
        for load in "HML"
        for options in (
            IlpPtacOptions(),
            IlpPtacOptions(contender_constraints=False),
        )
    ]

    def bounds():
        return [
            (result.bound, result.interference)
            for result in (
                ilp_ptac.ilp_ptac_bound(app, rival, profile, scenario, options)
                for app, rival, scenario, options in cases
            )
        ]

    expected = bounds()
    ilp_ptac._template.cache_clear()
    results = {}
    threads = [
        threading.Thread(target=lambda k=k: results.update({k: bounds()}))
        for k in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(8))
    assert all(result == expected for result in results.values())
