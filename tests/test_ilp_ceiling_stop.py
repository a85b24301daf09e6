"""Branch-and-bound stops at a proven upper bound on the optimum.

A contender-scale sweep solves its time-composable ceiling first and
passes it to every point: the one-contender ILP is the time-composable
one plus the contender's columns and rows, so its optimum cannot exceed
the ceiling.  The incumbent is replaced only by strictly better points,
so one that reaches the ceiling is the full search's answer, and the
search may stop there.  These tests pin that the stop changes the node
count and nothing else: same status, objective and values.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from readings_strategy import task_readings
from repro import paper
from repro.analysis.sweeps import contender_scale_sweep
from repro.core.ilp_ptac import (
    IlpPtacOptions,
    _single_contender_builder,
    solve_contention_ilp,
)
from repro.errors import IlpError
from repro.ilp.batch import (
    BatchSolver,
    default_batch_solver,
    reset_default_batch_solver,
)
from repro.ilp.solution import SolveStatus
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.latency import tc27x_latency_profile

PROFILE = tc27x_latency_profile()
SCENARIOS = {"scenario1": scenario_1, "scenario2": scenario_2}
TIME_COMPOSABLE = IlpPtacOptions(contender_constraints=False)


def ceiling_of(readings_a, scenario):
    """The time-composable bound: what the sweep passes as the upper
    bound."""
    return _single_contender_builder(
        readings_a, None, PROFILE, scenario, TIME_COMPOSABLE
    ).solve("ilp-ptac-tc").bound.delta_cycles


def point_model(scenario_name, scale):
    """The one-contender ILP of a paper sweep point, with its ceiling."""
    scenario = SCENARIOS[scenario_name]()
    app = paper.table6(scenario_name, "app")
    contender = paper.table6(scenario_name, "H-Load").scaled(scale)
    model = _single_contender_builder(
        app, contender, PROFILE, scenario, IlpPtacOptions()
    ).build()
    return model, ceiling_of(app, scenario)


def assert_same_solution(full, stopped):
    assert stopped.status is full.status
    assert stopped.objective == full.objective
    assert dict(stopped.values) == dict(full.values)


@pytest.fixture(autouse=True)
def _fresh_pool():
    reset_default_batch_solver()
    yield
    reset_default_batch_solver()


@pytest.mark.parametrize(
    "scenario_name, scale, full_nodes, stopped_nodes",
    [
        # Saturated points: the root's incumbent is the ceiling.
        ("scenario1", 2.0, 3, 1),
        ("scenario1", 4.0, 3, 1),
        ("scenario2", 4.0, 5, 1),
        # Below the ceiling the search is the full one.
        ("scenario1", 1.0, 5, 5),
        ("scenario2", 1.0, 3, 3),
    ],
)
def test_saturated_points_close_at_their_root(
    scenario_name, scale, full_nodes, stopped_nodes
):
    model, ceiling = point_model(scenario_name, scale)
    full = BatchSolver().solve(model)
    stopped = BatchSolver().solve(model, upper_bound=ceiling)
    assert full.stats.nodes == full_nodes
    assert stopped.stats.nodes == stopped_nodes
    assert_same_solution(full, stopped)
    assert (full.objective == ceiling) == (stopped_nodes < full_nodes)


def test_sweep_passes_its_ceiling_to_every_point():
    # One ceiling solve (3 nodes) and two saturated points that stop at
    # their root, where a full search takes 3 nodes each.
    app = paper.table6("scenario1", "app")
    contender = paper.table6("scenario1", "H-Load")
    points = contender_scale_sweep(
        app, contender, scenario_1(), scales=(2.0, 4.0)
    )
    assert all(point.saturated for point in points)
    assert default_batch_solver().stats.solves == 3
    assert default_batch_solver().stats.nodes == 3 + 1 + 1


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    scenario_name=st.sampled_from(sorted(SCENARIOS)),
    app=task_readings("app"),
    contender=task_readings("rival"),
)
def test_time_composable_bound_changes_only_the_node_count(
    scenario_name, app, contender
):
    scenario = SCENARIOS[scenario_name]()
    # A budget keeps a rare plateau draw from taking seconds.
    options = IlpPtacOptions(node_limit=300)
    tc = solve_contention_ilp(
        _single_contender_builder(
            app, None, PROFILE, scenario, TIME_COMPOSABLE
        ).build(),
        options,
    )
    model = _single_contender_builder(
        app, contender, PROFILE, scenario, options
    ).build()
    full = solve_contention_ilp(model, options)
    assume(tc.status is SolveStatus.OPTIMAL)
    assume(full.status is SolveStatus.OPTIMAL)
    stopped = solve_contention_ilp(model, options, upper_bound=tc.objective)
    assert_same_solution(full, stopped)
    assert stopped.stats.nodes <= full.stats.nodes


def test_bound_reached_within_the_node_budget_is_optimal():
    model, ceiling = point_model("scenario1", 4.0)
    assert BatchSolver().solve(model, node_limit=1).status is (
        SolveStatus.NODE_LIMIT
    )
    stopped = BatchSolver().solve(model, node_limit=1, upper_bound=ceiling)
    assert stopped.status is SolveStatus.OPTIMAL
    assert stopped.stats.nodes == 1
    assert_same_solution(BatchSolver().solve(model), stopped)


@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_bound_below_the_optimum_raises(scale):
    model, _ = point_model("scenario1", scale)
    optimum = BatchSolver().solve(model).objective
    with pytest.raises(IlpError, match="exceeds the upper bound"):
        BatchSolver().solve(model, upper_bound=optimum - 1)


@pytest.mark.parametrize("backend", ["scipy", "lp"])
def test_other_backends_ignore_the_bound(backend):
    # Even a wrong bound: only branch-and-bound reads it.
    model, ceiling = point_model("scenario1", 4.0)
    options = IlpPtacOptions(backend=backend)
    full = solve_contention_ilp(model, options)
    stopped = solve_contention_ilp(model, options, upper_bound=ceiling - 1)
    assert_same_solution(full, stopped)
