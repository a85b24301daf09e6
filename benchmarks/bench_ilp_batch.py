"""Experiment P1: cold vs warm-started batch ILP solving.

The batch solver's pitch (ROADMAP "batch-aware ILP solving"): sweep
points over one (model, scenario) pair share their whole constraint
structure, so chaining from the previous point's root tableau should
cut solve effort severalfold *without changing a single result*.
This benchmark quantifies the claim on the Figure 4 contender ladder —
the exact repeated-structure regime the layer targets:

* solve every sweep instance cold (:meth:`IlpModel.solve`), counting
  simplex iterations, branch-and-bound nodes and wall-clock time;
* solve the identical instances through one warm :class:`BatchSolver`
  chain and count again;
* assert bit-identical bounds, **at least a 3x reduction in total
  simplex iterations**, and — now that the simplex kernels are numpy
  whole-array operations — **at least a 3x wall-clock speedup** too.

A second record runs the contender-scale sweep's own job,
``_ilp_delta``, over a fixed grid (both reference scenarios, 300 scales
each, every point with its scenario's ceiling), cold and through one
batch solver.  It asserts equal deltas and the exact number of chained
roots the batch solver answers at their stored basis, without recovery.

The measured trajectory lands in the session's JSON report
(``.benchmarks/engine_report.json``) via the shared ``report`` fixture
and seeds the repo's ``BENCH_ILP.json``, so CI tracks the cold/warm
ratio over time.
"""

import contextlib
import time
from unittest import mock

import pytest

from repro import paper
from repro.analysis.report import render_table
from repro.analysis.sweeps import _ilp_delta
from repro.core.ilp_ptac import IlpPtacOptions, build_ilp_ptac
from repro.ilp import batch, branch_and_bound, simplex
from repro.ilp.batch import BatchSolver
from repro.platform.deployment import named_scenarios, scenario_1, scenario_2
from repro.platform.latency import tc27x_latency_profile

#: The Figure 4 contender ladder, densified into a sweep (the H/M/L
#: levels are roughly 1.0 / 0.6 / 0.3 of the H-Load footprint).
SWEEP_SCALES = (0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)

#: Acceptance criterion: warm solving must cut total simplex iterations
#: at least this much on the contender sweep.
MIN_ITERATION_REDUCTION = 3.0

#: Acceptance criterion: the iteration savings must survive contact with
#: the wall clock.  Requires the vectorised simplex kernels — per-row
#: Python pivots used to eat the warm start's advantage in constant
#: overhead.
MIN_WALL_CLOCK_SPEEDUP = 3.0


def _sweep_models():
    """One ILP-PTAC model per (scenario, contender-scale) sweep point."""
    profile = tc27x_latency_profile()
    models = []
    for scenario in (scenario_1(), scenario_2()):
        readings_a = paper.table6(scenario.name, "app")
        contender = paper.table6(scenario.name, "H-Load")
        for scale in SWEEP_SCALES:
            models.append(
                build_ilp_ptac(
                    readings_a,
                    contender if scale == 1.0 else contender.scaled(scale),
                    profile,
                    scenario,
                    IlpPtacOptions(),
                )
            )
    return models


#: Wall-clock comparisons take the best of this many passes per side —
#: a single pass is at the mercy of scheduler noise.
TIMING_ROUNDS = 5


@pytest.mark.benchmark(group="ilp-batch")
def test_ilp_batch_warm_start(benchmark, report):
    models = _sweep_models()

    cold_iterations = cold_nodes = 0
    cold_objectives = []
    for model in models:
        solution = model.solve()
        cold_iterations += solution.stats.simplex_iterations
        cold_nodes += solution.stats.nodes
        cold_objectives.append(solution.objective)

    cold_seconds = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        for model in models:
            model.solve()
        cold_seconds = min(cold_seconds, time.perf_counter() - start)

    def warm_sweep():
        solver = BatchSolver()
        return solver, [solver.solve(model) for model in models]

    solver, warm_solutions = benchmark.pedantic(
        warm_sweep, rounds=TIMING_ROUNDS, iterations=1
    )
    warm_seconds = benchmark.stats.stats.min
    warm_iterations = solver.stats.simplex_iterations
    warm_nodes = solver.stats.nodes

    # Warm solving must be a pure performance change: bit-identical
    # objectives on every sweep point.
    assert [s.objective for s in warm_solutions] == cold_objectives
    # Every point after the first per structure is a warm hit (the two
    # scenarios contribute one structure each).
    assert solver.stats.structures == 2
    assert solver.stats.warm_hits == len(models) - 2

    reduction = cold_iterations / max(warm_iterations, 1)
    assert reduction >= MIN_ITERATION_REDUCTION, (
        f"warm start cut simplex iterations only {reduction:.2f}x "
        f"({cold_iterations} -> {warm_iterations}); the batch layer "
        f"promises >= {MIN_ITERATION_REDUCTION}x on the contender sweep"
    )

    speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    assert speedup >= MIN_WALL_CLOCK_SPEEDUP, (
        f"warm sweep ran only {speedup:.2f}x faster than cold "
        f"({cold_seconds:.3f}s -> {warm_seconds:.3f}s); the vectorised "
        f"kernels promise >= {MIN_WALL_CLOCK_SPEEDUP}x wall-clock on "
        f"the contender sweep"
    )
    report.add(
        f"P1 — batch ILP warm start ({len(models)} sweep solves)",
        render_table(
            ["mode", "simplex iterations", "bnb nodes", "seconds"],
            [
                ["cold", cold_iterations, cold_nodes, f"{cold_seconds:.3f}"],
                ["warm", warm_iterations, warm_nodes, f"{warm_seconds:.3f}"],
                [
                    "reduction",
                    f"{reduction:.2f}x",
                    f"{cold_nodes / max(warm_nodes, 1):.2f}x",
                    f"{speedup:.2f}x",
                ],
            ],
        ),
    )
    report.record(
        "ilp_batch_warm_start",
        {
            "sweep_solves": len(models),
            "cold_simplex_iterations": cold_iterations,
            "warm_simplex_iterations": warm_iterations,
            "iteration_reduction": round(reduction, 3),
            "cold_nodes": cold_nodes,
            "warm_nodes": warm_nodes,
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "wall_clock_speedup": round(speedup, 3),
            "warm_hit_rate": round(solver.stats.warm_hit_rate, 3),
        },
    )


#: The sweep record's grid: per reference scenario, this many contender
#: scales spread evenly over [0.05, 4.0).
SWEEP_RECORD_SCALES = 300

#: Chained roots of the sweep record's batch pass that keep their
#: certified stored basis and skip recovery.  Exact: the grid, the pool
#: (fresh) and the solver are deterministic.
SWEEP_RECORD_SHORTCUTS = 590


class _ColdSolver:
    """Stands in for the batch solver: each solve a cold
    :meth:`IlpModel.solve`, the full search."""

    def __init__(self):
        self.stats = batch.BatchSolverStats()

    def solve(self, model, *, node_limit=100_000, upper_bound=None):
        solution = model.solve(node_limit=node_limit)
        self.stats.solves += 1
        self.stats.simplex_iterations += solution.stats.simplex_iterations
        self.stats.nodes += solution.stats.nodes
        return solution


def _sweep_record_deltas():
    """Every job of the grid: per scenario its ceiling, then each scale's
    point against it, as ``contender_scale_sweep`` runs them."""
    scenarios = named_scenarios()
    deltas = []
    for name in ("scenario1", "scenario2"):
        app = paper.table6(name, "app")
        hload = paper.table6(name, "H-Load")
        ceiling = _ilp_delta(app, None, scenarios[name])
        deltas.append(ceiling)
        for k in range(SWEEP_RECORD_SCALES):
            scale = 0.05 + k * 3.95 / SWEEP_RECORD_SCALES
            deltas.append(
                _ilp_delta(app, hload.scaled(scale), scenarios[name], ceiling)
            )
    return deltas


@contextlib.contextmanager
def _solving_with(solver):
    with mock.patch.object(batch, "default_batch_solver", lambda: solver):
        yield solver


@contextlib.contextmanager
def _counted_chained_roots():
    """Count chained roots, and those of them answered without
    ``_recover``."""
    counts = {"chained": 0, "shortcut": 0}
    solve_rhs = branch_and_bound.warm_solve_rhs
    recover = simplex._recover
    recovered = []

    def counting_recover(*args, **kwargs):
        recovered.append(1)
        return recover(*args, **kwargs)

    def counting_rhs(*args, **kwargs):
        before = len(recovered)
        result = solve_rhs(*args, **kwargs)
        counts["chained"] += 1
        counts["shortcut"] += len(recovered) == before
        return result

    with mock.patch.object(simplex, "_recover", counting_recover), \
            mock.patch.object(
                branch_and_bound, "warm_solve_rhs", counting_rhs
            ):
        yield counts


@pytest.mark.benchmark(group="ilp-batch")
def test_ilp_sweep_job_record(report):
    with _solving_with(_ColdSolver()) as cold_solver:
        start = time.perf_counter()
        cold = _sweep_record_deltas()
        cold_seconds = time.perf_counter() - start

    with _solving_with(BatchSolver()) as solver, \
            _counted_chained_roots() as counts:
        warm = _sweep_record_deltas()
    assert warm == cold
    assert solver.stats.solves == len(cold) == 2 * SWEEP_RECORD_SCALES + 2
    assert counts["shortcut"] == SWEEP_RECORD_SHORTCUTS, counts

    warm_seconds = float("inf")
    for _ in range(TIMING_ROUNDS):
        with _solving_with(BatchSolver()):
            start = time.perf_counter()
            _sweep_record_deltas()
            warm_seconds = min(warm_seconds, time.perf_counter() - start)

    speedup = cold_seconds / warm_seconds
    report.add(
        f"P1b — sweep jobs, cold vs one batch solver ({len(cold)} solves)",
        render_table(
            ["mode", "simplex iterations", "bnb nodes", "seconds"],
            [
                [
                    "cold",
                    cold_solver.stats.simplex_iterations,
                    cold_solver.stats.nodes,
                    f"{cold_seconds:.3f}",
                ],
                [
                    "batch",
                    solver.stats.simplex_iterations,
                    solver.stats.nodes,
                    f"{warm_seconds:.3f}",
                ],
                [
                    "roots at their basis",
                    f"{counts['shortcut']} of {counts['chained']} chained",
                    "",
                    f"{speedup:.2f}x",
                ],
            ],
        ),
    )
    report.record(
        "ilp_sweep_job",
        {
            "sweep_solves": len(cold),
            "cold_simplex_iterations": cold_solver.stats.simplex_iterations,
            "warm_simplex_iterations": solver.stats.simplex_iterations,
            "cold_nodes": cold_solver.stats.nodes,
            "warm_nodes": solver.stats.nodes,
            "chained_roots": counts["chained"],
            "shortcut_roots": counts["shortcut"],
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "wall_clock_speedup": round(speedup, 3),
        },
    )
