"""Parity suite for the batch-aware (warm-started) ILP solving layer.

The contract under test: warm-started batch solves are **bit-identical**
to cold solves — same objective values, same solution points — on every
registered ILP model, whatever solver state the pool has accumulated.
The cold reference is always :meth:`IlpModel.solve` (or ``solve_bnb`` on
a bare form).  The suite drives the same instances the paper's artefacts
use: the published Table 6 readings (Figure 4's paper-counters mode) and
the simulator-measured Table 6 counters (Figure 4's simulation mode),
plus regression cases for the warm paths' cold fallbacks.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import paper
from repro.analysis.experiments import (
    counter_based_model_names,
    figure4_paper_mode,
    model_scenario_matrix,
    simulate_scenario,
)
from repro.analysis.sweeps import contender_scale_sweep
from repro.analysis.validation import soundness_sweep
from repro.core.ilp_ptac import IlpPtacOptions, build_ilp_ptac, ilp_ptac_bound
from repro.core.multicontender import multi_contender_bound
from repro.engine import ExperimentEngine, ResultCache
from repro.ilp import branch_and_bound
from repro.ilp.batch import (
    BatchSolver,
    default_batch_solver,
    reset_default_batch_solver,
    structure_signature,
)
from repro.ilp.branch_and_bound import BnbWarmStart, solve_bnb, solve_bnb_warm
from repro.ilp.model import IlpModel
from repro.ilp.simplex import LpStatus, solve_lp
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.latency import tc27x_latency_profile
from repro.workloads.synthetic import random_task_pair

SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


class _ColdSolver:
    """Stands in for the per-thread batch solver: every solve is a
    cold :meth:`IlpModel.solve`, a full search that ignores any
    ``upper_bound`` (a sweep's ceiling)."""

    def __init__(self):
        self.solves = 0

    def solve(self, model, *, node_limit=100_000, upper_bound=None):
        self.solves += 1
        return model.solve(node_limit=node_limit)


@contextlib.contextmanager
def cold_solves():
    """Route every contention-ILP solve in the block through
    :meth:`IlpModel.solve` — the cold reference of the parity checks."""
    solver = _ColdSolver()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.ilp.batch.default_batch_solver", lambda: solver)
        yield
    assert solver.solves, "no contention ILP reached the cold solver"


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts (and leaves) a clean thread-local solver pool."""
    reset_default_batch_solver()
    yield
    reset_default_batch_solver()


@pytest.fixture(scope="module")
def profile():
    return tc27x_latency_profile()


def by_name(solution):
    return {var.name: value for var, value in solution.values.items()}


def assert_identical(cold, warm, label=""):
    assert cold.status is warm.status, label
    assert cold.objective == warm.objective, label
    assert by_name(cold) == by_name(warm), label


# ----------------------------------------------------------------------
# Structure signatures: what keys the warm-start pool
# ----------------------------------------------------------------------
class TestStructureSignature:
    def test_sweep_points_share_structure(self, profile):
        scenario = scenario_1()
        readings_a = paper.table6("scenario1", "app")
        contender = paper.table6("scenario1", "H-Load")
        signatures = set()
        coefficient_vectors = []
        for scale in SCALES:
            form = build_ilp_ptac(
                readings_a, contender.scaled(scale), profile, scenario
            ).standard_form()
            signatures.add(structure_signature(form))
            coefficient_vectors.append(
                np.concatenate(
                    [form.c, form.a_ub.ravel(), form.b_ub,
                     form.a_eq.ravel(), form.b_eq]
                )
            )
        # One structure template, several coefficient vectors.
        assert len(signatures) == 1
        assert len(
            {tuple(vector) for vector in coefficient_vectors}
        ) == len(SCALES)

    def test_signatures_stable_across_hash_seeds(self):
        """Interpreters with different string-hash seeds build the same
        rows in the same order, with zero, one and two contenders (the
        cap rows once followed set order over hash-keyed targets)."""
        script = (
            "from repro import paper\n"
            "from repro.core.ilp_ptac import IlpPtacOptions, build_ilp_ptac\n"
            "from repro.core.multicontender import multi_contender_bound\n"
            "from repro.ilp.batch import structure_signature\n"
            "from repro.platform.deployment import scenario_2\n"
            "from repro.platform.latency import tc27x_latency_profile\n"
            "profile, scenario = tc27x_latency_profile(), scenario_2()\n"
            "app = paper.table6('scenario2', 'app')\n"
            "h, l = (paper.contender_readings('scenario2', load)"
            " for load in 'HL')\n"
            "tc = IlpPtacOptions(contender_constraints=False)\n"
            "print(structure_signature("
            "build_ilp_ptac(app, None, profile, scenario, tc)))\n"
            "print(structure_signature("
            "build_ilp_ptac(app, h, profile, scenario)))\n"
            "print(structure_signature("
            "multi_contender_bound(app, [h, l], profile, scenario).model))\n"
        )
        root = pathlib.Path(__file__).resolve().parent.parent
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(root / "src")
            env["PYTHONHASHSEED"] = seed
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True,
                    text=True,
                    check=True,
                    env=env,
                    cwd=str(root),
                ).stdout.split()
            )
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]

    def test_distinct_structures_hash_apart(self, profile):
        readings_a = paper.table6("scenario1", "app")
        contender = paper.table6("scenario1", "H-Load")
        full = build_ilp_ptac(readings_a, contender, profile, scenario_1())
        composable = build_ilp_ptac(
            readings_a,
            None,
            profile,
            scenario_1(),
            IlpPtacOptions(contender_constraints=False),
        )
        other_scenario = build_ilp_ptac(
            paper.table6("scenario2", "app"),
            paper.table6("scenario2", "H-Load"),
            profile,
            scenario_2(),
        )
        signatures = {
            structure_signature(full),
            structure_signature(composable),
            structure_signature(other_scenario),
        }
        assert len(signatures) == 3


# ----------------------------------------------------------------------
# Solver-level parity: warm chains vs cold solves, bit for bit
# ----------------------------------------------------------------------
class TestSolverParity:
    @pytest.mark.parametrize("scenario_name", ["scenario1", "scenario2"])
    def test_contender_sweep_bit_identical(self, scenario_name, profile):
        scenario = (
            scenario_1() if scenario_name == "scenario1" else scenario_2()
        )
        readings_a = paper.table6(scenario_name, "app")
        contender = paper.table6(scenario_name, "H-Load")
        warm_state = None
        cold_iterations = warm_iterations = 0
        for scale in SCALES:
            form = build_ilp_ptac(
                readings_a, contender.scaled(scale), profile, scenario
            ).standard_form()
            cold = solve_bnb(form)
            warm, warm_state = solve_bnb_warm(form, warm_state)
            assert_identical(cold, warm, f"{scenario_name} x{scale}")
            cold_iterations += cold.stats.simplex_iterations
            warm_iterations += warm.stats.simplex_iterations
        # The parity guarantee must not come from secretly solving cold.
        assert warm_iterations < cold_iterations

    @pytest.mark.parametrize("scenario_name", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("load", ["H", "M", "L"])
    def test_figure4_bars_bit_identical(self, scenario_name, load, profile):
        """Figure 4's paper-counter instances, solved via a shared pool."""
        scenario = (
            scenario_1() if scenario_name == "scenario1" else scenario_2()
        )
        readings_a = paper.table6(scenario_name, "app")
        readings_b = paper.contender_readings(scenario_name, load)
        with cold_solves():
            cold = ilp_ptac_bound(readings_a, readings_b, profile, scenario)
        warm = ilp_ptac_bound(readings_a, readings_b, profile, scenario)
        assert cold.bound == warm.bound
        assert cold.interference == warm.interference
        assert cold.worst_profile_a == warm.worst_profile_a
        assert cold.worst_profile_b == warm.worst_profile_b
        assert_identical(cold.solution, warm.solution)

    def test_time_composable_variant_bit_identical(self, profile):
        options = IlpPtacOptions(contender_constraints=False)
        for scenario in (scenario_1(), scenario_2()):
            readings_a = paper.table6(scenario.name, "app")
            with cold_solves():
                cold = ilp_ptac_bound(
                    readings_a, None, profile, scenario, options
                )
            # Twice via the pool: the second run is the warm-hit path.
            ilp_ptac_bound(readings_a, None, profile, scenario, options)
            warm = ilp_ptac_bound(
                readings_a, None, profile, scenario, options
            )
            assert cold.bound == warm.bound
            assert_identical(cold.solution, warm.solution, scenario.name)

    def test_multi_contender_bit_identical(self, profile):
        scenario = scenario_1()
        readings_a = paper.table6("scenario1", "app")
        contenders = [
            dataclasses.replace(
                paper.contender_readings("scenario1", load), name=f"{load}@c{i}"
            )
            for i, load in enumerate(("H", "M"), start=2)
        ]
        with cold_solves():
            cold = multi_contender_bound(
                readings_a, contenders, profile, scenario
            )
        for _ in range(2):  # second solve runs fully warm
            warm = multi_contender_bound(
                readings_a, contenders, profile, scenario
            )
        assert cold.bound == warm.bound
        assert cold.per_contender_cycles == warm.per_contender_cycles
        assert cold.interference == warm.interference
        assert_identical(cold.solution, warm.solution)

    def test_table6_measured_counters_bit_identical(self, profile):
        """Simulation-mode parity: the simulator-measured Table 6
        readings drive the same warm/cold equivalence as the published
        ones."""
        data = simulate_scenario("scenario1", scale=1 / 32)
        for load, readings_b in data.load_readings.items():
            with cold_solves():
                cold = ilp_ptac_bound(
                    data.app_readings, readings_b, profile, data.scenario
                )
            warm = ilp_ptac_bound(
                data.app_readings, readings_b, profile, data.scenario
            )
            assert cold.bound == warm.bound, load
            assert_identical(cold.solution, warm.solution, load)

    def test_pool_state_cannot_leak_across_structures(self, profile):
        """Interleaving structures exercises the signature keying: each
        chain must behave as if it ran alone."""
        solver = BatchSolver()
        jobs = []
        for scale in SCALES:
            for scenario in (scenario_1(), scenario_2()):
                jobs.append(
                    build_ilp_ptac(
                        paper.table6(scenario.name, "app"),
                        paper.table6(scenario.name, "H-Load").scaled(scale),
                        profile,
                        scenario,
                    )
                )
        for model in jobs:
            cold = model.solve()
            warm = solver.solve(model)
            assert_identical(cold, warm, model.name)
        assert len(solver) == 2  # one pool entry per structure
        assert solver.stats.warm_hits == len(jobs) - 2


# ----------------------------------------------------------------------
# Warm-start machinery regressions
# ----------------------------------------------------------------------
class TestWarmStartMachinery:
    def test_unchainable_root_solves_cold(self, profile, monkeypatch):
        """A stored root whose constraint matrix changed cannot chain:
        the root solves cold and the result still matches a cold solve
        bit for bit."""
        form = build_ilp_ptac(
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            profile,
            scenario_1(),
        ).standard_form()
        _, state = solve_bnb_warm(form)
        assert state.root_tableau is not None

        # Same structure, one a_ub coefficient changed.
        changed = copy.copy(form)
        changed.a_ub = form.a_ub.copy()
        row, column = np.argwhere(form.a_ub > 0)[0]
        changed.a_ub[row, column] += 1.0
        assert structure_signature(changed) == structure_signature(form)

        def no_chaining(*args, **kwargs):
            raise AssertionError("the root chained from the stored tableau")

        monkeypatch.setattr(branch_and_bound, "warm_solve_rhs", no_chaining)
        cold = solve_bnb(changed)
        warm, _ = solve_bnb_warm(changed, state)
        assert_identical(cold, warm)

    def test_degenerate_basis_with_residual_artificial_falls_back(
        self, monkeypatch
    ):
        """A redundant equality pins an artificial in every cold basis,
        so no root tableau is kept: every child, and the next root,
        solves cold — and still matches a cold solve bit for bit."""
        model = IlpModel("duplicate-equality")
        x = model.add_var("x")
        y = model.add_var("y")
        model.add_constraint(x + y == 2)
        model.add_constraint(2 * x + 2 * y == 4)  # redundant duplicate
        model.add_constraint(2 * x <= 3)
        model.maximize(2 * x + y)
        form = model.standard_form()

        root = solve_lp(
            -form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
            keep_tableau=True,
        )
        assert root.status is LpStatus.OPTIMAL
        assert root.basis.max() >= form.n_variables + form.a_ub.shape[0]
        assert root.tableau is None

        def no_extension(*args, **kwargs):
            raise AssertionError("a child extended a tableau")

        monkeypatch.setattr(
            branch_and_bound, "warm_solve_insert_row", no_extension
        )
        cold = solve_bnb(form)
        assert cold.stats.nodes > 1  # it branched
        warm, state = solve_bnb_warm(form)
        assert state.root_tableau is None
        again, _ = solve_bnb_warm(form, state)
        for solution in (warm, again):
            assert_identical(cold, solution)

    def test_rebounding_child_solves_cold(self, monkeypatch):
        """A child that re-bounds a column already carrying that bound
        row gets no tableau extension and solves cold; every other child
        inserts its one new row, and the result matches a cold solve."""
        model = IlpModel("rebound")
        x = model.add_var("x")
        y = model.add_var("y")
        model.add_constraint(7 * x + 4 * y <= 11.5)
        model.add_constraint(3 * x + 8 * y <= 10.5)
        model.maximize(6 * x + 5 * y)
        form = model.standard_form()
        cold = solve_bnb(form)

        inserted = []
        cold_rows = []
        insert_row = branch_and_bound.warm_solve_insert_row
        cold_lp = branch_and_bound.solve_lp

        def counted_insert(
            tableau, basis, c, row_position, column, sigma, rhs, **kwargs
        ):
            inserted.append((column, sigma, rhs))
            return insert_row(
                tableau, basis, c, row_position, column, sigma, rhs,
                **kwargs,
            )

        def counted_cold(c, a_ub, b_ub, *args, **kwargs):
            cold_rows.append(
                list(zip(map(tuple, a_ub.tolist()), b_ub.tolist()))
            )
            return cold_lp(c, a_ub, b_ub, *args, **kwargs)

        monkeypatch.setattr(
            branch_and_bound, "warm_solve_insert_row", counted_insert
        )
        monkeypatch.setattr(branch_and_bound, "solve_lp", counted_cold)
        warm, _ = solve_bnb_warm(form)
        assert_identical(cold, warm)
        assert len(inserted) + len(cold_rows) == warm.stats.nodes == 7
        # The root, then the one child that moves x <= 1 to x <= 0.
        root, child = cold_rows
        assert len(root) == form.a_ub.shape[0]
        assert (0, 1.0, 1.0) in inserted  # x <= 1 went in as a new row
        assert ((1.0, 0.0), 0.0) in child
        assert ((1.0, 0.0), 1.0) not in child

    def test_root_chains_across_a_large_rhs_change(self, profile):
        """Chaining a root from an instance whose coefficients differ by
        two orders of magnitude must not corrupt the solve."""
        scenario = scenario_1()
        readings_a = paper.table6("scenario1", "app")
        contender = paper.table6("scenario1", "H-Load")
        big = build_ilp_ptac(
            readings_a, contender, profile, scenario
        ).standard_form()
        _, state = solve_bnb_warm(big)
        tiny_model = build_ilp_ptac(
            readings_a, contender.scaled(0.01), profile, scenario
        )
        cold = solve_bnb(tiny_model.standard_form())
        warm, _ = solve_bnb_warm(tiny_model.standard_form(), state)
        assert_identical(cold, warm)

    def test_identical_resolve_chains_its_root(self, profile):
        """Re-solving the identical instance warm must reproduce it and
        cost almost nothing."""
        model = build_ilp_ptac(
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            tc27x_latency_profile(),
            scenario_1(),
        )
        form = model.standard_form()
        first, state = solve_bnb_warm(form)
        again, _ = solve_bnb_warm(form, state)
        assert_identical(first, again)
        assert (
            again.stats.simplex_iterations
            <= first.stats.simplex_iterations // 2
        )

    def test_long_chain_then_new_structure_matches_cold(self, monkeypatch):
        """Ninety chained sweep roots followed by a soundness sweep: every
        warm solve reports the status and objective of a cold solve.

        Chaining used to shift the stored rhs column by ``B^-1 db``, so
        rounding error built up along the sweep; on the third soundness
        solve a zero row read -1.05e-9, past the dual ratio test's
        tolerance, and the warm root declared a feasible ILP infeasible
        (a cold solve is optimal at 19,136)."""
        reset_default_batch_solver()
        solved = []
        warm_solve = BatchSolver.solve

        def checked(self, model, **kwargs):
            warm = warm_solve(self, model, **kwargs)
            cold = model.solve("bnb")
            solved.append(model.name)
            assert (warm.status, warm.objective) == (
                cold.status, cold.objective
            ), f"warm solve {len(solved)} ({model.name})"
            return warm

        monkeypatch.setattr(BatchSolver, "solve", checked)
        scenario = scenario_1()
        app = paper.table6("scenario1", "app")
        hload = paper.table6("scenario1", "H-Load")
        for _ in range(10):
            contender_scale_sweep(app, hload, scenario)
        assert len(solved) == 90
        sweep = soundness_sweep(
            [
                random_task_pair(scenario, seed=seed, max_requests=1500)
                for seed in range(10)
            ],
            scenario,
        )
        assert len(sweep.cases) == 10
        assert len(solved) > 92

    def test_warm_state_round_trips_through_pool(self, profile):
        solver = default_batch_solver()
        model = build_ilp_ptac(
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            profile,
            scenario_1(),
        )
        signature = structure_signature(model.standard_form())
        assert solver.warm_state(signature) is None
        solver.solve(model)
        state = solver.warm_state(signature)
        assert isinstance(state, BnbWarmStart)
        assert state.basis is not None


# ----------------------------------------------------------------------
# Driver-level parity: warm state never changes an artefact
# ----------------------------------------------------------------------
class TestDriverParity:
    def test_figure4_rows_identical_cold_vs_warm(self):
        with cold_solves():
            cold_rows = figure4_paper_mode()
        warm_rows = figure4_paper_mode()
        assert cold_rows == warm_rows

    def test_sweep_identical_across_engine_modes(self):
        """Serial (one shared pool) and process-pool (one task per point,
        warm state per pool process) execution must agree point for
        point."""
        scenario = scenario_1()
        readings_a = paper.table6("scenario1", "app")
        contender = paper.table6("scenario1", "H-Load")
        serial = contender_scale_sweep(readings_a, contender, scenario)
        with ExperimentEngine(
            mode="process", workers=2, cache=ResultCache()
        ) as engine:
            pooled = contender_scale_sweep(
                readings_a, contender, scenario, engine=engine
            )
        assert serial == pooled

    def test_matrix_driver_covers_all_counter_models(self):
        models = counter_based_model_names()
        assert set(models) == {
            "ftc-baseline",
            "ftc-refined",
            "ilp-ptac",
            "ilp-ptac-tc",
            "ilp-ptac-multi",
        }
        results = model_scenario_matrix(
            models=("ftc-refined", "ilp-ptac"),
            specs=("scenario1-pair-H", "scenario2-pair-H"),
        )
        assert [
            (result.spec_name, result.model) for result in results
        ] == [
            ("scenario1-pair-H", "ftc-refined"),
            ("scenario1-pair-H", "ilp-ptac"),
            ("scenario2-pair-H", "ftc-refined"),
            ("scenario2-pair-H", "ilp-ptac"),
        ]
        for result in results:
            assert result.sound

    def test_matrix_rejects_non_counter_models(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError, match="counter-based"):
            model_scenario_matrix(models=("ideal",))

    def test_remote_workers_bit_identical_to_cold(self, service_fleet):
        """Units leased by *remote* workers (two pull workers on an
        in-process coordinator) preserve the warm ≡ cold guarantee:
        each worker's batch solver accumulates warm-start state across
        whatever units it leases, yet every bar matches a cold, serial
        solve bit for bit."""
        with cold_solves():
            cold_rows = figure4_paper_mode()
        coordinator, _workers = service_fleet()
        engine = ExperimentEngine(
            mode="service", coordinator_url=coordinator.url
        )
        remote_warm = figure4_paper_mode(engine=engine)
        assert engine.stats.fallbacks == 0  # really ran remotely
        assert remote_warm == cold_rows

    def test_remote_sweep_identical_across_engine_modes(self, service_fleet):
        """The contender sweep — one structure end to end, its points
        spread over two workers — agrees point for point between serial
        and remote (service) execution."""
        scenario = scenario_1()
        readings_a = paper.table6("scenario1", "app")
        contender = paper.table6("scenario1", "H-Load")
        serial = contender_scale_sweep(readings_a, contender, scenario)
        coordinator, _workers = service_fleet()
        engine = ExperimentEngine(
            mode="service", coordinator_url=coordinator.url
        )
        remote = contender_scale_sweep(
            readings_a, contender, scenario, engine=engine
        )
        assert engine.stats.fallbacks == 0
        assert serial == remote


# ----------------------------------------------------------------------
# Memoised standard_form (solve no longer rebuilds it per call)
# ----------------------------------------------------------------------
class TestStandardFormMemo:
    def test_solve_reuses_construction(self):
        model = IlpModel("memo")
        x = model.add_var("x", upper=4)
        model.add_constraint(x <= 3)
        model.maximize(2 * x)
        first = model.standard_form()
        assert model.standard_form() is first
        model.solve()
        assert model.standard_form() is first

    def test_mutation_invalidates(self):
        model = IlpModel("memo")
        x = model.add_var("x", upper=4)
        model.maximize(x)
        first = model.standard_form()
        y = model.add_var("y", upper=1)
        second = model.standard_form()
        assert second is not first
        assert second.n_variables == 2
        model.add_constraint(x + y <= 3)
        third = model.standard_form()
        assert third is not second
        model.maximize(x + y)
        assert model.standard_form() is not third
