"""Tests for the three-core experiment driver."""

import pytest

from repro.analysis.three_core import ThreeCoreRow, three_core_experiment
from repro.engine import run_spec
from repro.errors import ModelError
from repro.store import ResultStore


class TestThreeCoreExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return three_core_experiment(
            "scenario1", load_pairs=(("H", "L"), ("L", "L")), scale=1 / 128
        )

    def test_row_per_pair(self, rows):
        assert [row.loads for row in rows] == [("H", "L"), ("L", "L")]

    def test_all_sound(self, rows):
        for row in rows:
            assert row.sound
            assert row.pairwise_prediction >= row.observed_cycles

    def test_joint_never_worse_than_pairwise(self, rows):
        for row in rows:
            assert 0 <= row.joint_saving

    def test_observed_contention_nontrivial(self, rows):
        # Two contenders must actually disturb the application.
        assert any(row.observed_slowdown > 1.05 for row in rows)

    def test_heavier_pair_heavier_bound(self, rows):
        by_loads = {row.loads: row for row in rows}
        assert (
            by_loads[("H", "L")].joint_delta
            > by_loads[("L", "L")].joint_delta
        )

    def test_monotone_vs_single_contender(self, rows):
        """Two contenders bound at least as much as the heavier alone."""
        from repro import paper
        from repro.core.ilp_ptac import ilp_ptac_bound
        from repro.platform.deployment import scenario_1
        from repro.platform.latency import tc27x_latency_profile
        from repro.sim.system import run_isolation
        from repro.workloads.control_loop import build_control_loop
        from repro.workloads.loads import build_load

        scenario = scenario_1()
        app_program, _ = build_control_loop(scenario, scale=1 / 128)
        app = run_isolation(app_program).readings
        h_alone = ilp_ptac_bound(
            app,
            run_isolation(
                build_load("scenario1", "H", scale=1 / 128), core=2
            ).readings,
            tc27x_latency_profile(),
            scenario,
        ).bound.delta_cycles
        by_loads = {row.loads: row for row in rows}
        assert by_loads[("H", "L")].joint_delta >= h_alone

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ModelError):
            three_core_experiment("scenario7", scale=1 / 128)

    def test_row_properties(self):
        row = ThreeCoreRow(
            scenario="scenario1",
            loads=("H", "L"),
            isolation_cycles=1_000,
            joint_delta=400,
            pairwise_sum_delta=500,
            observed_cycles=1_200,
        )
        assert row.joint_prediction == 1_400
        assert row.pairwise_prediction == 1_500
        assert row.joint_saving == 100
        assert row.sound
        assert row.observed_slowdown == pytest.approx(1.2)


class TestThreeCoreIsASpecRun:
    def test_pairing_equals_registered_three_core_spec(self):
        """The H+L pairing at 1/32 is the registered scenario1-3core
        layout, so both entry points must report the same run."""
        (row,) = three_core_experiment("scenario1", [("H", "L")], scale=1 / 32)
        run = run_spec("scenario1-3core")
        for field in (
            "isolation_cycles",
            "joint_delta",
            "pairwise_sum_delta",
            "observed_cycles",
            "joint_prediction",
            "observed_slowdown",
            "sound",
            "joint_saving",
        ):
            assert getattr(row, field) == getattr(run, field), field

    def test_cache_dir_records_one_scenario_run_cell_per_pairing(
        self, tmp_path
    ):
        from repro import cli

        argv = ["three-core", "--scale", "128", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        store = ResultStore(tmp_path)
        try:
            cells = store.rows(store.resolve("latest"))
        finally:
            store.close()
        assert sorted(cell["cell"] for cell in cells) == [
            f"three-core/scenario1-3core-{loads}/ilp-ptac/dma-occupancy"
            for loads in ("H+H", "H+L", "M+M")
        ]
        for cell in cells:
            assert cell["kind"] == "three-core"
            assert cell["bound"] > 0
            assert cell["predicted"] >= cell["observed"] > 1.0
            assert cell["sound"] is True
