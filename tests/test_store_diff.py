"""Differential regression reports: semantics, mode parity, CLI gate.

``repro diff`` is the reproduction's CI tripwire, so these tests pin
its three contracts: the classification rules (changed / sound-flip /
missing / new, repr-exact comparison), cross-mode determinism (two
same-revision same-input runs diff empty in every execution mode,
service included, and every mode diffs empty against serial), and the
process exit codes the pipeline gates on (0 clean, 1 regression,
2 usage).
"""

from __future__ import annotations

import math
import sqlite3

import pytest

from repro import cli
from repro.analysis.experiments import (
    figure4_paper_jobs,
    figure4_paper_mode,
    model_scenario_matrix,
)
from repro.engine import ExperimentEngine, ResultCache
from repro.errors import StoreError
from repro.service.client import submit_jobs, wait_for_job
from repro.store import (
    STORE_FILENAME,
    ResultStore,
    diff_artifact,
    diff_rows,
    diff_runs,
)
from service_jobs import wait_workers


def _cell(cell="figure4/s1/m/H", **overrides):
    row = {
        "cell": cell,
        "kind": "figure4",
        "scenario": "s1",
        "model": "m",
        "load": "H",
        "dma_model": None,
        "member": None,
        "platform": "tc27x",
        "bound": 100.0,
        "predicted": 1.5,
        "observed": 1.2,
        "tightness": 1.25,
        "sound": True,
    }
    row.update(overrides)
    return row


# ----------------------------------------------------------------------
# Classification semantics
# ----------------------------------------------------------------------
class TestDiffRows:
    def test_identical_rows_diff_empty(self):
        rows = [_cell(), _cell("figure4/s2/m/H", scenario="s2")]
        report = diff_rows(rows, [dict(r) for r in rows])
        assert report.diffs == ()
        assert not report.regression
        assert report.unchanged == 2
        assert report.cells_before == report.cells_after == 2

    def test_changed_bound_is_a_regression(self):
        report = diff_rows([_cell()], [_cell(bound=101.0)])
        assert report.regression
        (diff,) = report.diffs
        assert diff.status == "changed"
        assert diff.fields == {"bound": (100.0, 101.0)}
        assert diff.scenario == "s1" and diff.model == "m"

    def test_sound_flip_outranks_changed(self):
        report = diff_rows(
            [_cell()], [_cell(bound=101.0, sound=False)]
        )
        (diff,) = report.diffs
        assert diff.status == "sound-flip"
        assert diff.fields["sound"] == (True, False)
        assert diff.fields["bound"] == (100.0, 101.0)
        assert report.counts()["sound-flip"] == 1

    def test_none_to_false_soundness_counts_as_a_flip(self):
        report = diff_rows([_cell(sound=None)], [_cell(sound=False)])
        assert report.diffs[0].status == "sound-flip"
        assert report.regression

    def test_missing_cell_is_a_regression_new_is_not(self):
        one, two = _cell(), _cell("figure4/s2/m/H", scenario="s2")
        shrunk = diff_rows([one, two], [one])
        assert shrunk.regression
        assert shrunk.diffs[0].status == "missing"
        grown = diff_rows([one], [one, two])
        assert not grown.regression
        assert grown.diffs[0].status == "new"
        assert grown.counts() == {
            "changed": 0,
            "sound-flip": 0,
            "missing": 0,
            "new": 1,
        }

    def test_comparison_is_repr_exact(self):
        eps = diff_rows(
            [_cell(tightness=1.0)], [_cell(tightness=1.0 + 2**-52)]
        )
        assert eps.regression  # one ulp of drift is a finding
        nan = diff_rows(
            [_cell(bound=math.nan)], [_cell(bound=math.nan)]
        )
        assert nan.regression  # NaN never compares clean

    def test_null_fields_on_both_sides_compare_equal(self):
        report = diff_rows(
            [_cell(observed=None, tightness=None, sound=None)],
            [_cell(observed=None, tightness=None, sound=None)],
        )
        assert report.diffs == ()


class TestDiffArtifact:
    def test_one_record_per_differing_field(self):
        report = diff_rows(
            [_cell(), _cell("figure4/s2/m/H", scenario="s2")],
            [_cell(bound=101.0, predicted=1.6)],
        )
        item = diff_artifact(report)
        assert item.kind == "diff"
        by_field = {
            (record["cell"], record["field"]): record
            for record in item.records
        }
        changed = by_field[("figure4/s1/m/H", "bound")]
        assert changed["status"] == "changed"
        assert changed["delta"] == 1.0
        missing = by_field[("figure4/s2/m/H", None)]
        assert missing["status"] == "missing"
        assert missing["before"] is None
        assert item.meta["regression"] is True
        assert item.meta["missing"] == 1

    def test_empty_report_exports_a_header_only_csv(self, tmp_path):
        from repro.analysis.export import write_artifact

        report = diff_rows([_cell()], [_cell()])
        item = diff_artifact(report)
        assert len(item) == 0
        target = tmp_path / "diff.csv"
        write_artifact(item, str(target))
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("status,cell")

    def test_diff_runs_resolves_selectors(self, tmp_path):
        from repro.analysis.experiments import Figure4Row

        store = ResultStore(tmp_path)
        row = Figure4Row(
            scenario="s1",
            load="H",
            model="m",
            delta_cycles=7,
            slowdown=1.1,
        )
        first = store.begin_run()
        store.record_batch(first, [("f:x", row, None)])
        second = store.begin_run()
        store.record_batch(second, [("f:x", row, None)])
        report = diff_runs(store, "latest~1", "latest")
        assert report.diffs == ()
        with pytest.raises(StoreError):
            diff_runs(store, "latest", "no-such-run")
        store.close()


# ----------------------------------------------------------------------
# Mode parity: same inputs, same revision -> empty diff, every mode
# ----------------------------------------------------------------------
class TestModeParity:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_two_runs_diff_empty(self, mode, tmp_path):
        store = ResultStore(tmp_path)
        cache = ResultCache()
        run_ids = []
        for _ in range(2):
            engine = ExperimentEngine(
                mode=mode, workers=2, cache=cache, store=store
            )
            try:
                figure4_paper_mode(engine=engine)
            finally:
                engine.close()
            run_ids.append(engine.run_id)
        report = diff_runs(store, run_ids[0], run_ids[1])
        assert report.diffs == ()
        assert not report.regression
        assert report.unchanged == report.cells_before == 8
        store.close()

    def test_every_local_mode_matches_serial(self, tmp_path):
        store = ResultStore(tmp_path)
        run_ids = {}
        for mode in ("serial", "process"):
            engine = ExperimentEngine(mode=mode, workers=2, store=store)
            try:
                figure4_paper_mode(engine=engine)
            finally:
                engine.close()
            run_ids[mode] = engine.run_id
        report = diff_runs(store, run_ids["serial"], run_ids["process"])
        assert report.diffs == (), "process drifted from serial"
        store.close()

    def test_matrix_cells_diff_empty_across_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        cache = ResultCache()
        run_ids = []
        for _ in range(2):
            engine = ExperimentEngine(
                mode="serial", cache=cache, store=store
            )
            try:
                model_scenario_matrix(
                    models=("ftc-baseline", "ftc-refined"),
                    specs=("scenario1-4core",),
                    engine=engine,
                )
            finally:
                engine.close()
            run_ids.append(engine.run_id)
        report = diff_runs(store, run_ids[0], run_ids[1])
        assert report.diffs == ()
        assert report.cells_before == 2
        store.close()


class TestServiceParity:
    @pytest.fixture
    def start_service(self, start_coordinator, start_pull):
        """Factory: a coordinator and one pull worker sharing ``cache``."""

        def _start(results=None, cache=None):
            server = start_coordinator(cache=cache, results=results)
            start_pull(server.url, name="w1", cache=cache)
            wait_workers(server.url, 1)
            return server

        return _start

    def test_service_mode_engine_matches_serial(
        self, start_service, tmp_path
    ):
        server = start_service()
        store = ResultStore(tmp_path / "results")
        serial = ExperimentEngine(mode="serial", store=store)
        figure4_paper_mode(engine=serial)
        service = ExperimentEngine(
            mode="service", coordinator_url=server.url, store=store
        )
        try:
            figure4_paper_mode(engine=service)
        finally:
            service.close()
        assert store.runs()[0]["engine_mode"] == "service"
        report = diff_runs(store, serial.run_id, service.run_id)
        assert report.diffs == ()
        assert report.unchanged == 8
        store.close()

    def test_coordinator_records_fire_and_forget_jobs(
        self, start_service, tmp_path
    ):
        """No client engine attached: the coordinator itself records
        completions under the job id, which then works as a selector."""
        results = ResultStore(tmp_path / "results")
        server = start_service(results=results)
        jobs = figure4_paper_jobs()
        job_id = submit_jobs(server.url, jobs, label="figure4:paper")
        wait_for_job(server.url, job_id, timeout=60.0)
        rows = results.rows(job_id)
        assert len(rows) == len(jobs)
        runs = {run["run_id"]: run for run in results.runs()}
        assert runs[job_id]["engine_mode"] == "service"
        serial = ExperimentEngine(mode="serial", store=results)
        figure4_paper_mode(engine=serial)
        report = diff_runs(results, job_id, serial.run_id)
        assert report.diffs == ()
        results.close()

    def test_born_done_units_are_recorded_at_submit(
        self, start_service, tmp_path
    ):
        """A resubmission fully deduped by the coordinator cache still
        produces a complete, diffable run record."""
        cache = ResultCache()
        results = ResultStore(tmp_path / "results")
        server = start_service(results=results, cache=cache)
        jobs = figure4_paper_jobs()
        first = submit_jobs(server.url, jobs, label="figure4:paper")
        wait_for_job(server.url, first, timeout=60.0)
        second = submit_jobs(server.url, jobs, label="figure4:paper")
        wait_for_job(server.url, second, timeout=60.0)
        assert len(results.rows(second)) == len(jobs)
        report = diff_runs(results, first, second)
        assert report.diffs == ()
        results.close()


# ----------------------------------------------------------------------
# The CLI gate (exit-code contract)
# ----------------------------------------------------------------------
class TestCliDiff:
    def _run_figure4(self, cache_dir, capsys):
        assert cli.main(["figure4", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()  # swallow the table

    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        self._run_figure4(tmp_path, capsys)
        self._run_figure4(tmp_path, capsys)
        code = cli.main(
            ["diff", "latest~1", "latest", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no differences" in out
        assert "8 unchanged" in out

    def test_perturbed_cell_named_and_exit_one(self, tmp_path, capsys):
        self._run_figure4(tmp_path, capsys)
        self._run_figure4(tmp_path, capsys)
        conn = sqlite3.connect(tmp_path / STORE_FILENAME)  # repro: ignore[raw-sqlite] test rewrites the store file directly to seed a stale schema
        latest = conn.execute(
            "SELECT run_id FROM runs ORDER BY started_utc DESC LIMIT 1"
        ).fetchone()[0]
        cell, scenario, model = conn.execute(
            "SELECT cell, scenario, model FROM results "
            "WHERE run_id = ? ORDER BY cell LIMIT 1",
            (latest,),
        ).fetchone()
        conn.execute(
            "UPDATE results SET bound = bound + 1, sound = 0 "
            "WHERE run_id = ? AND cell = ?",
            (latest, cell),
        )
        conn.commit()
        conn.close()
        code = cli.main(
            ["diff", "latest~1", "latest", "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert cell in out
        assert scenario in out and model in out

    def test_export_writes_rows_and_still_gates(self, tmp_path, capsys):
        self._run_figure4(tmp_path, capsys)
        self._run_figure4(tmp_path, capsys)
        conn = sqlite3.connect(tmp_path / STORE_FILENAME)  # repro: ignore[raw-sqlite] test inspects the store file directly to verify persistence
        conn.execute(
            "UPDATE results SET bound = bound + 1 WHERE rowid IN ("
            "  SELECT rowid FROM results WHERE run_id = ("
            "    SELECT run_id FROM runs ORDER BY started_utc DESC LIMIT 1"
            "  ) LIMIT 1)"
        )
        conn.commit()
        conn.close()
        target = tmp_path / "diff.csv"
        code = cli.main(
            [
                "diff",
                "latest~1",
                "latest",
                "--cache-dir",
                str(tmp_path),
                "--export",
                str(target),
            ]
        )
        assert code == 1
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 2  # header + the perturbed bound
        assert lines[1].startswith("changed,")

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert cli.main(["diff", "latest~1", "latest"]) == 2
        assert "cache-dir" in capsys.readouterr().err
        self._run_figure4(tmp_path, capsys)
        code = cli.main(
            ["diff", "no-such-run", "latest", "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "selector" in capsys.readouterr().err

    def test_store_command_lists_recorded_runs(self, tmp_path, capsys):
        self._run_figure4(tmp_path, capsys)
        assert cli.main(["store", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Recorded runs (1)" in out
        assert "serial" in out

    def test_store_backfill_covers_pre_store_caches(self, tmp_path, capsys):
        self._run_figure4(tmp_path, capsys)
        (tmp_path / STORE_FILENAME).unlink()  # pretend the store predates us
        code = cli.main(
            ["store", "--cache-dir", str(tmp_path), "--backfill", "--vacuum"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backfilled 8 rows" in out
        assert "backfill-v" in out
