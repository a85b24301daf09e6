"""The result store: describing, recording, migration, durability.

Covers the sqlite layer under ``repro diff``: duck-typed cell
extraction, engine-attached recording in every local mode, the v1 -> v2
schema migration (migrated in place, never quarantined), corruption
quarantine, cross-process write concurrency, cache-namespace pruning
beside the store, backfill from disk-cache pickles, and the repr-exact
float formatting the exports switched to.
"""

from __future__ import annotations

import datetime
import math
import os
import pickle
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis.experiments import Figure4Row
from repro.analysis.export import exact_float, figure4_rows, to_csv
from repro.engine.batch import job
from repro.engine.cache import (
    ResultCache,
    cache_namespaces,
    is_miss,
    prune_stale_versions,
    stable_hash,
)
from repro.engine.runner import ExperimentEngine
from repro.errors import ReproError, StoreError
from repro.provenance import GIT_REV_ENV
from repro.service.store import JobStore, UnitSpec
from repro.store import (
    SCHEMA_VERSION,
    STORE_FILENAME,
    ResultStore,
    describe_result,
    diff_runs,
)


def _fig_row(
    scenario="scenario1",
    load="H",
    model="ilp-ptac",
    delta=100,
    slowdown=1.5,
    observed=1.2,
):
    return Figure4Row(
        scenario=scenario,
        load=load,
        model=model,
        delta_cycles=delta,
        slowdown=slowdown,
        observed_slowdown=observed,
    )


def _double(x: int) -> int:
    """Module-level so process-mode workers can pickle the job."""
    return 2 * x


# ----------------------------------------------------------------------
# Duck-typed result description
# ----------------------------------------------------------------------
class TestDescribe:
    def test_figure4_row_becomes_one_cell(self):
        cells = describe_result("figure4:scenario1", _fig_row())
        assert len(cells) == 1
        cell = cells[0]
        assert cell["cell"] == "figure4/scenario1/ilp-ptac/H"
        assert cell["kind"] == "figure4"
        assert cell["scenario"] == "scenario1"
        assert cell["model"] == "ilp-ptac"
        assert cell["load"] == "H"
        assert cell["bound"] == 100.0
        assert cell["predicted"] == 1.5
        assert cell["observed"] == 1.2
        assert cell["tightness"] == 1.5 / 1.2
        assert cell["sound"] is True
        assert cell["platform"] == "tc27x"

    def test_unsound_and_unobserved_rows(self):
        unsound = describe_result("f:x", _fig_row(slowdown=1.0))[0]
        assert unsound["sound"] is False
        blind = describe_result("f:x", _fig_row(observed=None))[0]
        assert blind["sound"] is None
        assert blind["observed"] is None
        assert blind["tightness"] is None

    def test_list_of_rows_expands_elementwise(self):
        rows = [_fig_row(load=level) for level in ("H", "M", "L")]
        cells = describe_result("figure4:batch", rows)
        assert [cell["load"] for cell in cells] == ["H", "M", "L"]
        assert len({cell["cell"] for cell in cells}) == 3

    def test_duplicate_cells_are_disambiguated(self):
        cells = describe_result("f:dup", [_fig_row(), _fig_row()])
        assert cells[0]["cell"] != cells[1]["cell"]
        assert cells[1]["cell"].endswith("#1")

    def test_unrecognised_value_keeps_the_job_diffable(self):
        cells = describe_result("measure:counters", {"reads": 17})
        assert len(cells) == 1
        assert cells[0]["cell"] == "measure:counters"
        assert cells[0]["bound"] is None

    def test_soundness_case_yields_one_cell_per_model(self):
        class Case:
            name = "scenario1-4core"
            predictions = {"ftc-baseline": 200.0, "ilp-ptac": 150.0}
            violations = {"ilp-ptac": -5.0}
            isolation_cycles = 100
            observed_slowdown = 1.6

            def tightness(self, model):
                return self.predictions[model] / 160.0

        cells = describe_result("soundness:s1", Case())
        assert len(cells) == 2
        by_model = {cell["model"]: cell for cell in cells}
        assert by_model["ftc-baseline"]["sound"] is True
        assert by_model["ilp-ptac"]["sound"] is False
        assert by_model["ftc-baseline"]["predicted"] == 2.0


# ----------------------------------------------------------------------
# The store proper
# ----------------------------------------------------------------------
class TestResultStore:
    def test_directory_path_places_the_database_inside(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.path == str(tmp_path / STORE_FILENAME)
        assert (tmp_path / STORE_FILENAME).is_file()
        store.close()

    def test_record_and_query_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        run = store.begin_run(engine_mode="serial", label="unit test")
        written = store.record_batch(
            run, [("figure4:s1", _fig_row(), "abc123")]
        )
        assert written == 1
        rows = store.rows(run)
        assert len(rows) == 1
        row = rows[0]
        assert row["run_id"] == run
        assert row["cache_key"] == "abc123"
        assert row["bound"] == 100.0
        assert row["sound"] is True
        runs = store.runs()
        assert len(runs) == 1
        assert runs[0]["cells"] == 1
        assert runs[0]["engine_mode"] == "serial"
        assert runs[0]["library_version"] == repro.__version__
        store.close()

    def test_timestamps_are_utc_iso8601(self, tmp_path):
        store = ResultStore(tmp_path)
        run = store.begin_run()
        store.record_batch(run, [("f:x", _fig_row(), None)])
        started = store.runs()[0]["started_utc"]
        recorded = store.rows(run)[0]["recorded_utc"]
        for stamp in (started, recorded):
            parsed = datetime.datetime.fromisoformat(stamp)
            assert parsed.tzinfo is not None
            assert parsed.utcoffset() == datetime.timedelta(0)
        store.close()

    def test_rerecording_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        run = store.begin_run()
        store.record_batch(run, [("f:x", _fig_row(), None)])
        store.record_batch(run, [("f:x", _fig_row(), None)])
        assert len(store.rows(run)) == 1
        assert store.runs()[0]["cells"] == 1
        store.close()

    def test_selectors(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GIT_REV_ENV, "feedc0de" * 5)
        store = ResultStore(tmp_path)
        first = store.begin_run()
        second = store.begin_run()
        assert store.resolve("latest") == [second]
        assert store.resolve("latest~1") == [first]
        assert store.resolve(first) == [first]
        assert set(store.resolve("rev:feedc0de")) == {first, second}
        assert set(store.resolve(f"version:{repro.__version__}")) == {
            first,
            second,
        }
        for bad in (
            "latest~2",
            "latest~x",
            "no-such-run",
            "rev:",
            "rev:0000",
            "version:0.0.0",
            "",
        ):
            with pytest.raises(StoreError):
                store.resolve(bad)
        store.close()

    def test_rows_merge_latest_cell_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        old = store.begin_run()
        store.record_batch(old, [("f:x", _fig_row(delta=100), None)])
        new = store.begin_run()
        store.record_batch(new, [("f:x", _fig_row(delta=200), None)])
        merged = store.rows([old, new])
        assert len(merged) == 1
        assert merged[0]["bound"] == 200.0
        store.close()

    def test_delete_runs_and_vacuum(self, tmp_path):
        store = ResultStore(tmp_path)
        run = store.begin_run()
        store.record_batch(run, [("f:x", _fig_row(), None)])
        assert store.delete_runs([run]) == 1
        assert store.runs() == []
        store.vacuum()
        store.close()


class TestSchemaMigration:
    V1_SCHEMA = """
    CREATE TABLE schema_info (version INTEGER NOT NULL);
    INSERT INTO schema_info VALUES (1);
    CREATE TABLE runs (
        run_id          TEXT PRIMARY KEY,
        started_utc     TEXT NOT NULL,
        library_version TEXT NOT NULL,
        git_rev         TEXT,
        label           TEXT NOT NULL DEFAULT ''
    );
    CREATE TABLE results (
        run_id       TEXT NOT NULL,
        cell         TEXT NOT NULL,
        kind         TEXT NOT NULL,
        scenario     TEXT,
        model        TEXT,
        load         TEXT,
        bound        REAL,
        predicted    REAL,
        observed     REAL,
        tightness    REAL,
        sound        INTEGER,
        cache_key    TEXT,
        label        TEXT NOT NULL DEFAULT '',
        recorded_utc TEXT NOT NULL,
        PRIMARY KEY (run_id, cell)
    );
    INSERT INTO runs VALUES
        ('old-run', '2026-01-01T00:00:00+00:00', '0.9.0', 'deadbeef', 'legacy');
    INSERT INTO results VALUES
        ('old-run', 'figure4/s1/m/H', 'figure4', 's1', 'm', 'H',
         10.0, 1.5, 1.2, 1.25, 1, NULL, 'figure4:x',
         '2026-01-01T00:00:01+00:00');
    """

    def _write_v1(self, tmp_path) -> Path:
        path = tmp_path / STORE_FILENAME
        conn = sqlite3.connect(path)  # repro: ignore[raw-sqlite] test inspects the store file directly to verify persistence
        conn.executescript(self.V1_SCHEMA)
        conn.commit()
        conn.close()
        return path

    def test_v1_database_is_migrated_not_quarantined(self, tmp_path):
        self._write_v1(tmp_path)
        store = ResultStore(tmp_path)
        assert store.quarantined is None
        rows = store.rows("old-run")
        assert len(rows) == 1
        assert rows[0]["bound"] == 10.0
        assert rows[0]["sound"] is True
        assert rows[0]["dma_model"] is None
        assert rows[0]["member"] is None
        assert rows[0]["platform"] is None
        runs = store.runs()
        assert runs[0]["engine_mode"] == ""
        assert runs[0]["library_version"] == "0.9.0"
        assert store.resolve("rev:dead") == ["old-run"]
        store.close()
        version = (
            sqlite3.connect(tmp_path / STORE_FILENAME)  # repro: ignore[raw-sqlite] test corrupts the store file directly to exercise recovery
            .execute("SELECT version FROM schema_info")
            .fetchone()[0]
        )
        assert version == SCHEMA_VERSION

    def test_migrated_store_accepts_current_rows(self, tmp_path):
        self._write_v1(tmp_path)
        store = ResultStore(tmp_path)
        run = store.begin_run(engine_mode="serial")
        store.record_batch(run, [("figure4:new", _fig_row(), None)])
        merged = store.rows(["old-run", run])
        assert {row["cell"] for row in merged} == {
            "figure4/s1/m/H",
            "figure4/scenario1/ilp-ptac/H",
        }
        store.close()

    def test_newer_schema_is_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        store.close()
        conn = sqlite3.connect(tmp_path / STORE_FILENAME)  # repro: ignore[raw-sqlite] test inspects the store file directly to verify schema
        conn.execute("UPDATE schema_info SET version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            ResultStore(tmp_path)


def _seed_queue(store: JobStore) -> None:
    store.submit([UnitSpec(entries=[{"payload": "p"}], indices=[0])])


def _seed_results(store: ResultStore) -> None:
    store.record_batch(store.begin_run(), [("f:x", _fig_row(), None)])


class TestQuarantine:
    @pytest.mark.parametrize(
        "store_type, seed, contents",
        [
            pytest.param(
                JobStore, _seed_queue, JobStore.jobs, id="JobStore"
            ),
            pytest.param(
                ResultStore, _seed_results, ResultStore.runs,
                id="ResultStore",
            ),
        ],
    )
    def test_corrupt_database_quarantined_and_rebuilt(
        self, tmp_path, store_type, seed, contents
    ):
        path = tmp_path / "store.sqlite"
        store = store_type(path)
        seed(store)
        store.close()
        path.write_bytes(b"\x00chaos" * max(64, len(path.read_bytes()) // 6))

        with pytest.warns(RuntimeWarning, match="quarantined"):
            rebuilt = store_type(path)
        # The corrupt file is preserved for forensics; the store is
        # empty but immediately usable again.
        assert Path(rebuilt.quarantined).is_file()
        assert Path(rebuilt.quarantined).name.startswith(
            "store.sqlite.corrupt-"
        )
        assert contents(rebuilt) == []
        seed(rebuilt)
        assert len(contents(rebuilt)) == 1
        rebuilt.close()


class TestCrossProcessConcurrency:
    WRITER = """
import sys
from repro.analysis.experiments import Figure4Row
from repro.store import ResultStore

store = ResultStore(sys.argv[1])
tag = sys.argv[2]
run = store.begin_run(engine_mode="writer-" + tag, run_id="run-" + tag)
for i in range(40):
    row = Figure4Row(
        scenario="s%d" % i, load="H", model="m" + tag,
        delta_cycles=i, slowdown=1.0 + i, observed_slowdown=1.0,
    )
    store.record_batch(run, [("conc:%s:%d" % (tag, i), row, None)])
store.close()
"""

    def test_concurrent_writers_lose_no_rows(self, tmp_path):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self.WRITER, str(tmp_path), tag],
                env=env,
                stderr=subprocess.PIPE,
            )
            for tag in ("a", "b")
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        store = ResultStore(tmp_path)
        assert len(store.rows("run-a")) == 40
        assert len(store.rows("run-b")) == 40
        assert {run["run_id"] for run in store.runs()} == {"run-a", "run-b"}
        store.close()


# ----------------------------------------------------------------------
# Engine-attached recording (the one funnel all modes share)
# ----------------------------------------------------------------------
class TestEngineRecording:
    def _batch(self, count=4):
        return [job(_double, i, label=f"t:{i}") for i in range(count)]

    def test_serial_engine_records_each_batch_cell(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExperimentEngine(mode="serial", store=store)
        try:
            results = engine.run(self._batch())
        finally:
            engine.close()
        assert results == [0, 2, 4, 6]
        assert engine.run_id is not None
        assert engine.stats.recorded == 4
        assert len(store.rows(engine.run_id)) == 4
        store.close()

    def test_cache_hits_are_still_recorded(self, tmp_path):
        store = ResultStore(tmp_path)
        cache = ResultCache()
        first = ExperimentEngine(mode="serial", cache=cache, store=store)
        first.run(self._batch())
        second = ExperimentEngine(mode="serial", cache=cache, store=store)
        second.run(self._batch())
        assert second.stats.executed == 0  # pure cache hits...
        assert second.stats.recorded == 4  # ...still recorded
        report = diff_runs(store, first.run_id, second.run_id)
        assert report.diffs == ()
        assert report.unchanged == 4
        row = store.rows(second.run_id)[0]
        assert row["cache_key"]  # hits carry their content address
        store.close()

    def test_one_engine_means_one_run_across_phases(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExperimentEngine(mode="serial", store=store)
        engine.run([job(_double, 1, label="phase1:a")])
        engine.run([job(_double, 2, label="phase2:b")])
        assert len(store.runs()) == 1
        assert len(store.rows(engine.run_id)) == 2
        store.close()

    def test_store_failure_warns_but_never_fails_the_batch(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        monkeypatch.setattr(
            store,
            "record_batch",
            lambda *args, **kwargs: (_ for _ in ()).throw(
                RuntimeError("disk full")
            ),
        )
        engine = ExperimentEngine(mode="serial", store=store)
        with pytest.warns(RuntimeWarning, match="disk full"):
            results = engine.run(self._batch())
        assert results == [0, 2, 4, 6]
        assert engine.stats.recorded == 0
        store.close()


# ----------------------------------------------------------------------
# Cache namespace pruning (beside the store)
# ----------------------------------------------------------------------
class TestPrune:
    def _stale(self, tmp_path, version="0.1.0"):
        stale = tmp_path / f"v{version}"
        stale.mkdir(parents=True, exist_ok=True)
        (stale / "entry.pkl").write_bytes(pickle.dumps({"old": True}))
        return stale

    def test_prune_removes_stale_never_the_active_namespace(self, tmp_path):
        stale = self._stale(tmp_path)
        cache = ResultCache(directory=tmp_path)
        cache.store(stable_hash("keep"), "kept")
        pruned = prune_stale_versions(tmp_path)
        assert pruned == ["0.1.0"]
        assert not stale.exists()
        assert cache.directory.is_dir()
        fresh = ResultCache(directory=tmp_path)
        assert fresh.lookup(stable_hash("keep")) == "kept"

    def test_prune_with_explicit_active_version(self, tmp_path):
        self._stale(tmp_path, "0.1.0")
        self._stale(tmp_path, "0.2.0")
        pruned = prune_stale_versions(tmp_path, active="0.2.0")
        assert pruned == ["0.1.0"]
        assert [version for version, _ in cache_namespaces(tmp_path)] == [
            "0.2.0"
        ]

    def test_prune_during_concurrent_writer_is_safe(self, tmp_path):
        """A writer streaming into the *active* namespace must never
        lose an entry to a concurrent prune."""
        self._stale(tmp_path, "0.1.0")
        cache = ResultCache(directory=tmp_path)
        stop = threading.Event()
        written: list[str] = []

        def writer():
            i = 0
            while not stop.is_set() and i < 500:
                key = stable_hash(("prune-race", i))
                cache.store(key, {"i": i})
                written.append(key)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(25):
                prune_stale_versions(tmp_path)
        finally:
            stop.set()
            thread.join()
        assert not (tmp_path / "v0.1.0").exists()
        assert written
        fresh = ResultCache(directory=tmp_path)
        for key in written:
            assert not is_miss(fresh.lookup(key))


# ----------------------------------------------------------------------
# Backfill from disk-cache pickles
# ----------------------------------------------------------------------
class TestBackfill:
    def test_backfill_describes_every_namespace(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.store(stable_hash("a"), _fig_row(load="H"))
        cache.store(stable_hash("b"), _fig_row(load="M"))
        stale = tmp_path / "v0.9.0"
        stale.mkdir()
        (stale / "old.pkl").write_bytes(pickle.dumps(_fig_row(load="L")))
        (stale / "torn.pkl").write_bytes(b"\x80\x04 torn")  # skipped
        store = ResultStore(tmp_path)
        recorded = store.backfill(tmp_path)
        assert recorded == {repro.__version__: 2, "0.9.0": 1}
        ids = {run["run_id"] for run in store.runs()}
        assert f"backfill-v{repro.__version__}" in ids
        assert "backfill-v0.9.0" in ids
        rows = store.rows(f"backfill-v{repro.__version__}")
        assert {row["cache_key"] for row in rows} == {
            stable_hash("a"),
            stable_hash("b"),
        }
        # Idempotent: re-backfilling replaces, never duplicates.
        assert store.backfill(tmp_path) == recorded
        assert len(store.rows(f"backfill-v{repro.__version__}")) == 2
        store.close()


# ----------------------------------------------------------------------
# repr-exact float formatting in exports (the precision bugfix)
# ----------------------------------------------------------------------
class TestExactFloats:
    AWKWARD = (-0.0, 1.0000000000000002, 5e-324, 1e17 + 1.0, 0.1 + 0.2)

    def test_exact_float_preserves_awkward_values(self):
        for value in self.AWKWARD:
            got = exact_float(value)
            assert isinstance(got, float)
            assert got == value
            assert math.copysign(1.0, got) == math.copysign(1.0, value)
            assert repr(got) == repr(value)
        assert exact_float(None) is None

    def test_exact_float_coerces_numpy_scalars(self):
        numpy = pytest.importorskip("numpy")
        got = exact_float(numpy.float64(0.1 + 0.2))
        assert type(got) is float
        assert got == 0.1 + 0.2

    def test_figure4_export_rows_are_not_rounded(self):
        row = _fig_row(slowdown=1.0000000000000002, observed=0.1 + 0.2)
        exported = figure4_rows([row])[0]
        assert exported["slowdown"] == 1.0000000000000002
        assert exported["observed_slowdown"] == 0.30000000000000004
        # round(x, 6) — the old behaviour — would have collapsed both.
        assert exported["slowdown"] != round(1.0000000000000002, 6)

    def test_csv_round_trips_awkward_floats_exactly(self):
        records = [
            {"name": f"v{i}", "value": value}
            for i, value in enumerate(self.AWKWARD)
        ]
        text = to_csv(records)
        lines = text.strip().splitlines()
        parsed = [float(line.split(",")[1]) for line in lines[1:]]
        for value, back in zip(self.AWKWARD, parsed):
            assert back == value
            assert math.copysign(1.0, back) == math.copysign(1.0, value)

    def test_store_round_trips_awkward_floats_exactly(self, tmp_path):
        store = ResultStore(tmp_path)
        run = store.begin_run()
        for i, value in enumerate(self.AWKWARD):
            store.record_batch(
                run,
                [(f"f:{i}", _fig_row(scenario=f"s{i}", slowdown=value), None)],
            )
        by_scenario = {
            row["scenario"]: row["predicted"] for row in store.rows(run)
        }
        for i, value in enumerate(self.AWKWARD):
            got = by_scenario[f"s{i}"]
            # == only: sqlite's record format stores integral REALs as
            # integers, so -0.0 legitimately comes back as 0.0.  The
            # sign-preservation guarantee lives in the export path.
            assert got == value
            if value != 0.0:
                assert math.copysign(1.0, got) == math.copysign(1.0, value)
        store.close()


class TestCliStoreCommands:
    def test_store_command_requires_cache_dir(self, capsys):
        from repro import cli

        assert cli.main(["store"]) == 2
        assert "cache-dir" in capsys.readouterr().err

    def test_cache_prune_drops_stale_namespace_and_backfill_run(
        self, tmp_path, capsys
    ):
        from repro import cli

        cache = ResultCache(directory=tmp_path)
        cache.store(stable_hash("live"), _fig_row())
        stale = tmp_path / "v0.9.0"
        stale.mkdir()
        (stale / "old.pkl").write_bytes(pickle.dumps(_fig_row(load="L")))
        store = ResultStore(tmp_path)
        store.backfill(tmp_path)
        store.close()
        assert cli.main(["cache", "--cache-dir", str(tmp_path), "--prune"]) == 0
        out = capsys.readouterr().out
        assert "v0.9.0" in out
        assert not stale.exists()
        assert cache.directory.is_dir()
        reopened = ResultStore(tmp_path)
        ids = {run["run_id"] for run in reopened.runs()}
        assert "backfill-v0.9.0" not in ids
        assert f"backfill-v{repro.__version__}" in ids
        reopened.close()

    def test_cache_listing_marks_the_active_namespace(self, tmp_path, capsys):
        from repro import cli

        ResultCache(directory=tmp_path)
        assert cli.main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"v{repro.__version__}" in out
