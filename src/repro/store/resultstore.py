"""The incremental result store: sqlite rows over the pickle cache.

The disk :class:`~repro.engine.cache.ResultCache` remembers raw result
pickles but answers no questions across runs — "did any bound move since
yesterday?" requires loading every pickle and knowing what produced it.
The :class:`ResultStore` is the queryable layer: one sqlite database
(``results.sqlite`` beside the cache's version namespaces) recording one
row per completed engine job cell with full provenance — cache key,
scenario/model/load/dma-model/member/platform identity, bound, predicted
and observed slowdown, tightness, soundness verdict, library version,
git revision, UTC timestamp and run id.

Rows arrive three ways, all landing in the same tables:

* the engine's recording hook — every execution mode
  (serial/process/service) funnels through
  :meth:`repro.engine.runner.ExperimentEngine.run`, which records each
  batch through :meth:`ResultStore.record_batch` when a store is
  attached;
* coordinator-side recording — fire-and-forget service submissions
  complete on the coordinator while no client engine is attached, so the
  coordinator records unit completions itself;
* :meth:`ResultStore.backfill` — existing disk-cache pickles from
  before the store existed are described into rows after the fact.

The database opens through :func:`repro.sqlitedb.open_database` (WAL,
busy timeout, ``quick_check`` with quarantine-and-rebuild), and its
migration is additive ``ALTER TABLE`` so old databases open under newer
libraries instead of being discarded.  All timestamps are UTC ISO-8601
via :mod:`repro.provenance`.
"""

from __future__ import annotations

import os
import pickle
import secrets
import sqlite3
import threading
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import StoreError
from repro.provenance import run_metadata, utc_now_iso
from repro.sqlitedb import open_database
from repro.store.describe import CELL_FIELDS, describe_result

#: Database file name, created beside the cache's ``v<version>/``
#: namespaces so one ``--cache-dir`` owns both layers.
STORE_FILENAME = "results.sqlite"

#: Current schema version.  v1 predates the ``dma_model`` / ``member``
#: / ``platform`` identity columns and the run-level ``engine_mode``;
#: opening a v1 database migrates it in place (see :meth:`_migrate`).
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_info (
    version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id          TEXT PRIMARY KEY,
    started_utc     TEXT NOT NULL,
    library_version TEXT NOT NULL,
    git_rev         TEXT,
    engine_mode     TEXT NOT NULL DEFAULT '',
    label           TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS results (
    run_id       TEXT NOT NULL,
    cell         TEXT NOT NULL,
    kind         TEXT NOT NULL,
    scenario     TEXT,
    model        TEXT,
    load         TEXT,
    dma_model    TEXT,
    member       TEXT,
    platform     TEXT,
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
CREATE INDEX IF NOT EXISTS results_by_cell ON results (cell);
"""

#: Columns a result row carries beyond the described cell fields.
ROW_FIELDS = CELL_FIELDS + ("cache_key", "label", "recorded_utc", "run_id")


class ResultStore:
    """Sqlite result store over a cache directory.

    Args:
        path: either the database file itself or a cache *directory*
            (``results.sqlite`` is placed inside).  ``":memory:"``
            builds a throwaway store for tests.

    Thread-safe within a process (internal lock) and safe across
    processes (WAL + busy timeout; every write is one short
    transaction).  A corrupt database is quarantined and rebuilt, with
    the preserved file named by :attr:`quarantined`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._lock = threading.RLock()
        target = str(path)
        if target != ":memory:":
            as_path = Path(target)
            if as_path.is_dir() or not as_path.suffix:
                as_path.mkdir(parents=True, exist_ok=True)
                as_path = as_path / STORE_FILENAME
            else:
                as_path.parent.mkdir(parents=True, exist_ok=True)
            target = str(as_path)
        self._path = target
        self._conn, self.quarantined = open_database(
            target,
            _SCHEMA,
            self._migrate,
            "recorded runs before the corruption are preserved there but "
            "no longer queryable",
        )

    @property
    def path(self) -> str:
        return self._path

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Bring an older database up to :data:`SCHEMA_VERSION` in place.

        Migration is additive (``ALTER TABLE ... ADD COLUMN``) so a v1
        database written by an older library opens — rows intact,
        missing columns null — rather than being quarantined or
        rebuilt.  A database from a *newer* library is refused: silently
        dropping columns it relies on would corrupt its meaning.
        """
        row = conn.execute("SELECT version FROM schema_info").fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO schema_info (version) VALUES (?)",
                (SCHEMA_VERSION,),
            )
            return
        version = row[0]
        if version > SCHEMA_VERSION:
            raise StoreError(
                f"result store schema v{version} is newer than this "
                f"library understands (v{SCHEMA_VERSION}); refusing to "
                "downgrade it"
            )
        if version == SCHEMA_VERSION:
            return
        result_columns = {
            row[1] for row in conn.execute("PRAGMA table_info(results)")
        }
        for column, decl in (
            ("dma_model", "TEXT"),
            ("member", "TEXT"),
            ("platform", "TEXT"),
        ):
            if column not in result_columns:
                conn.execute(
                    f"ALTER TABLE results ADD COLUMN {column} {decl}"
                )
        run_columns = {
            row[1] for row in conn.execute("PRAGMA table_info(runs)")
        }
        if "engine_mode" not in run_columns:
            conn.execute(
                "ALTER TABLE runs ADD COLUMN engine_mode "
                "TEXT NOT NULL DEFAULT ''"
            )
        conn.execute("UPDATE schema_info SET version = ?", (SCHEMA_VERSION,))

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin_run(
        self,
        *,
        engine_mode: str = "",
        label: str = "",
        run_id: str | None = None,
    ) -> str:
        """Open one recorded run, stamped with full provenance.

        Returns the run id.  Pass ``run_id`` to adopt an external
        identity (the coordinator reuses its job ids so ``repro diff``
        selectors and ``repro status`` name the same thing); re-opening
        an existing id is a no-op, so retried submissions stay safe.
        """
        run_id = run_id or secrets.token_hex(6)
        meta = run_metadata()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO runs (run_id, started_utc, "
                "library_version, git_rev, engine_mode, label) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    meta["started_utc"],
                    meta["library_version"],
                    meta["git_rev"],
                    engine_mode,
                    label,
                ),
            )
        return run_id

    def record_batch(
        self,
        run_id: str,
        completed: Iterable[tuple[str, Any, str | None]],
    ) -> int:
        """Record many ``(label, value, cache_key)`` jobs in one commit.

        Cells are keyed ``(run_id, cell)`` with last-writer-wins
        replacement, so re-recording a cache-hit batch is idempotent.
        """
        stamp = utc_now_iso()
        rows: list[tuple] = []
        for label, value, cache_key in completed:
            for cell in describe_result(label, value):
                rows.append(
                    tuple(cell[field] for field in CELL_FIELDS)
                    + (cache_key, label, stamp, run_id)
                )
        if not rows:
            return 0
        columns = ", ".join(ROW_FIELDS)
        holes = ", ".join("?" for _ in ROW_FIELDS)
        with self._lock, self._conn:
            self._conn.executemany(
                f"INSERT OR REPLACE INTO results ({columns}) "
                f"VALUES ({holes})",
                rows,
            )
        return len(rows)

    # ------------------------------------------------------------------
    # Backfill
    # ------------------------------------------------------------------
    def backfill(self, cache_dir: str | os.PathLike) -> dict[str, int]:
        """Describe existing disk-cache pickles into store rows.

        Scans every ``v<version>/`` namespace under ``cache_dir`` and
        records one run per namespace (run id ``backfill-v<version>``,
        idempotent: re-backfilling replaces the same cells).  Labels are
        unknown for cached pickles, so cells are keyed by their
        described identity columns alone.  Returns
        ``{version: rows_recorded}``.
        """
        recorded: dict[str, int] = {}
        root = Path(cache_dir)
        for namespace in sorted(root.glob("v*")):
            if not namespace.is_dir():
                continue
            version = namespace.name[1:]
            completed: list[tuple[str, Any, str | None]] = []
            for entry in sorted(namespace.glob("*.pkl")):
                try:
                    with open(entry, "rb") as handle:
                        value = pickle.load(handle)
                except (OSError, pickle.UnpicklingError, EOFError,
                        AttributeError, ImportError):
                    continue  # torn or unloadable entry: skip, not fatal
                completed.append(("", value, entry.stem))
            if not completed:
                continue
            run_id = self.begin_run(
                engine_mode="backfill",
                label=f"backfill of cache namespace v{version}",
                run_id=f"backfill-v{version}",
            )
            count = self.record_batch(run_id, completed)
            recorded[version] = count
        return recorded

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def runs(self) -> list[dict[str, Any]]:
        """Every recorded run, newest first, with its cell count."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT r.run_id, r.started_utc, r.library_version, "
                "r.git_rev, r.engine_mode, r.label, COUNT(c.cell) "
                "FROM runs r LEFT JOIN results c ON c.run_id = r.run_id "
                "GROUP BY r.run_id "
                "ORDER BY r.started_utc DESC, r.run_id DESC"
            ).fetchall()
        return [
            {
                "run_id": run_id,
                "started_utc": started,
                "library_version": version,
                "git_rev": git_rev,
                "engine_mode": mode,
                "label": label,
                "cells": cells,
            }
            for run_id, started, version, git_rev, mode, label, cells in rows
        ]

    def rows(self, run_ids: str | Sequence[str]) -> list[dict[str, Any]]:
        """All cells of the given run(s), as dicts keyed by
        :data:`ROW_FIELDS`.  With several runs, the *latest* row per
        cell wins (runs merge in start order), so a selector like
        ``rev:abc123`` behaves as "the newest known value of every cell
        at that revision"."""
        if isinstance(run_ids, str):
            run_ids = [run_ids]
        if not run_ids:
            return []
        ordered = self._in_start_order(run_ids)
        merged: dict[str, dict[str, Any]] = {}
        columns = ", ".join(ROW_FIELDS)
        with self._lock:
            for run_id in ordered:
                fetched = self._conn.execute(
                    f"SELECT {columns} FROM results WHERE run_id = ? "
                    "ORDER BY cell",
                    (run_id,),
                ).fetchall()
                for values in fetched:
                    row = dict(zip(ROW_FIELDS, values))
                    if row["sound"] is not None:
                        row["sound"] = bool(row["sound"])
                    merged[row["cell"]] = row
        return [merged[cell] for cell in sorted(merged)]

    def _in_start_order(self, run_ids: Sequence[str]) -> list[str]:
        """The given runs sorted oldest-first by their start stamp."""
        with self._lock:
            stamps = dict(
                self._conn.execute(
                    "SELECT run_id, started_utc FROM runs WHERE run_id "
                    f"IN ({', '.join('?' for _ in run_ids)})",
                    list(run_ids),
                ).fetchall()
            )
        return sorted(run_ids, key=lambda rid: (stamps.get(rid, ""), rid))

    # ------------------------------------------------------------------
    # Selectors
    # ------------------------------------------------------------------
    def resolve(self, selector: str) -> list[str]:
        """Resolve one run selector to run ids (newest first).

        Accepted forms:

        * an exact run id (as printed by ``repro store``);
        * ``latest`` — the most recent run; ``latest~N`` — N runs back;
        * ``rev:<prefix>`` — every run whose git revision starts with
          the prefix;
        * ``version:<v>`` — every run recorded by library version `v`.

        Multi-run selectors merge through :meth:`rows` (latest cell
        wins).  Raises :class:`~repro.errors.StoreError` when nothing
        matches.
        """
        if not selector:
            raise StoreError("empty run selector")
        if selector.startswith("rev:"):
            prefix = selector[len("rev:"):]
            if not prefix:
                raise StoreError("empty revision in 'rev:' selector")
            matched = self._run_ids_where(
                "git_rev LIKE ?", (prefix + "%",)
            )
            if not matched:
                raise StoreError(
                    f"no recorded runs at a revision matching {prefix!r}"
                )
            return matched
        if selector.startswith("version:"):
            version = selector[len("version:"):]
            matched = self._run_ids_where(
                "library_version = ?", (version,)
            )
            if not matched:
                raise StoreError(
                    f"no recorded runs from library version {version!r}"
                )
            return matched
        if selector == "latest" or selector.startswith("latest~"):
            back = 0
            if selector.startswith("latest~"):
                try:
                    back = int(selector[len("latest~"):])
                except ValueError:
                    raise StoreError(
                        f"bad selector {selector!r}: expected latest~N"
                    ) from None
                if back < 0:
                    raise StoreError(
                        f"bad selector {selector!r}: N must be >= 0"
                    )
            known = self._run_ids_where("1", ())
            if back >= len(known):
                raise StoreError(
                    f"selector {selector!r} reaches past the "
                    f"{len(known)} recorded run(s)"
                )
            return [known[back]]
        if self._run_ids_where("run_id = ?", (selector,)):
            return [selector]
        raise StoreError(
            f"unknown run selector {selector!r}: not a recorded run id, "
            "latest[~N], rev:<prefix> or version:<v>"
        )

    def _run_ids_where(self, clause: str, params: tuple) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                f"SELECT run_id FROM runs WHERE {clause} "
                "ORDER BY started_utc DESC, run_id DESC",
                params,
            ).fetchall()
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def vacuum(self) -> None:
        """Compact the database file (after deletes or a big backfill)."""
        with self._lock:
            self._conn.execute("VACUUM")

    def delete_runs(self, run_ids: Sequence[str]) -> int:
        """Drop the given runs and their cells; returns runs removed."""
        if not run_ids:
            return 0
        holes = ", ".join("?" for _ in run_ids)
        with self._lock, self._conn:
            self._conn.execute(
                f"DELETE FROM results WHERE run_id IN ({holes})",
                list(run_ids),
            )
            cursor = self._conn.execute(
                f"DELETE FROM runs WHERE run_id IN ({holes})",
                list(run_ids),
            )
            return cursor.rowcount
