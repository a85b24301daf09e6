"""The durable job queue: sqlite-backed jobs, units and leases.

One :class:`JobStore` is the coordinator's only persistent state.  A
*job* is one submitted batch; it is split into *units* (the coordinator
makes one per batch job, stored as a one-entry list, the wire shape) and
each unit moves through three states::

    queued ──lease──▶ leased ──complete──▶ done
       ▲                 │
       └──lease expiry───┘   (fence += 1 on every lease and re-queue)

A lease expiry, a quarantined or leaving worker's release and a
rejected completion all re-queue a unit through one fenced statement.  A queue
file written before units lost their scheduling-group column keeps that
column; nothing reads it, so it needs no migration.

Durability and fencing:

* every state transition commits to sqlite before it is acknowledged,
  so a coordinator that crashes and restarts recovers exactly the
  queued, leased and done units it had — completed work is never redone
  and queued work is never lost;
* each unit carries a *fence*, bumped on every lease.  A completion is
  accepted only while the unit is leased under a matching fence, so a
  worker whose lease expired (and whose unit was handed to someone
  else) cannot overwrite the new lease's result — at most one
  completion is ever recorded per lease, and re-runs of pure jobs stay
  harmless;
* live leases *survive* a coordinator restart (owner, fence and expiry
  are all persisted): a worker that keeps executing through the outage
  completes against the same fence, so the unit is not re-run.

Clock discipline: lease expiries are ``time.monotonic()`` readings —
wall clocks can step backwards under NTP, and a backwards jump on
``time.time()`` arithmetic would expire every live lease at once.
Monotonic readings are only comparable within one boot, so
:meth:`JobStore.reclaim_expired` treats an expiry implausibly far in
the future (:data:`LEASE_HORIZON_SECONDS`) as stale and reclaims it.
Persisted *provenance* stamps (``created``, ``cancelled_at``) instead
come from :func:`repro.provenance.epoch_now` — they are read across
hosts and must be real wall-clock time.

Payloads are stored as the wire format's job/result *entry* lists
(JSON text, pickles base64-armoured inside — see
:mod:`repro.engine.remote.wire`), so the store never unpickles anything
and leases can be served byte-identically to what was submitted.

Crash safety: the queue opens through :func:`repro.sqlitedb.open_database`
— WAL journal and a ``busy_timeout``, so the coordinator's threaded
handlers never see ``database is locked`` under concurrent
lease/complete traffic, and a ``PRAGMA quick_check`` whose failure
quarantines the corrupt file and rebuilds an empty queue in its place,
so the coordinator comes back serving instead of crash-looping.  The
quarantined file is kept for forensics (:attr:`JobStore.quarantined`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
import sqlite3
import threading
import time
from typing import Any, Sequence

from repro.errors import EngineError
from repro.provenance import epoch_now, iso_from_epoch
from repro.sqlitedb import open_database

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id       TEXT PRIMARY KEY,
    created      REAL NOT NULL,
    created_utc  TEXT NOT NULL DEFAULT '',
    label        TEXT NOT NULL DEFAULT '',
    meta         TEXT NOT NULL DEFAULT '{}',
    total_units  INTEGER NOT NULL,
    total_jobs   INTEGER NOT NULL,
    cancelled_at REAL
);
CREATE TABLE IF NOT EXISTS units (
    job_id       TEXT NOT NULL,
    unit_index   INTEGER NOT NULL,
    state        TEXT NOT NULL,
    entries      TEXT NOT NULL,
    indices      TEXT NOT NULL,
    fence        INTEGER NOT NULL DEFAULT 0,
    lease_owner  TEXT,
    lease_expiry REAL,
    result       TEXT,
    PRIMARY KEY (job_id, unit_index)
);
CREATE INDEX IF NOT EXISTS units_by_state ON units (state);
"""

#: Unit lifecycle states.  A unit reaches ``cancelled`` only through
#: :meth:`JobStore.cancel`; the state is terminal, and because
#: completion requires ``state = leased`` under a matching fence, every
#: in-flight completion of a cancelled unit is rejected automatically.
QUEUED, LEASED, DONE, CANCELLED = "queued", "leased", "done", "cancelled"

#: Sanity horizon on lease expiries, in seconds.  Lease arithmetic runs
#: on ``time.monotonic()`` (a wall clock stepping backwards under NTP
#: must not expire every live lease at once), but monotonic readings
#: restart from near zero on reboot: an expiry persisted before a
#: reboot can sit arbitrarily far in the new clock's future.  Any lease
#: expiring more than this far ahead cannot have been issued by the
#: current boot's clock, so :meth:`JobStore.reclaim_expired` treats it
#: as already expired instead of stranding the unit forever.
LEASE_HORIZON_SECONDS = 7 * 24 * 3600.0


@dataclasses.dataclass(frozen=True)
class UnitSpec:
    """One unit of a submission, as handed to :meth:`JobStore.submit`.

    Attributes:
        entries: the unit's wire job entries (JSON-ready dicts).
        indices: positions of the unit's jobs in the submitted batch.
        result: pre-computed result entries (coordinator-cache hits
            dedupe at submission: the unit is born ``done``).
    """

    entries: Sequence[dict]
    indices: Sequence[int]
    result: Sequence[dict] | None = None


@dataclasses.dataclass(frozen=True)
class JobRecord:
    """One job's persistent summary plus live unit counts."""

    job_id: str
    created: float
    label: str
    meta: dict
    total_units: int
    total_jobs: int
    queued: int
    leased: int
    done: int
    cancelled_units: int = 0
    cancelled_at: float | None = None
    created_utc: str = ""

    @property
    def complete(self) -> bool:
        return self.done == self.total_units

    @property
    def cancelled(self) -> bool:
        return self.cancelled_at is not None

    @property
    def finished(self) -> bool:
        """No further state transitions will happen (done or cancelled)."""
        return self.complete or self.cancelled


@dataclasses.dataclass(frozen=True)
class UnitView:
    """One unit's queue-visible state (payload omitted)."""

    job_id: str
    unit_index: int
    state: str
    fence: int
    lease_owner: str | None
    lease_expiry: float | None
    jobs: int


class JobStore:
    """Sqlite-backed queue of jobs, units and leases.

    Thread-safe: the coordinator's threaded HTTP handlers share one
    instance through an internal lock (sqlite serialises writers anyway;
    the lock keeps read-modify-write sequences atomic).

    Args:
        path: database file, created if missing.  ``":memory:"`` builds
            a throwaway store (unit tests); real coordinators pass a
            file so the queue survives restarts.

    A corrupt database file is quarantined and rebuilt rather than
    raised (see the module docstring); :attr:`quarantined` names the
    preserved file when that happened, ``None`` otherwise.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._lock = threading.RLock()
        self._conn, self.quarantined = open_database(
            str(path),
            _SCHEMA,
            self._migrate,
            "submitted jobs before the corruption are lost, but the "
            "coordinator is serving again",
        )

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Bring an older database up to the current schema."""
        columns = {
            row[1] for row in conn.execute("PRAGMA table_info(jobs)")
        }
        if "cancelled_at" not in columns:
            conn.execute("ALTER TABLE jobs ADD COLUMN cancelled_at REAL")
        if "created_utc" not in columns:
            conn.execute(
                "ALTER TABLE jobs ADD COLUMN created_utc "
                "TEXT NOT NULL DEFAULT ''"
            )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        units: Sequence[UnitSpec],
        *,
        label: str = "",
        meta: dict | None = None,
    ) -> str:
        """Record one submitted batch; returns its fresh job id."""
        if not units:
            raise EngineError("cannot submit a job with no units")
        job_id = secrets.token_hex(6)
        jobs = sum(len(unit.indices) for unit in units)
        # One clock reading for both spellings: `created` stays a float
        # (ordering), `created_utc` is the portable cross-host
        # provenance form.  Both are persisted, so both come from the
        # provenance wall clock — never the monotonic lease clock.
        now = epoch_now()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO jobs (job_id, created, created_utc, label, "
                "meta, total_units, total_jobs) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    job_id,
                    now,
                    iso_from_epoch(now),
                    label,
                    json.dumps(meta or {}),
                    len(units),
                    jobs,
                ),
            )
            for index, unit in enumerate(units):
                done = unit.result is not None
                self._conn.execute(
                    "INSERT INTO units (job_id, unit_index, state, "
                    "entries, indices, result) VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        job_id,
                        index,
                        DONE if done else QUEUED,
                        json.dumps(list(unit.entries)),
                        json.dumps(list(unit.indices)),
                        json.dumps(list(unit.result)) if done else None,
                    ),
                )
        return job_id

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def reclaim_expired(self, now: float | None = None) -> list[tuple[str, int]]:
        """Re-queue every lease past its expiry (fence bumped).

        Returns the reclaimed ``(job_id, unit_index)`` pairs — the
        heartbeat-loss reassignment that hands a dead worker's units to
        the rest of the fleet.  ``now`` and the stored expiries are
        ``time.monotonic()`` readings; expiries past
        :data:`LEASE_HORIZON_SECONDS` are stale stamps from a previous
        boot's clock and are reclaimed too.
        """
        now = time.monotonic() if now is None else now
        with self._lock, self._conn:
            rows = self._conn.execute(
                "SELECT job_id, unit_index, fence FROM units "
                "WHERE state = ? AND (lease_expiry < ? OR lease_expiry > ?)",
                (LEASED, now, now + LEASE_HORIZON_SECONDS),
            ).fetchall()
            for job_id, unit_index, fence in rows:
                self._requeue(job_id, unit_index, fence)
        return [(job_id, unit_index) for job_id, unit_index, _ in rows]

    def _requeue(self, job_id: str, unit_index: int, fence: int) -> bool:
        """The one re-queue statement (caller holds lock and transaction).

        Puts the unit back in the queue only while it is still leased
        under ``fence``, bumping the fence and clearing owner and
        expiry, so a re-queue ends exactly the lease instance its caller
        saw.  Lease expiry, worker release and rejected completions all
        go through it.
        """
        cursor = self._conn.execute(
            "UPDATE units SET state = ?, fence = fence + 1, "
            "lease_owner = NULL, lease_expiry = NULL "
            "WHERE job_id = ? AND unit_index = ? AND state = ? AND fence = ?",
            (QUEUED, job_id, unit_index, LEASED, fence),
        )
        return cursor.rowcount == 1

    def requeue(self, job_id: str, unit_index: int, fence: int) -> bool:
        """Re-queue one unit if it is still leased under ``fence``.

        Returns whether it was.  The coordinator calls this when it
        rejects a completion: the uploader has dropped the unit, so
        waiting for the lease to expire would strand it for as long as
        the uploader's heartbeats keep renewing the lease.
        """
        with self._lock, self._conn:
            return self._requeue(job_id, unit_index, fence)

    def oldest_queued_unit(self) -> tuple[str, int] | None:
        """The ``(job_id, unit_index)`` queued first, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id, unit_index FROM units "
                "WHERE state = ? ORDER BY rowid LIMIT 1",
                (QUEUED,),
            ).fetchone()
        return None if row is None else (row[0], row[1])

    def lease(
        self,
        job_id: str,
        unit_index: int,
        worker_id: str,
        expiry: float,
    ) -> tuple[int, list[dict], list[int]] | None:
        """Lease one queued unit to ``worker_id``.

        Returns ``(fence, entries, indices)``, or ``None`` when the unit
        was no longer queued (raced away).  The fence is bumped *by* the
        lease, so each lease instance is uniquely fenced.
        """
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE units SET state = ?, fence = fence + 1, "
                "lease_owner = ?, lease_expiry = ? "
                "WHERE job_id = ? AND unit_index = ? AND state = ?",
                (LEASED, worker_id, expiry, job_id, unit_index, QUEUED),
            )
            if cursor.rowcount != 1:
                return None
            fence, entries, indices = self._conn.execute(
                "SELECT fence, entries, indices FROM units "
                "WHERE job_id = ? AND unit_index = ?",
                (job_id, unit_index),
            ).fetchone()
        return fence, json.loads(entries), json.loads(indices)

    def renew_leases(self, worker_id: str, expiry: float) -> int:
        """Extend every live lease held by ``worker_id`` (heartbeat)."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE units SET lease_expiry = ? "
                "WHERE state = ? AND lease_owner = ?",
                (expiry, LEASED, worker_id),
            )
            return cursor.rowcount

    def next_lease_expiry(self) -> float | None:
        """The earliest expiry of a live lease (a ``time.monotonic()``
        reading), or ``None`` when no unit is leased — when a waiting
        lease must next look for an expired lease to reclaim."""
        with self._lock:
            row = self._conn.execute(
                "SELECT MIN(lease_expiry) FROM units WHERE state = ?",
                (LEASED,),
            ).fetchone()
        return row[0]

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(
        self,
        job_id: str,
        unit_index: int,
        fence: int,
        result_entries: Sequence[dict],
    ) -> bool:
        """Record one unit's results, fenced.

        Accepted only while the unit is leased under the presented
        fence; a stale completion (the lease expired and was re-issued)
        returns ``False`` and records nothing.  The owner id is *not*
        part of the check: the fence already identifies the lease
        instance, and a worker that re-registered under a new id after a
        coordinator restart must still be able to land its in-flight
        unit.
        """
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE units SET state = ?, result = ?, "
                "lease_owner = NULL, lease_expiry = NULL "
                "WHERE job_id = ? AND unit_index = ? "
                "AND state = ? AND fence = ?",
                (
                    DONE,
                    json.dumps(list(result_entries)),
                    job_id,
                    unit_index,
                    LEASED,
                    fence,
                ),
            )
            return cursor.rowcount == 1

    # ------------------------------------------------------------------
    # Cancellation and forced lease release
    # ------------------------------------------------------------------
    def cancel(self, job_id: str, now: float | None = None) -> bool:
        """Cancel one job; returns whether the job exists.

        Queued and leased units move to the terminal ``cancelled``
        state with their fence bumped, so any in-flight completion is
        rejected (completion requires ``state = leased`` under the
        presented fence).  The lease owner is *kept* on cancelled
        units: heartbeats use it to tell a worker mid-unit that the
        rest of its unit is no longer wanted.  Done units keep their
        results.  Idempotent — cancelling twice records the first
        timestamp.
        """
        now = epoch_now() if now is None else now
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET cancelled_at = ? "
                "WHERE job_id = ? AND cancelled_at IS NULL",
                (now, job_id),
            )
            known = (
                cursor.rowcount == 1
                or self._conn.execute(
                    "SELECT 1 FROM jobs WHERE job_id = ?", (job_id,)
                ).fetchone()
                is not None
            )
            if known:
                self._conn.execute(
                    "UPDATE units SET state = ?, fence = fence + 1, "
                    "lease_expiry = NULL "
                    "WHERE job_id = ? AND state IN (?, ?)",
                    (CANCELLED, job_id, QUEUED, LEASED),
                )
            return known

    def cancelled_jobs_for(self, worker_id: str) -> list[str]:
        """Cancelled job ids whose units ``worker_id`` last held —
        the heartbeat payload telling a worker to stop mid-unit."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT job_id FROM units "
                "WHERE state = ? AND lease_owner = ?",
                (CANCELLED, worker_id),
            ).fetchall()
        return [row[0] for row in rows]

    def release_worker(self, worker_id: str) -> list[tuple[str, int]]:
        """Re-queue every live lease held by ``worker_id`` (fence
        bumped) — the immediate reassignment behind worker quarantine
        and a worker's clean stop, where waiting for lease expiry would
        leave the worker's units dangling."""
        with self._lock, self._conn:
            rows = self._conn.execute(
                "SELECT job_id, unit_index, fence FROM units "
                "WHERE state = ? AND lease_owner = ?",
                (LEASED, worker_id),
            ).fetchall()
            for job_id, unit_index, fence in rows:
                self._requeue(job_id, unit_index, fence)
        return [(job_id, unit_index) for job_id, unit_index, _ in rows]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> JobRecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id, created, label, meta, total_units, "
                "total_jobs, cancelled_at, created_utc "
                "FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
            if row is None:
                return None
            counts = dict(
                self._conn.execute(
                    "SELECT state, COUNT(*) FROM units WHERE job_id = ? "
                    "GROUP BY state",
                    (job_id,),
                ).fetchall()
            )
        return self._record(row, counts)

    def jobs(self) -> list[JobRecord]:
        """Every job, newest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, created, label, meta, total_units, "
                "total_jobs, cancelled_at, created_utc FROM jobs "
                "ORDER BY created DESC, job_id"
            ).fetchall()
            counts: dict[str, dict[str, int]] = {}
            for job_id, state, count in self._conn.execute(
                "SELECT job_id, state, COUNT(*) FROM units "
                "GROUP BY job_id, state"
            ):
                counts.setdefault(job_id, {})[state] = count
        return [self._record(row, counts.get(row[0], {})) for row in rows]

    @staticmethod
    def _record(row: Sequence[Any], counts: dict[str, int]) -> JobRecord:
        (
            job_id,
            created,
            label,
            meta,
            total_units,
            total_jobs,
            cancelled_at,
            created_utc,
        ) = row
        return JobRecord(
            job_id=job_id,
            created=created,
            label=label,
            meta=json.loads(meta),
            total_units=total_units,
            total_jobs=total_jobs,
            queued=counts.get(QUEUED, 0),
            leased=counts.get(LEASED, 0),
            done=counts.get(DONE, 0),
            cancelled_units=counts.get(CANCELLED, 0),
            cancelled_at=cancelled_at,
            created_utc=created_utc,
        )

    def units(self, job_id: str) -> list[UnitView]:
        """Per-unit progress of one job (payloads omitted)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, unit_index, state, fence, "
                "lease_owner, lease_expiry, indices FROM units "
                "WHERE job_id = ? ORDER BY unit_index",
                (job_id,),
            ).fetchall()
        return [
            UnitView(*row[:6], jobs=len(json.loads(row[6]))) for row in rows
        ]

    def unit_job_count(self, job_id: str, unit_index: int) -> int | None:
        """How many batch jobs one unit carries (``None`` if unknown) —
        the expected result-entry count a completion must match."""
        with self._lock:
            row = self._conn.execute(
                "SELECT indices FROM units "
                "WHERE job_id = ? AND unit_index = ?",
                (job_id, unit_index),
            ).fetchone()
        if row is None:
            return None
        return len(json.loads(row[0]))

    def unit_entries(self, job_id: str, unit_index: int) -> list[dict]:
        """The stored job entries of one unit (cache passthrough)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT entries FROM units "
                "WHERE job_id = ? AND unit_index = ?",
                (job_id, unit_index),
            ).fetchone()
        if row is None:
            raise EngineError(f"unknown unit {job_id}/{unit_index}")
        return json.loads(row[0])

    def results(
        self, job_id: str
    ) -> tuple[JobRecord, list[dict]]:
        """``(record, done units)`` with each unit's indices + entries."""
        record = self.job(job_id)
        if record is None:
            raise EngineError(f"unknown job id {job_id!r}")
        with self._lock:
            rows = self._conn.execute(
                "SELECT unit_index, indices, result FROM units "
                "WHERE job_id = ? AND state = ? ORDER BY unit_index",
                (job_id, DONE),
            ).fetchall()
        units = [
            {
                "unit": unit_index,
                "indices": json.loads(indices),
                "results": json.loads(result),
            }
            for unit_index, indices, result in rows
        ]
        return record, units

    def counts(self) -> dict[str, int]:
        """Fleet-level unit counts (the coordinator's health document)."""
        with self._lock:
            jobs = self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()
            states = dict(
                self._conn.execute(
                    "SELECT state, COUNT(*) FROM units GROUP BY state"
                ).fetchall()
            )
        return {
            "jobs": jobs[0],
            "queued": states.get(QUEUED, 0),
            "leased": states.get(LEASED, 0),
            "done": states.get(DONE, 0),
            "cancelled": states.get(CANCELLED, 0),
        }
