"""The one hardened sqlite opener every durable store goes through.

Both persistent stores — the coordinator's job queue
(:class:`repro.service.store.JobStore`) and the result store
(:class:`repro.store.ResultStore`) — open their database here, so the
durability rules live in one place:

* ``journal_mode=WAL`` with ``synchronous=NORMAL``, so readers proceed
  while a writer commits and a killed process leaves a consistent file;
* a bounded ``busy_timeout``, so residual lock contention between
  threads or processes is a wait, not ``database is locked``;
* ``PRAGMA quick_check`` before use, then the schema script and the
  store's migration in one transaction;
* a file that fails to open or verify (torn by a disk fault or an
  unclean shutdown mid-checkpoint) is *quarantined* — renamed to
  ``<path>.corrupt-<UTC stamp>`` next to its WAL sidecars, with a
  :class:`RuntimeWarning` — and rebuilt empty, so the owning process
  comes back serving instead of crash-looping.  The preserved file is
  kept for forensics.

The ``raw-sqlite`` lint rule flags ``sqlite3.connect`` anywhere else.
"""

from __future__ import annotations

import os
import sqlite3
import warnings
from typing import Callable

from repro.provenance import utc_file_stamp

#: How long a connection waits on a locked database before failing
#: (milliseconds).  Generous: writers hold the lock for short
#: single-batch transactions only.
BUSY_TIMEOUT_MS = 10_000


def open_database(
    path: str,
    schema: str,
    migrate: Callable[[sqlite3.Connection], None],
    lost: str,
) -> tuple[sqlite3.Connection, str | None]:
    """Open ``path`` hardened; returns ``(connection, quarantined)``.

    Args:
        path: database file (created if missing), or ``":memory:"``.
        schema: idempotent ``CREATE ... IF NOT EXISTS`` script.
        migrate: brings an older database up to the current schema;
            runs inside the schema transaction.
        lost: what the quarantine warning says became of the old
            contents.

    ``quarantined`` names the preserved corrupt file when the database
    had to be rebuilt, ``None`` otherwise.  An in-memory database has
    no file to quarantine, so its failures propagate.
    """
    try:
        return _connect(path, schema, migrate), None
    except sqlite3.DatabaseError as exc:
        if path == ":memory:":
            raise
        target = _quarantine(path, exc, lost)
        return _connect(path, schema, migrate), target


def _connect(
    path: str,
    schema: str,
    migrate: Callable[[sqlite3.Connection], None],
) -> sqlite3.Connection:
    """Connect, apply durability PRAGMAs, verify, migrate."""
    conn = sqlite3.connect(path, check_same_thread=False)
    try:
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        verdict = conn.execute("PRAGMA quick_check").fetchone()
        if verdict is None or verdict[0] != "ok":
            raise sqlite3.DatabaseError(
                f"integrity check failed: {verdict!r}"
            )
        with conn:
            conn.executescript(schema)
            migrate(conn)
    except BaseException:
        conn.close()
        raise
    return conn


def _quarantine(path: str, cause: Exception, lost: str) -> str:
    """Move the corrupt database (and WAL sidecars) out of the way."""
    # UTC, not local wall-clock: quarantine stamps from different hosts
    # must sort consistently (see repro.provenance).
    stamp = utc_file_stamp()
    target = f"{path}.corrupt-{stamp}"
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = f"{path}.corrupt-{stamp}.{suffix}"
    os.replace(path, target)
    for sidecar in ("-wal", "-shm"):
        try:
            os.replace(path + sidecar, target + sidecar)
        except FileNotFoundError:
            pass
    warnings.warn(
        f"sqlite database {path} failed its integrity check ({cause}); "
        f"quarantined to {target} and rebuilt empty — {lost}",
        RuntimeWarning,
        stacklevel=4,
    )
    return target
