"""Run provenance: the one place timestamps and revisions are stamped.

Every persistent record this library writes — result-store rows, job
queue metadata, quarantine file names — must carry provenance that is
comparable *across hosts and processes*: a bare ``time.time()`` float is
fine for lease arithmetic but useless next to a row written on another
machine in another timezone, and ``time.strftime`` without an explicit
zone stamps local wall-clock time.  This module is the single helper
everything stamps through:

* :func:`utc_now_iso` / :func:`iso_from_epoch` — UTC ISO-8601 strings
  (``2026-08-07T12:34:56.789012+00:00``), lexicographically sortable and
  unambiguous wherever they are read back;
* :func:`epoch_now` — the current wall-clock instant as epoch seconds,
  for persisted numeric stamps that other hosts compare or convert;
* :func:`git_revision` — the working tree's commit hash, best-effort
  (``None`` outside a checkout), overridable with ``REPRO_GIT_REV`` for
  builds that ship without ``.git``;
* :func:`run_metadata` — the standard provenance dict a new result-store
  run is stamped with.

Timestamps produced here are *metadata*.  Deadlines, lease expiries and
other in-process duration arithmetic use ``time.monotonic()`` instead —
a wall clock can jump backwards under NTP, and a lease that expires on
such a jump re-queues every live unit at once.  The split is enforced by
the ``naive-time`` lint rule: library code outside this module must not
call ``time.time()`` / ``datetime.now()`` directly.
"""

from __future__ import annotations

import datetime
import os
import subprocess
import time

from repro import __version__

#: Environment override for the recorded git revision (CI images and
#: installed wheels have no ``.git`` to ask).
GIT_REV_ENV = "REPRO_GIT_REV"

_cached_git_rev: tuple[str | None] | None = None


def utc_now_iso() -> str:
    """The current instant as a UTC ISO-8601 string.

    Microsecond precision with an explicit ``+00:00`` offset, so strings
    from any host sort lexicographically in time order and round-trip
    through :func:`datetime.datetime.fromisoformat`.
    """
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def epoch_now() -> float:
    """The current wall-clock instant as epoch seconds.

    The one sanctioned source of ``time.time()`` for values that get
    *persisted* (result-store rows, job-queue ``created`` stamps) or
    cross the wire: provenance must be comparable across hosts, which a
    monotonic reading is not.  Never use this for deadlines or lease
    arithmetic — those stay on ``time.monotonic()``.
    """
    return time.time()  # repro: ignore[naive-time] the sanctioned source


def iso_from_epoch(epoch: float) -> str:
    """Convert an epoch-seconds float to the canonical UTC ISO form."""
    stamp = datetime.datetime.fromtimestamp(epoch, datetime.timezone.utc)
    return stamp.isoformat()


def utc_file_stamp() -> str:
    """A filename-safe UTC timestamp (``YYYYmmdd-HHMMSSZ``).

    Used where the canonical ISO form cannot go (colons in file names);
    still UTC, still sortable.
    """
    now = datetime.datetime.now(datetime.timezone.utc)
    return now.strftime("%Y%m%d-%H%M%SZ")


def git_revision(cwd: str | os.PathLike | None = None) -> str | None:
    """The current git commit hash, or ``None`` when unknowable.

    Resolution order: the ``REPRO_GIT_REV`` environment variable, then
    ``git rev-parse HEAD`` run next to this file (cached per process —
    provenance stamping must not fork one subprocess per recorded row).
    Pass ``cwd`` to resolve a different working tree (uncached).
    """
    global _cached_git_rev
    override = os.environ.get(GIT_REV_ENV)
    if override:
        return override
    if cwd is None and _cached_git_rev is not None:
        return _cached_git_rev[0]
    where = str(cwd) if cwd is not None else os.path.dirname(__file__)
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=where,
            capture_output=True,
            text=True,
            timeout=10,
        )
        rev = probe.stdout.strip() if probe.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        rev = None
    if cwd is None:
        _cached_git_rev = (rev,)
    return rev


def run_metadata() -> dict[str, str | None]:
    """The standard provenance stamp of one recorded run."""
    return {
        "library_version": __version__,
        "git_rev": git_revision(),
        "started_utc": utc_now_iso(),
    }
