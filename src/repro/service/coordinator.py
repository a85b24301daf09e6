"""The coordinator: a durable queue front with worker auto-registration.

One :class:`CoordinatorServer` (the ``repro serve`` process) owns a
:class:`~repro.service.store.JobStore` and speaks the version-2 service
envelopes (:mod:`repro.engine.remote.wire`) over plain HTTP:

* **clients** POST ``/submit`` (a batch of engine jobs), get a job id
  back immediately, and poll ``/jobs/<id>`` / ``/jobs/<id>/results``
  until the queue drains — the ``repro submit`` / ``status`` / ``watch``
  commands and the engine's ``mode="service"`` executor;
* **workers** dial *in*: POST ``/register`` once, then loop POST
  ``/lease`` → execute → POST ``/complete``, renewing their leases with
  POST ``/heartbeat`` — no static worker list anywhere.  A worker whose
  heartbeats stop has its leases expire and re-queued (fence bumped), so
  another worker picks its units up; a worker that stops cleanly sends
  one last heartbeat marked ``leaving``, which drops its registration
  and re-queues what it holds at once.

The lease protocol.  A lease request names its worker and may carry a
``wait`` in seconds (a finite number, at least 0).  Without ``wait`` it
is answered at once: a grant, or an empty answer.  With ``wait`` and
nothing to lease, it blocks on one condition for up to ``wait``
seconds.  Every transition that makes a unit leasable notifies it
(submission, a fence re-queue of a rejected completion, a release or
eviction, an expired-lease reclaim), and it also wakes at the earliest
lease expiry, so a dead worker's unit is reclaimed and re-leased when
its lease runs out.  It then answers with a grant, or with an empty
answer marked ``waited``; a worker leases again at once after that and
paces itself only after an empty answer without the mark (a coordinator
that predates waiting leases).  Stopping the coordinator answers every
waiting lease empty.

Scheduling is first come, first served: every job of a submitted batch
becomes its own unit, and a lease takes the oldest queued unit.  A
worker holds at most one unit at a time — it leases again only after
completing or dropping its unit — so a lease request re-queues (fence
bumped) whatever the requester still holds: a grant lost in transit
never strands its unit behind the worker's heartbeats.
Placement needs no affinity, because warm ILP state lives in each worker
process: a worker that has solved a structure before warm-starts it
again whichever unit brings it back, and results never depend on who
ran what.

The coordinator's optional :class:`~repro.engine.cache.ResultCache`
dedupes at the queue: a submitted unit whose job already has a cached
result is born ``done`` without ever reaching a worker, and every
completed value is stored back, so repeated submissions answer from
disk.  All state transitions land in sqlite before they are
acknowledged — kill the coordinator mid-job, restart it on the same
state directory, and queued, leased and done units all resume exactly
where they were.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import secrets
import select
import socket
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.engine.cache import ResultCache, is_miss
from repro.engine.remote.wire import (
    ACCEPTED_KIND,
    CANCEL_KIND,
    CANCELLED_KIND,
    COMPLETE_PATH,
    HEALTH_PATH,
    HEARTBEAT_ACK_KIND,
    HEARTBEAT_KIND,
    HEARTBEAT_PATH,
    JOBS_PATH,
    LEASE_PATH,
    LEASE_REQUEST_KIND,
    LIST_KIND,
    PROTOCOL_VERSION,
    REGISTER_KIND,
    REGISTER_PATH,
    REGISTERED_KIND,
    STATUS_KIND,
    SUBMIT_PATH,
    UNIT_ACCEPTED_KIND,
    WORKER_LIST_KIND,
    WORKERS_PATH,
    WireResult,
    decode_document,
    decode_result_entries,
    decode_submit,
    decode_unit_result,
    encode_document,
    encode_job_entries,
    encode_job_results,
    encode_lease,
    encode_result_entries,
    validate_result_entries,
)
from repro.errors import RemoteError
from repro.service.store import JobStore, UnitSpec
from repro.store import ResultStore

#: Default TCP port of ``repro serve`` (port 0 binds an ephemeral one).
DEFAULT_COORDINATOR_PORT = 8751

#: ``serve_forever`` poll interval of in-process servers (coordinator
#: and chaos proxy): ``stop()`` waits up to one interval for the serving
#: loop to notice, and the stdlib default of 0.5 s would make every stop
#: of a test or benchmark fleet take that long.
SERVE_POLL_SECONDS = 0.05

#: Shortest sleep of a waiting lease that is due to wake at a lease
#: expiry: an expiry is reclaimed only once it is strictly past, so a
#: wake-up that lands on it exactly must not turn into a spin.
_EXPIRY_SLACK_SECONDS = 0.001


@dataclasses.dataclass
class WorkerInfo:
    """The coordinator's view of one registered worker.

    ``registered`` / ``last_seen`` are ``time.monotonic()`` readings —
    liveness arithmetic must not move when the wall clock steps.  They
    are in-memory only and never persisted or put on the wire (the
    worker list reports *ages*, which are clock-free durations).
    """

    worker_id: str
    name: str
    registered: float
    last_seen: float
    stats: dict = dataclasses.field(default_factory=dict)
    completed_units: int = 0
    invalid_completions: int = 0


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes requests to the server object; all state lives there."""

    server: "CoordinatorServer"

    def log_message(self, format: str, *args: object) -> None:
        """Quiet per-request logging (``repro watch`` narrates progress)."""

    def _send(self, code: int, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, handler, body: bytes | None = None) -> None:
        try:
            response = handler(body) if body is not None else handler()
        except RemoteError as exc:
            self._send(400, json.dumps({"error": str(exc)}).encode("utf-8"))
        except KeyError as exc:
            self._send(404, json.dumps({"error": str(exc)}).encode("utf-8"))
        except Exception as exc:  # repro: ignore[broad-except] the 500 boundary: a handler bug must answer the client, not kill the serving thread
            message = f"{type(exc).__name__}: {exc}"
            self._send(500, json.dumps({"error": message}).encode("utf-8"))
        else:
            self._send(200, response)

    def _hung_up(self) -> bool:
        """Whether the client has closed its end of this connection — a
        worker that died while its lease request waited."""
        try:
            readable, _, _ = select.select([self.connection], [], [], 0)
            return bool(readable) and not self.connection.recv(
                1, socket.MSG_PEEK
            )
        except (OSError, ValueError):
            return True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        server = self.server
        if self.path == HEALTH_PATH:
            self._dispatch(server.handle_health)
        elif self.path == JOBS_PATH:
            self._dispatch(server.handle_job_list)
        elif self.path == WORKERS_PATH:
            self._dispatch(server.handle_worker_list)
        elif self.path.startswith(JOBS_PATH + "/"):
            tail = self.path[len(JOBS_PATH) + 1 :]
            if tail.endswith("/results"):
                job_id = tail[: -len("/results")]
                self._dispatch(lambda: server.handle_results(job_id))
            else:
                self._dispatch(lambda: server.handle_status(tail))
        else:
            self._send(404, b'{"error":"not found"}')

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        server = self.server
        routes = {
            SUBMIT_PATH: server.handle_submit,
            REGISTER_PATH: server.handle_register,
            LEASE_PATH: lambda body: server.handle_lease(body, self._hung_up),
            COMPLETE_PATH: server.handle_complete,
            HEARTBEAT_PATH: server.handle_heartbeat,
        }
        handler = routes.get(self.path)
        if handler is None:
            if self.path.startswith(JOBS_PATH + "/") and self.path.endswith(
                "/cancel"
            ):
                job_id = self.path[len(JOBS_PATH) + 1 : -len("/cancel")]
                self._dispatch(
                    lambda body: server.handle_cancel(job_id, body), body
                )
                return
            self._send(404, b'{"error":"not found"}')
            return
        self._dispatch(handler, body)


class CoordinatorServer(ThreadingHTTPServer):
    """The analysis-service coordinator over HTTP.

    Args:
        host: bind address (loopback by default; the wire format is
            unauthenticated pickle — same trust model as the workers).
        port: TCP port; ``0`` binds an ephemeral one (read :attr:`url`).
        store: the durable job queue.  Pass a file-backed store and the
            queue survives coordinator restarts.
        cache: optional shared :class:`ResultCache` for queue-level
            dedupe (cache-complete units never reach a worker).
        results: optional :class:`~repro.store.ResultStore`.  Unit
            completions (and cache-deduped born-done units) are recorded
            under the job id as the run id, so fire-and-forget ``repro
            submit`` runs — where no client engine is attached when the
            work finishes — land in the same store ``repro diff``
            queries, addressable by the id ``repro status`` shows.
        lease_seconds: how long a leased unit stays assigned without a
            heartbeat before it is re-queued to another worker.
        worker_ttl: how long a silent worker counts as live in the
            worker list and the health document.
        quarantine_limit: how many malformed completions a worker may
            upload before it is evicted — its registration dropped and
            its live leases re-queued to the rest of the fleet.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: JobStore,
        cache: ResultCache | None = None,
        results: ResultStore | None = None,
        lease_seconds: float = 60.0,
        worker_ttl: float = 30.0,
        quarantine_limit: int = 3,
    ) -> None:
        # Before the socket binds: a failed bind calls server_close().
        self._lock = threading.RLock()
        #: Waiting leases block here; notified whenever a unit becomes
        #: leasable, a registration is dropped, or the server closes.
        self._leasable = threading.Condition(self._lock)
        self._closing = False
        super().__init__((host, port), _CoordinatorHandler)
        self.store = store
        self.cache = cache
        self.results = results
        self.lease_seconds = lease_seconds
        self.worker_ttl = worker_ttl
        self.quarantine_limit = quarantine_limit
        self.workers: dict[str, WorkerInfo] = {}
        #: worker id -> reason, for workers evicted after repeatedly
        #: uploading malformed completions.  A quarantined id is dead;
        #: the process behind it may re-register under a fresh id.
        self.quarantined_workers: dict[str, str] = {}
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """The base URL clients and workers address this coordinator under."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def handle_error(self, request, client_address) -> None:
        """Quiet client disconnects (watch/poll loops abandon sockets)."""
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)

    # ------------------------------------------------------------------
    # Client side: submission and progress
    # ------------------------------------------------------------------
    def handle_submit(self, body: bytes) -> bytes:
        """Enqueue one batch; answers with the fresh job id."""
        items, label, meta = decode_submit(body)
        if not items:
            raise RemoteError("cannot submit an empty batch")
        units: list[UnitSpec] = []
        born_done: list[tuple[str, Any, str | None]] = []
        for index, item in enumerate(items):
            result = None
            key = item.cache_key if item.job.cacheable else None
            if self.cache is not None and key is not None:
                value = self.cache.lookup(key)
                if not is_miss(value):
                    # Already answered: the unit is born done and never
                    # reaches a worker.
                    result = encode_result_entries(
                        [WireResult(ok=True, value=value, cached=True)]
                    )
                    born_done.append((item.job.describe(), value, key))
            units.append(
                UnitSpec(
                    entries=encode_job_entries([item]),
                    indices=[index],
                    result=result,
                )
            )
        job_id = self.store.submit(units, label=label, meta=meta)
        if len(born_done) < len(units):
            self._wake_leases()
        # The run record is opened at submission (even with nothing born
        # done yet), so the job id is a valid `repro diff` selector the
        # moment `repro submit` prints it.
        self._record_rows(job_id, label, born_done)
        return encode_document(ACCEPTED_KIND, {"job_id": job_id})

    def handle_status(self, job_id: str) -> bytes:
        """One job's progress (unit states included)."""
        self._reclaim_expired()
        record = self.store.job(job_id)
        if record is None:
            raise KeyError(f"unknown job id {job_id!r}")
        units = [
            {
                "unit": view.unit_index,
                "state": view.state,
                "worker": view.lease_owner,
                "jobs": view.jobs,
            }
            for view in self.store.units(job_id)
        ]
        return encode_document(
            STATUS_KIND, {**self._job_fields(record), "units": units}
        )

    def handle_job_list(self) -> bytes:
        self._reclaim_expired()
        jobs = [self._job_fields(record) for record in self.store.jobs()]
        return encode_document(LIST_KIND, {"jobs": jobs})

    @staticmethod
    def _job_fields(record) -> dict:
        return {
            "job_id": record.job_id,
            "created": record.created,
            "label": record.label,
            "meta": record.meta,
            "total_units": record.total_units,
            "total_jobs": record.total_jobs,
            "queued": record.queued,
            "leased": record.leased,
            "done": record.done,
            "complete": record.complete,
            "cancelled": record.cancelled,
            "cancelled_units": record.cancelled_units,
        }

    def handle_results(self, job_id: str) -> bytes:
        """A job's collected results (done units only; check ``complete``)."""
        record, units = self.store.results(job_id)
        return encode_job_results(
            job_id,
            complete=record.complete,
            cancelled=record.cancelled,
            units=units,
        )

    def handle_cancel(self, job_id: str, body: bytes) -> bytes:
        """Cancel one job (``POST /jobs/<id>/cancel``).

        Queued and leased units are fenced out immediately; workers
        holding a unit of the job learn on their next heartbeat and
        abandon it.  Idempotent.  The body is a ``CANCEL_KIND`` envelope
        — decoded (version-checked) even though the URL already names
        the job, so a client speaking a different protocol version is
        told so instead of silently cancelling.
        """
        decode_document(body, CANCEL_KIND)
        known = self.store.cancel(job_id)
        if not known:
            raise KeyError(f"unknown job id {job_id!r}")
        record = self.store.job(job_id)
        return encode_document(
            CANCELLED_KIND,
            self._job_fields(record) if record is not None else {},
        )

    def handle_worker_list(self) -> bytes:
        """The registry with per-worker execution counters
        (``repro jobs --workers``)."""
        now = time.monotonic()
        with self._lock:
            rows = [
                {
                    "worker_id": info.worker_id,
                    "name": info.name,
                    "live": self._is_live(info, now),
                    "age": round(now - info.last_seen, 3),  # repro: ignore[rounded-export] display-only liveness age, not a recorded result
                    "completed_units": info.completed_units,
                    "invalid_completions": info.invalid_completions,
                    "stats": dict(info.stats),
                }
                for info in self.workers.values()
            ]
            quarantined = [
                {"worker_id": worker_id, "quarantined": reason}
                for worker_id, reason in self.quarantined_workers.items()
            ]
        return encode_document(
            WORKER_LIST_KIND,
            {"workers": rows, "quarantined": quarantined},
        )

    def handle_health(self) -> bytes:
        now = time.monotonic()
        with self._lock:
            live = sum(
                1 for info in self.workers.values()
                if self._is_live(info, now)
            )
        document = {
            "protocol": PROTOCOL_VERSION,
            "status": "ok",
            "pid": os.getpid(),
            "workers": live,
            **self.store.counts(),
        }
        return json.dumps(document).encode("utf-8")

    # ------------------------------------------------------------------
    # Worker side: registration, leasing, completion, heartbeat
    # ------------------------------------------------------------------
    def handle_register(self, body: bytes) -> bytes:
        """Admit one worker; answers with its fresh coordinator-issued id."""
        document = decode_document(body, REGISTER_KIND)
        name = document.get("name") or ""
        if not isinstance(name, str):
            raise RemoteError("worker name must be a string")
        now = time.monotonic()
        worker_id = "w-" + secrets.token_hex(4)
        with self._lock:
            self.workers[worker_id] = WorkerInfo(
                worker_id=worker_id,
                name=name or worker_id,
                registered=now,
                last_seen=now,
            )
        return encode_document(
            REGISTERED_KIND,
            {"worker_id": worker_id, "lease_seconds": self.lease_seconds},
        )

    def handle_lease(
        self, body: bytes, hung_up: Callable[[], bool] | None = None
    ) -> bytes:
        """Grant the requesting worker one queued unit (or none).

        A request without ``wait`` is answered at once.  One with
        ``wait`` blocks while nothing is leasable, for up to that many
        seconds (see the module docstring), and answers empty with
        ``waited`` set when the time runs out.  ``hung_up`` tells
        whether the requester has closed its connection: a worker that
        died while its request waited is granted nothing.
        """
        document = decode_document(body, LEASE_REQUEST_KIND)
        worker_id = document.get("worker_id")
        if not isinstance(worker_id, str):
            raise RemoteError("lease request carries no worker_id")
        wait = _lease_wait(document.get("wait"))
        with self._leasable:
            info = self.workers.get(worker_id)
            if info is None:
                # Unknown id — typically a worker that outlived a
                # coordinator restart.  Tell it to re-register; any unit
                # it still executes completes by fence, not by id.
                return encode_lease({"unregistered": True})
            now = time.monotonic()
            deadline = None if wait is None else now + wait
            # A worker holds one unit at a time and asks again only
            # after completing or dropping it, so any unit still leased
            # to it was lost in transit (a grant it never received) —
            # re-queue it now instead of letting heartbeats renew it.
            if self.store.release_worker(worker_id):
                self._leasable.notify_all()
            while True:
                info.last_seen = now
                if self.store.reclaim_expired(now):
                    self._leasable.notify_all()
                grant = self._lease_oldest(worker_id, now)
                if grant is not None or deadline is None:
                    break
                if self._closing or now >= deadline:
                    return encode_lease(None, waited=True)
                self._leasable.wait(self._lease_sleep(now, deadline))
                if self.workers.get(worker_id) is not info:
                    return encode_lease({"unregistered": True})
                if self._closing or (hung_up is not None and hung_up()):
                    return encode_lease(None, waited=True)
                now = time.monotonic()
        return encode_lease(grant)

    def _lease_oldest(self, worker_id: str, now: float) -> dict | None:
        """Lease the oldest queued unit to ``worker_id``: its grant
        fields, or ``None`` when nothing is queued."""
        choice = self.store.oldest_queued_unit()
        if choice is None:
            return None
        job_id, unit_index = choice
        leased = self.store.lease(
            job_id, unit_index, worker_id, now + self.lease_seconds
        )
        if leased is None:  # raced away between pick and lease
            return None
        fence, entries, _indices = leased
        return {
            "job_id": job_id,
            "unit": unit_index,
            "fence": fence,
            "lease_seconds": self.lease_seconds,
            "jobs": entries,
        }

    def _lease_sleep(self, now: float, deadline: float) -> float:
        """How long a waiting lease sleeps before it looks again: up to
        its deadline, the earliest lease expiry or one lease period.  A
        lease granted while it sleeps expires a whole lease period after
        its grant, so the last bound keeps it from sleeping past that
        expiry too."""
        sleep = min(deadline - now, self.lease_seconds)
        expiry = self.store.next_lease_expiry()
        if expiry is not None:
            sleep = min(sleep, max(expiry - now, _EXPIRY_SLACK_SECONDS))
        return sleep

    def _wake_leases(self) -> None:
        """Wake every waiting lease to look at the queue again."""
        with self._leasable:
            self._leasable.notify_all()

    def _reclaim_expired(self) -> None:
        """Re-queue expired leases, waking waiting leases if any were."""
        if self.store.reclaim_expired():
            self._wake_leases()

    def handle_complete(self, body: bytes) -> bytes:
        """Record one executed unit, fenced and shape-validated.

        A completion whose result entries fail :func:`validate_result_entries`
        (wrong count, undecodable payloads — a corrupting worker or a
        mangling network) records nothing and counts against the
        uploading worker's quarantine budget.  Its unit goes straight
        back to the queue when it is still leased under the upload's
        fence: the uploader has already dropped it (a 4xx is final for a
        pull worker), while its heartbeats would otherwise keep renewing
        the lease.  A stale fence leaves the current lease alone."""
        document = decode_unit_result(body)
        job_id = document["job_id"]
        unit_index = document["unit"]
        worker_id = document["worker_id"]
        defect = validate_result_entries(
            document["results"],
            self.store.unit_job_count(job_id, unit_index),
        )
        if defect is not None:
            if self.store.requeue(job_id, unit_index, document["fence"]):
                self._wake_leases()
            self._record_invalid_completion(worker_id, defect)
            raise RemoteError(
                f"rejected completion of {job_id}/{unit_index}: {defect}"
            )
        accepted = self.store.complete(
            job_id, unit_index, document["fence"], document["results"]
        )
        now = time.monotonic()
        with self._lock:
            info = self.workers.get(worker_id)
            if info is not None:
                info.last_seen = now
                if accepted:
                    info.completed_units += 1
        if accepted and (
            self.cache is not None or self.results is not None
        ):
            self._store_results(job_id, unit_index, document["results"])
        return encode_document(UNIT_ACCEPTED_KIND, {"accepted": accepted})

    def _record_invalid_completion(self, worker_id: str, defect: str) -> None:
        """Count one malformed upload; evict the worker past the limit.

        Eviction drops the registration (the worker's next lease attempt
        answers ``unregistered``) and re-queues its live leases so the
        rest of the fleet picks the work up immediately instead of
        waiting out the lease expiry.
        """
        with self._leasable:
            info = self.workers.get(worker_id)
            if info is None:
                return
            info.invalid_completions += 1
            if info.invalid_completions < self.quarantine_limit:
                return
            del self.workers[worker_id]
            self.quarantined_workers[worker_id] = (
                f"evicted after {info.invalid_completions} invalid "
                f"completions (last: {defect})"
            )
            self.store.release_worker(worker_id)
            self._leasable.notify_all()

    def _store_results(
        self, job_id: str, unit_index: int, result_entries: list[dict]
    ) -> None:
        """Feed completed values into the coordinator cache (dedupe)
        and the result store (regression diffs)."""
        entries = self.store.unit_entries(job_id, unit_index)
        try:
            results = decode_result_entries(
                result_entries, expected=len(entries)
            )
        except RemoteError:
            return
        completed: list[tuple[str, Any, str | None]] = []
        for entry, result in zip(entries, results):
            key = entry.get("cache_key")
            key = key if isinstance(key, str) else None
            if not result.ok:
                continue
            if self.cache is not None and not result.cached and key:
                self.cache.store(key, result.value)
            completed.append((entry.get("label") or "", result.value, key))
        if completed:
            self._record_rows(job_id, "", completed)

    def _record_rows(
        self,
        job_id: str,
        label: str,
        completed: list[tuple[str, Any, str | None]],
    ) -> None:
        """Record completed values into the result store, best-effort.

        The store is an observability layer: a full disk or locked
        database must not fail the submission or completion it rides on.
        """
        if self.results is None:
            return
        try:
            self.results.begin_run(
                engine_mode="service", label=label, run_id=job_id
            )
            if completed:
                self.results.record_batch(job_id, completed)
        except Exception as exc:  # repro: ignore[broad-except] recording is best-effort; a full disk must not fail the completion it rides on
            warnings.warn(
                f"result-store recording for job {job_id} failed ({exc})",
                RuntimeWarning,
                stacklevel=2,
            )

    def handle_heartbeat(self, body: bytes) -> bytes:
        """Renew a worker's leases; absorb its execution counters.

        A heartbeat marked ``leaving`` is a worker's last: it drops the
        registration, re-queues whatever the worker still holds and
        wakes its waiting lease, which answers ``unregistered``.
        """
        document = decode_document(body, HEARTBEAT_KIND)
        worker_id = document.get("worker_id")
        if not isinstance(worker_id, str):
            raise RemoteError("heartbeat carries no worker_id")
        stats = document.get("stats")
        now = time.monotonic()
        with self._leasable:
            info = self.workers.get(worker_id)
            known = info is not None
            if info is not None:
                info.last_seen = now
                if isinstance(stats, dict):
                    info.stats = stats
            if document.get("leaving") is True:
                self.workers.pop(worker_id, None)
                self.store.release_worker(worker_id)
                self._leasable.notify_all()
                return encode_document(
                    HEARTBEAT_ACK_KIND, {"known": known, "cancelled": []}
                )
        cancelled: list[str] = []
        if known:
            self.store.renew_leases(worker_id, now + self.lease_seconds)
            cancelled = self.store.cancelled_jobs_for(worker_id)
        return encode_document(
            HEARTBEAT_ACK_KIND, {"known": known, "cancelled": cancelled}
        )

    def _is_live(self, info: WorkerInfo, now: float) -> bool:
        return now - info.last_seen <= self.worker_ttl

    # ------------------------------------------------------------------
    def start(self) -> "CoordinatorServer":
        """Serve in a daemon thread (in-process coordinators for tests)."""
        thread = threading.Thread(
            target=self.serve_forever,
            args=(SERVE_POLL_SECONDS,),
            name=f"repro-coordinator:{self.url}",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def server_close(self) -> None:
        """Release the socket and answer every waiting lease, empty."""
        with self._leasable:
            self._closing = True
            self._leasable.notify_all()
        super().server_close()

    def stop(self) -> None:
        """Stop serving and release the socket (the store stays open)."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def _lease_wait(value: object) -> float | None:
    """A lease request's ``wait``: ``None`` to answer at once, else a
    finite number of seconds, at least 0 (anything else is refused)."""
    if value is None:
        return None
    seconds = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            seconds = float(value)
        except OverflowError:
            pass
    if not (math.isfinite(seconds) and seconds >= 0):
        raise RemoteError(
            f"lease wait must be a finite number of seconds >= 0, "
            f"not {value!r}"
        )
    return seconds


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_COORDINATOR_PORT,
    *,
    state_dir: str | os.PathLike = ".repro-service",
    cache_dir: str | os.PathLike | None = None,
    lease_seconds: float = 60.0,
    worker_ttl: float = 30.0,
) -> None:
    """Run the coordinator in the foreground (the ``repro serve`` command).

    The queue database lives at ``<state_dir>/queue.sqlite`` — point a
    restarted coordinator at the same directory and every submitted job
    resumes.  Prints the listening URL (the line scripts parse to
    discover ephemeral ports), then serves until interrupted.
    """
    os.makedirs(state_dir, exist_ok=True)
    store = JobStore(os.path.join(state_dir, "queue.sqlite"))
    cache = ResultCache(directory=cache_dir) if cache_dir else None
    results = ResultStore(cache_dir) if cache_dir else None
    server = CoordinatorServer(
        host,
        port,
        store=store,
        cache=cache,
        results=results,
        lease_seconds=lease_seconds,
        worker_ttl=worker_ttl,
    )
    print(f"repro coordinator listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        store.close()
