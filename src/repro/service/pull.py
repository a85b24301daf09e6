"""The pull worker: dial in, lease units, execute, report back.

:class:`PullWorker` is what ``repro worker --coordinator URL`` runs.  It
needs no listen port and no pre-shared worker list; it *initiates*
everything:

1. **register** — POST ``/register``, receiving a coordinator-issued
   worker id;
2. **lease loop** — POST ``/lease`` for the next unit, asking the
   coordinator to wait up to :data:`LEASE_WAIT_SECONDS` for one, so an
   idle worker starts a newly submitted unit as soon as it is queued
   (an empty answer after the wait leases again at once); a grant
   executes each job through
   :func:`~repro.engine.remote.worker.execute_wire_job` (shared
   :class:`ResultCache` consult, then the job on this thread, whose
   batch ILP solver stays warm across every unit the worker runs);
3. **complete** — POST ``/complete`` with the unit's results and its
   lease fence; the coordinator refuses a stale fence, which is what
   makes a re-leased unit safe, and re-queues a unit whose completion
   it rejects as malformed;
4. **heartbeat** — a background thread renews the worker's leases and
   ships its :class:`~repro.engine.runner.EngineStats` counters, so
   ``repro jobs --workers`` shows live per-worker numbers.

Fault behaviour: an unreachable coordinator is retried under the shared
:class:`~repro.service.retry.RetryPolicy` backoff (the worker survives
a coordinator restart), and a lease or heartbeat answered
"unregistered" triggers transparent re-registration — in-flight units
still complete, because completions are fenced, not owner-checked.
Heartbeat acks also carry cancelled job ids, so a worker abandons the
rest of a cancelled unit mid-execution instead of finishing work
nobody will accept.  A coordinator that predates waiting leases answers
an empty queue at once, without the ``waited`` mark; the worker then
asks again after ``idle_poll`` seconds.  :meth:`PullWorker.stop` sends
one last heartbeat marked ``leaving``: the coordinator re-queues what
the worker holds at once and answers its waiting lease.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
import urllib.request

from repro.engine.cache import ResultCache
from repro.engine.remote.wire import (
    COMPLETE_PATH,
    HEARTBEAT_ACK_KIND,
    HEARTBEAT_KIND,
    HEARTBEAT_PATH,
    LEASE_PATH,
    LEASE_REQUEST_KIND,
    REGISTER_KIND,
    REGISTER_PATH,
    REGISTERED_KIND,
    UNIT_ACCEPTED_KIND,
    decode_document,
    decode_lease,
    encode_document,
    encode_unit_result,
)
from repro.engine.remote.worker import execute_wire_job
from repro.engine.runner import EngineStats
from repro.errors import RemoteError
from repro.service.retry import (
    TRANSPORT_ERRORS,
    RetryPolicy,
    retryable_exchange,
)

#: How long a lease request asks the coordinator to wait for a unit,
#: well under the HTTP timeouts of anything in between (the chaos
#: proxy's upstream timeout is 60 s).
LEASE_WAIT_SECONDS = 20.0

#: How long an idle worker waits before asking for work again when its
#: coordinator answered an empty queue at once (one that does not wait).
IDLE_POLL_SECONDS = 0.2

#: HTTP timeout of the ``leaving`` heartbeat :meth:`PullWorker.stop`
#: sends, so a hung coordinator cannot hold a stopping worker.
LEAVE_TIMEOUT_SECONDS = 2.0

#: Cap of the unreachable-coordinator retry backoff.
MAX_BACKOFF_SECONDS = 5.0


class PullWorker:
    """One lease-loop execution slot attached to a coordinator.

    Args:
        coordinator_url: base URL of the ``repro serve`` process.
        name: human-readable registration name (defaults to ``host:pid``
            style is the CLI's job; here it defaults to empty).
        cache: optional :class:`ResultCache`.  Construct it with
            ``directory=`` pointing at a shared path and a whole worker
            fleet dedupes against one disk cache: a job any worker (or
            any past run) completed is answered without re-executing.
        idle_poll: the first delay of the reconnect backoff, and the
            pause before leasing again when the coordinator answers an
            empty queue at once (one that does not hold waiting
            leases).  A coordinator that waits paces the loop itself.
        timeout: per-request HTTP timeout (a waiting lease adds its
            wait).

    The loop runs on the calling thread via :meth:`run`, or in a daemon
    thread via :meth:`start`/:meth:`stop` (tests, benchmarks).
    """

    def __init__(
        self,
        coordinator_url: str,
        *,
        name: str = "",
        cache: ResultCache | None = None,
        idle_poll: float = IDLE_POLL_SECONDS,
        timeout: float = 600.0,
    ) -> None:
        self.coordinator_url = coordinator_url.strip().rstrip("/")
        self.name = name
        self.cache = cache
        self.idle_poll = idle_poll
        self.timeout = timeout
        self.stats = EngineStats()
        self.worker_id: str | None = None
        self.lease_seconds = 60.0
        #: Job ids the coordinator reported cancelled (heartbeat acks);
        #: the execute loop consults this between jobs of a unit.
        self._cancelled: set[str] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._heartbeat_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _post(
        self, path: str, body: bytes, timeout: float | None = None
    ) -> bytes:
        request = urllib.request.Request(
            self.coordinator_url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(
            request, timeout=self.timeout if timeout is None else timeout
        ) as resp:
            return resp.read()

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------
    def register(self) -> str:
        """Register (or re-register) with the coordinator."""
        body = encode_document(REGISTER_KIND, {"name": self.name})
        document = decode_document(
            self._post(REGISTER_PATH, body), REGISTERED_KIND
        )
        worker_id = document.get("worker_id")
        if not isinstance(worker_id, str):
            raise RemoteError("registration answer carries no worker_id")
        lease_seconds = document.get("lease_seconds")
        if isinstance(lease_seconds, (int, float)) and lease_seconds > 0:
            self.lease_seconds = float(lease_seconds)
        self.worker_id = worker_id
        return worker_id

    def _lease(self, wait: float | None = None) -> dict | None:
        """One lease request; with ``wait`` the coordinator may hold it
        that many seconds for a unit to be queued."""
        fields: dict = {"worker_id": self.worker_id}
        timeout = self.timeout
        if wait is not None:
            fields["wait"] = wait
            timeout += wait
        body = encode_document(LEASE_REQUEST_KIND, fields)
        return decode_lease(self._post(LEASE_PATH, body, timeout))

    def _complete(self, grant: dict, results) -> bool:
        """Upload one unit's results; returns whether they were accepted.

        The coordinator's answer is a ``UNIT_ACCEPTED_KIND`` envelope
        and is decoded (version-checked) rather than discarded — a
        mangled answer raises :class:`RemoteError`, and retrying is safe
        because a completion that already landed is simply fence-
        rejected (``accepted: false``) on the repeat.
        """
        body = encode_unit_result(
            worker_id=self.worker_id or "",
            job_id=grant["job_id"],
            unit=grant["unit"],
            fence=grant["fence"],
            results=results,
        )
        answer = decode_document(
            self._post(COMPLETE_PATH, body), UNIT_ACCEPTED_KIND
        )
        return bool(answer.get("accepted"))

    def _heartbeat(
        self, leaving: bool = False, timeout: float | None = None
    ) -> bool:
        """One heartbeat round-trip; returns whether we are still known.

        A ``leaving`` heartbeat is the worker's last (see :meth:`stop`).
        """
        fields: dict = {
            "worker_id": self.worker_id,
            "stats": dataclasses.asdict(self.stats),
        }
        if leaving:
            fields["leaving"] = True
        body = encode_document(HEARTBEAT_KIND, fields)
        document = decode_document(
            self._post(HEARTBEAT_PATH, body, timeout), HEARTBEAT_ACK_KIND
        )
        cancelled = document.get("cancelled")
        if isinstance(cancelled, list):
            self._cancelled.update(
                job_id for job_id in cancelled if isinstance(job_id, str)
            )
        return bool(document.get("known"))

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Lease-execute-complete until :meth:`stop` (or forever)."""
        policy = RetryPolicy(
            initial=self.idle_poll,
            multiplier=2.0,
            max_delay=max(MAX_BACKOFF_SECONDS, self.idle_poll),
        )
        backoff = policy.backoff()
        self._start_heartbeat()
        try:
            while not self._stop.is_set():
                try:
                    if self.worker_id is None:
                        self.register()
                    grant = self._lease(LEASE_WAIT_SECONDS)
                except TRANSPORT_ERRORS + (RemoteError,):
                    # Coordinator down or restarting: retry with backoff.
                    self._stop.wait(backoff.next_delay() or self.idle_poll)
                    continue
                backoff.reset()
                if grant is None:
                    # Answered at once by a coordinator that does not
                    # wait: pace the next ask.
                    self._stop.wait(self.idle_poll)
                    continue
                if grant.get("unregistered"):
                    # Coordinator restarted and lost the registry.
                    self.worker_id = None
                    continue
                if grant.get("waited"):
                    continue
                self._execute_grant(grant)
        finally:
            self._stop.set()

    def _execute_grant(self, grant: dict) -> None:
        """Run one leased unit and report it, fenced.

        A cancellation learned over the heartbeat aborts the unit
        between jobs — the remaining work would be fence-rejected
        anyway, so finishing it only wastes the slot.

        Completion retries through coordinator outages for up to two
        lease periods: a coordinator that restarts within the lease
        still receives the result under the original fence, so the unit
        is never re-run.  Past that horizon the lease has expired anyway
        — the unit is re-leased elsewhere and a late completion would be
        fence-rejected, so giving up is safe (jobs are pure, and a
        shared cache answers the rerun without recomputing).  A
        non-retryable rejection (the coordinator answered 4xx — it
        refused this completion deliberately) is dropped immediately;
        the coordinator has already put the unit back in the queue.
        """
        job_id = grant["job_id"]
        results = []
        for item in grant["jobs"]:
            if job_id in self._cancelled or self._stop.is_set():
                return
            results.append(execute_wire_job(item, self.cache, self.stats))
        self.stats.batches += 1
        policy = RetryPolicy(
            initial=self.idle_poll,
            multiplier=2.0,
            max_delay=max(1.0, self.idle_poll),
            deadline=2.0 * self.lease_seconds,
        )
        backoff = policy.backoff()
        while not self._stop.is_set() and job_id not in self._cancelled:
            try:
                self._complete(grant, results)
                return
            except TRANSPORT_ERRORS + (RemoteError,) as exc:
                # RemoteError here means the *answer* was mangled; the
                # completion may have landed, and the repeat is fence-
                # rejected if so — retrying is always safe.
                if not retryable_exchange(exc):
                    return
                delay = backoff.next_delay()
                if delay is None:
                    return
                self._stop.wait(delay)

    def _start_heartbeat(self) -> None:
        def beat() -> None:
            # Tick fast, beat at lease_seconds/3 — recomputed every tick,
            # because registration (which delivers the coordinator's
            # lease period) happens *after* this thread starts.
            next_beat = time.monotonic()
            while not self._stop.wait(0.05):
                if self.worker_id is None or time.monotonic() < next_beat:
                    continue
                next_beat = time.monotonic() + max(
                    self.lease_seconds / 3.0, 0.05
                )
                try:
                    if not self._heartbeat():
                        self.worker_id = None
                except TRANSPORT_ERRORS + (RemoteError,):
                    continue

        thread = threading.Thread(
            target=beat, name="repro-pull-heartbeat", daemon=True
        )
        thread.start()
        self._heartbeat_thread = thread

    # ------------------------------------------------------------------
    def start(self) -> "PullWorker":
        """Run the loop in a daemon thread (tests and benchmarks)."""
        self._stop.clear()
        thread = threading.Thread(
            target=self.run, name="repro-pull-worker", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        """Signal the loop to exit, leave the coordinator and join the
        threads.

        Leaving is one heartbeat marked ``leaving``, best effort: the
        coordinator drops the registration, re-queues a unit this worker
        holds (or is being granted) at once instead of after the lease
        period, and answers the loop's waiting lease, so the loop sees
        the stop without waiting out its lease request.
        """
        self._stop.set()
        if self.worker_id is not None:
            try:
                self._heartbeat(leaving=True, timeout=LEAVE_TIMEOUT_SECONDS)
            except TRANSPORT_ERRORS + (RemoteError,):
                pass
        for thread in (self._thread, self._heartbeat_thread):
            if thread is not None:
                thread.join(timeout=5)
        self._thread = None
        self._heartbeat_thread = None


def serve_pull(
    coordinator_url: str,
    *,
    name: str = "",
    cache_dir: str | None = None,
) -> None:
    """Run one pull worker in the foreground
    (``repro worker --coordinator URL``).

    Prints the registration line scripts parse, then leases until
    interrupted.  SIGINT stops it even when the process started with
    SIGINT ignored (a background job of a non-interactive shell), where
    Python installs no ``KeyboardInterrupt`` handler of its own.
    """
    if (
        threading.current_thread() is threading.main_thread()
        and signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    ):
        signal.signal(signal.SIGINT, signal.default_int_handler)
    cache = ResultCache(directory=cache_dir) if cache_dir else None
    worker = PullWorker(coordinator_url, name=name, cache=cache)
    RetryPolicy(deadline=60.0).call(
        worker.register,
        description=f"registration with coordinator {coordinator_url}",
    )
    print(
        f"repro worker {worker.worker_id} registered with "
        f"{worker.coordinator_url}",
        flush=True,
    )
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    finally:
        worker.stop()
