"""The service client: submit batches, poll progress, collect results.

The ``repro submit`` / ``status`` / ``jobs`` commands use the plain
functions — submit one CLI command's job batch, read back progress
documents, list jobs and workers.  Waiting has one path:
:func:`wait_for_job` is the only loop that polls a job, and
:func:`wait_for_results` waits through it and then downloads the
results once, in job order.  ``repro watch`` renders what it returns;
the engine's ``mode="service"`` runs through :class:`ServiceExecutor`,
which makes any existing analysis driver run through the coordinator
unchanged — each engine batch becomes one submitted job whose results
scatter back into job order, so driver output stays byte-identical to
``mode="serial"`` whichever registered worker executed what.

Fault behaviour: a coordinator that cannot be reached at submission
time falls back to in-process execution (the engine counts it in
``stats.fallbacks``), and one that disappears *mid-wait* is retried for
an unreachable-grace window — long enough to ride out a coordinator
restart, after which the executor gives the batch back to the engine.
All waiting uses the shared :mod:`repro.service.retry` backoff, so idle
polls decay instead of hammering the coordinator at a fixed interval.
Job-level exceptions drain the whole batch first and re-raise the
lowest-indexed failing job's error (:func:`job_values`), the same one
serial mode surfaces.  A cancelled job raises
:class:`~repro.errors.JobCancelledError` from every waiter — there is
nothing left to wait for.
"""

from __future__ import annotations

import dataclasses
import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Sequence

from repro.engine.batch import Job, job_cache_key
from repro.engine.remote.wire import (
    WireJob,
    WireResult,
    decode_document,
    decode_job_results,
    encode_document,
    encode_submit,
)
from repro.engine.runner import EngineStats
from repro.errors import EngineError, JobCancelledError, RemoteError
from repro.service.coordinator import (
    ACCEPTED_KIND,
    CANCEL_KIND,
    CANCELLED_KIND,
    HEALTH_PATH,
    JOBS_PATH,
    LIST_KIND,
    STATUS_KIND,
    SUBMIT_PATH,
    WORKER_LIST_KIND,
    WORKERS_PATH,
)
from repro.service.retry import (
    REQUEST_POLICY,
    TRANSPORT_ERRORS,
    RetryPolicy,
    retryable_exchange,
)

#: HTTP timeout of a batch submission and of a results download.
_REQUEST_TIMEOUT = 60.0

#: ``mode="service"``'s first interval between status polls.
_SERVICE_POLL = 0.1


def _post(url: str, path: str, body: bytes, *, timeout: float) -> bytes:
    request = urllib.request.Request(
        url.rstrip("/") + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def _get(url: str, path: str, *, timeout: float) -> bytes:
    with urllib.request.urlopen(
        url.rstrip("/") + path, timeout=timeout
    ) as response:
        return response.read()


def coordinator_health(url: str, *, timeout: float = 5.0) -> dict:
    """Fetch the coordinator's ``/healthz`` document (raises on failure)."""
    return json.loads(_get(url, HEALTH_PATH, timeout=timeout).decode("utf-8"))


def submit_jobs(
    url: str,
    jobs: Sequence[Job],
    *,
    label: str = "",
    meta: dict | None = None,
    timeout: float = _REQUEST_TIMEOUT,
    retry: RetryPolicy | None = None,
) -> str:
    """Submit one batch to the coordinator; returns the job id.

    Cache keys are resolved client-side (the same content addresses
    every other mode uses), so the coordinator and the workers can
    dedupe against their shared caches without recomputing hashes.

    ``retry`` optionally retries transient submission faults under a
    policy deadline.  Resubmitting after an ambiguous failure is safe:
    jobs are pure and the coordinator's cache dedupes repeats, so a
    duplicate submission wastes work but never corrupts results.
    """
    items = [WireJob(item, job_cache_key(item)) for item in jobs]
    body = encode_submit(items, label=label, meta=meta)

    def _attempt() -> bytes:
        return _post(url, SUBMIT_PATH, body, timeout=timeout)

    if retry is None:
        data = _attempt()
    else:
        data = retry.call(_attempt, description="job submission")
    answer = decode_document(data, ACCEPTED_KIND)
    job_id = answer.get("job_id")
    if not isinstance(job_id, str):
        raise RemoteError("submission answer carries no job_id")
    return job_id


def cancel_job(url: str, job_id: str, *, timeout: float = 30.0) -> dict:
    """Cancel one job (``POST /jobs/<id>/cancel``); returns its status
    fields.  Safe to repeat — cancellation is idempotent."""
    body = encode_document(CANCEL_KIND, {"job_id": job_id})
    try:
        data = _post(
            url, f"{JOBS_PATH}/{job_id}/cancel", body, timeout=timeout
        )
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise EngineError(f"unknown job id {job_id!r}") from exc
        raise
    return decode_document(data, CANCELLED_KIND)


def job_status(url: str, job_id: str, *, timeout: float = 30.0) -> dict:
    """One job's progress document (includes per-unit states)."""
    data = _get(url, f"{JOBS_PATH}/{job_id}", timeout=timeout)
    return decode_document(data, STATUS_KIND)


def list_jobs(url: str, *, timeout: float = 30.0) -> list[dict]:
    """Every job the coordinator knows, newest first."""
    data = _get(url, JOBS_PATH, timeout=timeout)
    return decode_document(data, LIST_KIND).get("jobs", [])


def list_workers(url: str, *, timeout: float = 30.0) -> list[dict]:
    """The worker registry with per-worker execution counters."""
    data = _get(url, WORKERS_PATH, timeout=timeout)
    return decode_document(data, WORKER_LIST_KIND).get("workers", [])


def fetch_results(
    url: str, job_id: str, *, timeout: float = _REQUEST_TIMEOUT
) -> tuple[bool, bool, list[tuple[list[int], list[WireResult]]]]:
    """Download a job's finished units:
    ``(complete, cancelled, [(indices, results)])``.

    ``indices`` are positions in the submitted batch; until ``complete``
    is true only the units finished so far are present.  A ``cancelled``
    job will never complete, but the units it finished first remain
    valid.
    """
    data = _get(url, f"{JOBS_PATH}/{job_id}/results", timeout=timeout)
    return decode_job_results(data)


def wait_for_job(
    url: str,
    job_id: str,
    *,
    poll: float = 0.5,
    timeout: float | None = None,
    progress: Callable[[dict], object] | None = None,
    unreachable_grace: float = 60.0,
) -> dict:
    """Poll one job until it completes; returns its final status document.

    Polling decays: consecutive idle polls back off from ``poll`` up to
    a 1 s ceiling, snapping back whenever the done-unit count moves.  An
    unreachable coordinator is retried for ``unreachable_grace`` seconds
    (the queue is durable — a restart picks the job straight back up)
    before the transport fault propagates.  The ``timeout`` deadline is
    checked on every poll, answered or not.

    Args:
        poll: initial seconds between status requests.
        timeout: optional overall deadline (:class:`EngineError` past it).
        progress: optional callback invoked with each status document —
            the hook ``repro watch`` streams its progress lines from.
        unreachable_grace: how long the coordinator may stay unreachable
            before giving up.

    Raises:
        JobCancelledError: the job was cancelled and will never complete.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    backoff = RetryPolicy(
        initial=poll, multiplier=1.6, max_delay=max(poll, 1.0)
    ).backoff()
    last_contact = time.monotonic()
    last_done: int | None = None
    while True:
        try:
            status = job_status(url, job_id)
        except Exception as exc:
            if (
                not retryable_exchange(exc)
                or time.monotonic() - last_contact > unreachable_grace
            ):
                raise
            state = f"coordinator {url} unreachable: {exc}"
        else:
            last_contact = time.monotonic()
            if progress is not None:
                progress(status)
            if status.get("complete"):
                return status
            if status.get("cancelled"):
                raise JobCancelledError(
                    f"job {job_id} was cancelled "
                    f"({status.get('done')}/{status.get('total_units')} "
                    "units had finished)"
                )
            state = (
                f"{status.get('done')}/{status.get('total_units')} units"
            )
            done = status.get("done")
            if done != last_done:
                last_done = done
                backoff.reset()
        if deadline is not None and time.monotonic() >= deadline:
            raise EngineError(
                f"job {job_id} not complete after {timeout:g}s ({state})"
            )
        backoff.sleep(poll)


def wait_for_results(
    url: str,
    job_id: str,
    *,
    poll: float = 0.5,
    timeout: float | None = None,
    progress: Callable[[dict], object] | None = None,
    unreachable_grace: float = 60.0,
) -> tuple[dict, list[WireResult]]:
    """Wait for one job (:func:`wait_for_job`), then download its
    results once: ``(final status document, outcomes in job order)``.

    The download is an idempotent read, so a garbled or torn response
    (a lossy network, a restarting coordinator) is re-asked rather than
    surfaced, for up to ``unreachable_grace`` seconds.  Failed jobs stay
    outcomes here; :func:`job_values` re-raises them.
    """
    status = wait_for_job(
        url,
        job_id,
        poll=poll,
        timeout=timeout,
        progress=progress,
        unreachable_grace=unreachable_grace,
    )

    def download() -> list[tuple[list[int], list[WireResult]]]:
        complete, _cancelled, units = fetch_results(url, job_id)
        if not complete:
            raise RemoteError(
                f"job {job_id} reported complete but its results are "
                "partial"
            )
        return units

    policy = dataclasses.replace(
        REQUEST_POLICY,
        deadline=unreachable_grace,
        retryable=retryable_exchange,
    )
    units = policy.call(
        download, description=f"results download from {url}"
    )
    placed = {
        index: outcome
        for indices, outcomes in units
        for index, outcome in zip(indices, outcomes)
    }
    return status, [placed[index] for index in sorted(placed)]


def job_values(outcomes: Sequence[WireResult]) -> list[Any]:
    """The values of a job's outcomes, in job order.

    A failed job re-raises its error — the lowest-indexed one, which is
    the failure serial execution surfaces.
    """
    error = next((item.error for item in outcomes if not item.ok), None)
    if error is not None:
        raise error
    return [item.value for item in outcomes]


class ServiceExecutor:
    """Executes engine batches through the analysis-service coordinator.

    Args:
        coordinator_url: base URL of the ``repro serve`` process.
        unreachable_grace: how long the coordinator may stay unreachable
            mid-wait before the batch is abandoned back to the engine
            (generous enough to ride out a coordinator restart).
    """

    def __init__(
        self, coordinator_url: str, *, unreachable_grace: float = 60.0
    ) -> None:
        url = coordinator_url.strip().rstrip("/")
        if not url:
            raise EngineError(
                "service execution needs a coordinator URL; start one "
                "with `repro serve` and pass --coordinator"
            )
        self.coordinator_url = url
        self.unreachable_grace = unreachable_grace
        self.stats = EngineStats()

    def execute(
        self,
        batch: Sequence[Job],
        pending: Sequence[int],
        results: list[Any],
    ) -> list[int]:
        """Run ``pending`` jobs via the coordinator, writing into
        ``results``.

        Returns the indices the service could not take (the engine runs
        those in-process): all of them when submission fails or the
        coordinator vanishes past the grace window, none otherwise.  A
        job-level exception propagates after the batch drains — always
        the lowest-indexed failing job's, the one serial mode surfaces.
        """
        items = [batch[index] for index in pending]
        try:
            job_id = submit_jobs(
                self.coordinator_url,
                items,
                label=items[0].describe() if items else "",
            )
        except TRANSPORT_ERRORS + (RemoteError,):
            return sorted(pending)
        self.stats.batches += 1
        try:
            _status, outcomes = wait_for_results(
                self.coordinator_url,
                job_id,
                poll=_SERVICE_POLL,
                unreachable_grace=self.unreachable_grace,
            )
        except TRANSPORT_ERRORS + (RemoteError,):
            # Coordinator gone past the grace window: give the batch
            # back (jobs are pure — a local re-run is safe).
            self.stats.abandoned += 1
            return sorted(pending)
        for outcome in outcomes:
            if outcome.ok and outcome.cached:
                self.stats.cached += 1
            elif outcome.ok:
                self.stats.executed += 1
        for index, value in zip(pending, job_values(outcomes)):
            results[index] = value
        return []
