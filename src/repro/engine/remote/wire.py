"""Versioned job/result serialization of the analysis-service protocol.

The service (:mod:`repro.service`) speaks JSON-over-HTTP: every request
and response body is a JSON *envelope* carrying a ``protocol`` version,
a ``kind`` tag and the kind's fields.  Engine jobs and their results are
arbitrary picklable Python objects (dataclass records, enums, numpy-free
plain data), so each job or result payload is a pickle, base64-armoured
inside the JSON document.  The envelope keeps the parts the coordinator
must read *without* unpickling — the protocol version, the job labels,
the content-addressed cache keys — as plain JSON fields.

The envelope kinds: job submission (``job-submit``/``job-accepted``),
worker registration (``worker-register``/``worker-registered``), unit
leasing (``lease-request``/``lease-grant``), progress
(``heartbeat``/``job-status``) and result upload/download
(``unit-result``/``job-results``).  The job- and result-carrying ones
share one *entry* encoding — :func:`encode_job_entries` /
:func:`encode_result_entries` — so a job is byte-identical on the
client, on the queue and on the worker.

Versioning: both sides speak exactly :data:`PROTOCOL_VERSION`.  A
coordinator, worker or client receiving any other version rejects the
envelope with a :class:`~repro.errors.RemoteError` naming both versions,
so mixed-version fleets fail loudly instead of computing garbage.

Cache-key passthrough: the client resolves each job's content-addressed
cache key once (:func:`~repro.engine.batch.job_cache_key`) and ships it
alongside the pickle.  A coordinator or worker holding a shared disk
:class:`~repro.engine.cache.ResultCache` answers repeated keys from the
cache without re-executing — and without recomputing the hash — which is
what lets a worker fleet dedupe against one cache directory.

Security note: payloads are pickles, and unpickling executes code.  Run
the service only on hosts and networks where every client is trusted —
the protocol authenticates nothing (same trust model as a shared SSH
box).
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
from typing import Any, Sequence

from repro.engine.batch import Job
from repro.errors import RemoteError

#: Version of the JSON-over-HTTP envelope this library speaks.  Bump on
#: any incompatible change to the envelope or payload conventions.
#: Version 2 added the analysis-service envelopes (submission,
#: registration, leasing, progress, result up/download).
PROTOCOL_VERSION = 2

_SUBMIT_KIND = "job-submit"
_LEASE_KIND = "lease-grant"
_UNIT_RESULT_KIND = "unit-result"
_JOB_RESULTS_KIND = "job-results"

#: URL paths of the coordinator endpoints.
HEALTH_PATH = "/healthz"
SUBMIT_PATH = "/submit"
JOBS_PATH = "/jobs"
WORKERS_PATH = "/workers"
REGISTER_PATH = "/register"
LEASE_PATH = "/lease"
COMPLETE_PATH = "/complete"
HEARTBEAT_PATH = "/heartbeat"

#: Envelope kinds of the plain-JSON service documents (the job- and
#: result-carrying ones above have their own encoders).
REGISTER_KIND = "worker-register"
REGISTERED_KIND = "worker-registered"
LEASE_REQUEST_KIND = "lease-request"
HEARTBEAT_KIND = "heartbeat"
HEARTBEAT_ACK_KIND = "heartbeat-ack"
ACCEPTED_KIND = "job-accepted"
UNIT_ACCEPTED_KIND = "unit-accepted"
STATUS_KIND = "job-status"
LIST_KIND = "job-list"
WORKER_LIST_KIND = "worker-list"
CANCEL_KIND = "job-cancel"
CANCELLED_KIND = "job-cancelled"


@dataclasses.dataclass(frozen=True)
class WireJob:
    """One engine job as shipped to a worker.

    Attributes:
        job: the :class:`~repro.engine.batch.Job` to execute.
        cache_key: the client-resolved content address of the job's
            result (``None`` for uncacheable jobs), so a worker with a
            shared disk cache can dedupe without recomputing the hash.
    """

    job: Job
    cache_key: str | None = None


@dataclasses.dataclass(frozen=True)
class WireResult:
    """One job outcome as shipped back from a worker.

    Attributes:
        ok: whether the job completed; ``False`` means the job function
            itself raised (worker-infrastructure failures never produce a
            :class:`WireResult` — they surface as transport errors).
        value: the job's return value (``ok`` results only).
        error: the exception the job raised (``not ok`` results only).
        cached: the value was answered from the worker's shared result
            cache instead of being executed.
    """

    ok: bool
    value: Any = None
    error: BaseException | None = None
    cached: bool = False


def _pack(obj: Any) -> str:
    """Pickle + base64 one payload object into a JSON-safe string."""
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(raw).decode("ascii")


def _unpack(text: Any) -> Any:
    """Invert :func:`_pack`; malformed payloads raise :class:`RemoteError`."""
    if not isinstance(text, str):
        raise RemoteError(
            f"wire payload must be a base64 string, got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
        return pickle.loads(raw)
    except RemoteError:
        raise
    except Exception as exc:
        raise RemoteError(f"undecodable wire payload: {exc}") from exc


def _envelope(data: bytes, kind: str) -> dict:
    """Parse and validate one envelope, checking version and kind."""
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RemoteError(f"undecodable wire envelope: {exc}") from exc
    if not isinstance(document, dict):
        raise RemoteError(
            f"wire envelope must be a JSON object, got "
            f"{type(document).__name__}"
        )
    version = document.get("protocol")
    if version != PROTOCOL_VERSION:
        raise RemoteError(
            f"unsupported remote protocol version {version!r}: this side "
            f"speaks version {PROTOCOL_VERSION}; upgrade the older of "
            "client and worker so both run the same repro release"
        )
    if document.get("kind") != kind:
        raise RemoteError(
            f"expected a {kind!r} envelope, got {document.get('kind')!r}"
        )
    return document


def encode_job_entries(items: Sequence[WireJob]) -> list[dict]:
    """Serialise jobs into the entry dicts every job-carrying envelope
    shares (``job-submit``, ``lease-grant``)."""
    return [
        {
            "label": item.job.describe(),
            "cache_key": item.cache_key,
            "payload": _pack(item.job),
        }
        for item in items
    ]


def decode_job_entries(entries: Any) -> list[WireJob]:
    """Invert :func:`encode_job_entries`, validating every entry."""
    if not isinstance(entries, list):
        raise RemoteError("job envelope carries no job entry list")
    items: list[WireJob] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise RemoteError("job entry must be a JSON object")
        item = _unpack(entry.get("payload"))
        if not isinstance(item, Job):
            raise RemoteError(
                f"job payload decoded to {type(item).__name__}, not a Job"
            )
        key = entry.get("cache_key")
        if key is not None and not isinstance(key, str):
            raise RemoteError("job cache_key must be a string or null")
        items.append(WireJob(job=item, cache_key=key))
    return items


def encode_result_entries(items: Sequence[WireResult]) -> list[dict]:
    """Serialise results into the entry dicts every result-carrying
    envelope shares (``unit-result``, ``job-results``).

    An unpicklable *value* raises (pickling is the same contract
    process-pool mode imposes on results); an unpicklable *exception*
    degrades to its type name and message, which the client rebuilds as
    a :class:`RemoteError`.
    """
    encoded: list[dict] = []
    for item in items:
        if item.ok:
            encoded.append(
                {
                    "ok": True,
                    "cached": item.cached,
                    "payload": _pack(item.value),
                }
            )
        else:
            entry: dict = {
                "ok": False,
                "error_type": type(item.error).__name__,
                "error_message": str(item.error),
            }
            try:
                entry["payload"] = _pack(item.error)
            except Exception:  # repro: ignore[broad-except] pickling an arbitrary user exception can raise anything; fall back to message-only
                entry["payload"] = None
            encoded.append(entry)
    return encoded


def decode_result_entries(
    entries: Any, expected: int | None = None
) -> list[WireResult]:
    """Invert :func:`encode_result_entries`, validating count and shape."""
    if not isinstance(entries, list):
        raise RemoteError("result envelope carries no result entry list")
    if expected is not None and len(entries) != expected:
        raise RemoteError(
            f"worker returned {len(entries)} results for {expected} jobs"
        )
    items: list[WireResult] = []
    for entry in entries:
        if not isinstance(entry, dict) or "ok" not in entry:
            raise RemoteError("result entry must be a JSON object with 'ok'")
        if entry["ok"]:
            items.append(
                WireResult(
                    ok=True,
                    value=_unpack(entry.get("payload")),
                    cached=bool(entry.get("cached")),
                )
            )
        else:
            error: BaseException | None = None
            payload = entry.get("payload")
            if payload is not None:
                try:
                    decoded = _unpack(payload)
                except RemoteError:
                    decoded = None
                if isinstance(decoded, BaseException):
                    error = decoded
            if error is None:
                error = RemoteError(
                    "remote job failed with "
                    f"{entry.get('error_type')}: {entry.get('error_message')}"
                )
            items.append(WireResult(ok=False, error=error))
    return items


# ----------------------------------------------------------------------
# Analysis-service envelopes (coordinator <-> client, coordinator <->
# pull worker).  Registration, heartbeat and progress documents carry
# plain JSON only; submission, leases and results embed the shared
# job/result entry encoding above.
# ----------------------------------------------------------------------
def encode_document(kind: str, fields: dict) -> bytes:
    """Serialise one versioned envelope carrying plain-JSON fields."""
    payload = {"protocol": PROTOCOL_VERSION, "kind": kind, **fields}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_document(data: bytes, kind: str) -> dict:
    """Parse and version-check one envelope of the given kind."""
    return _envelope(data, kind)


def encode_submit(
    items: Sequence[WireJob], *, label: str = "", meta: dict | None = None
) -> bytes:
    """Serialise one job submission (client → coordinator)."""
    return encode_document(
        _SUBMIT_KIND,
        {
            "label": label,
            "meta": meta or {},
            "jobs": encode_job_entries(items),
        },
    )


def decode_submit(data: bytes) -> tuple[list[WireJob], str, dict]:
    """Parse a submission into ``(jobs, label, meta)``."""
    document = _envelope(data, _SUBMIT_KIND)
    meta = document.get("meta") or {}
    if not isinstance(meta, dict):
        raise RemoteError("submit meta must be a JSON object")
    label = document.get("label") or ""
    if not isinstance(label, str):
        raise RemoteError("submit label must be a string")
    return decode_job_entries(document.get("jobs")), label, meta


def encode_lease(grant: dict | None, *, waited: bool = False) -> bytes:
    """Serialise one lease response (coordinator → worker).

    ``grant`` is ``None`` for an empty queue, and ``waited`` marks an
    empty answer to a waiting lease whose wait ran out; the special
    field ``unregistered`` tells a worker the coordinator does not know
    its id (e.g. after a coordinator restart) and it must re-register.
    A real grant carries ``job_id``/``unit``/``fence``/``lease_seconds``
    plus the unit's job entries (already-encoded dicts, straight from
    the queue store).
    """
    if grant is None:
        fields = {"empty": True, "waited": True} if waited else {"empty": True}
        return encode_document(_LEASE_KIND, fields)
    return encode_document(_LEASE_KIND, {"empty": False, **grant})


def decode_lease(data: bytes) -> dict | None:
    """Parse a lease response.

    ``None`` means the queue was empty and the coordinator answered at
    once; ``{"waited": True}`` means it was empty for the whole wait of
    a waiting lease.
    """
    document = _envelope(data, _LEASE_KIND)
    if document.get("unregistered"):
        return {"unregistered": True}
    if document.get("empty"):
        return {"waited": True} if document.get("waited") is True else None
    grant = {
        "job_id": document.get("job_id"),
        "unit": document.get("unit"),
        "fence": document.get("fence"),
        "lease_seconds": document.get("lease_seconds"),
        "jobs": decode_job_entries(document.get("jobs")),
    }
    if not isinstance(grant["job_id"], str):
        raise RemoteError("lease grant carries no job_id")
    if not isinstance(grant["unit"], int) or not isinstance(
        grant["fence"], int
    ):
        raise RemoteError("lease grant needs integer unit and fence")
    return grant


def encode_unit_result(
    *,
    worker_id: str,
    job_id: str,
    unit: int,
    fence: int,
    results: Sequence[WireResult],
) -> bytes:
    """Serialise one completed unit (worker → coordinator)."""
    return encode_document(
        _UNIT_RESULT_KIND,
        {
            "worker_id": worker_id,
            "job_id": job_id,
            "unit": unit,
            "fence": fence,
            "results": encode_result_entries(results),
        },
    )


def decode_unit_result(data: bytes) -> dict:
    """Parse a unit completion; result entries stay *encoded* (the
    coordinator persists them verbatim, unpickling only for its cache)."""
    document = _envelope(data, _UNIT_RESULT_KIND)
    for field in ("worker_id", "job_id"):
        if not isinstance(document.get(field), str):
            raise RemoteError(f"unit result carries no {field}")
    for field in ("unit", "fence"):
        if not isinstance(document.get(field), int):
            raise RemoteError(f"unit result needs an integer {field}")
    if not isinstance(document.get("results"), list):
        raise RemoteError("unit result carries no result entries")
    return document


def encode_job_results(
    job_id: str,
    *,
    complete: bool,
    units: Sequence[dict],
    cancelled: bool = False,
) -> bytes:
    """Serialise a job's collected results (coordinator → client).

    ``units`` carry ``indices`` (positions in the submitted batch) and
    already-encoded result entries, straight from the queue store.
    ``cancelled`` marks a job that will never complete because it was
    cancelled; the done units it carries are still valid results.
    """
    return encode_document(
        _JOB_RESULTS_KIND,
        {
            "job_id": job_id,
            "complete": complete,
            "cancelled": cancelled,
            "units": list(units),
        },
    )


def decode_job_results(
    data: bytes,
) -> tuple[bool, bool, list[tuple[list[int], list[WireResult]]]]:
    """Parse a job's results into
    ``(complete, cancelled, [(indices, results)])``."""
    document = _envelope(data, _JOB_RESULTS_KIND)
    units = document.get("units")
    if not isinstance(units, list):
        raise RemoteError("job results carry no 'units' list")
    decoded: list[tuple[list[int], list[WireResult]]] = []
    for entry in units:
        if not isinstance(entry, dict):
            raise RemoteError("job result unit must be a JSON object")
        indices = entry.get("indices")
        if not isinstance(indices, list) or not all(
            isinstance(index, int) for index in indices
        ):
            raise RemoteError("job result unit needs integer indices")
        results = decode_result_entries(
            entry.get("results"), expected=len(indices)
        )
        decoded.append((list(indices), results))
    return (
        bool(document.get("complete")),
        bool(document.get("cancelled")),
        decoded,
    )


def validate_result_entries(entries: Any, expected: int | None) -> str | None:
    """Shape-check encoded result entries *without unpickling them*.

    The coordinator persists completion payloads verbatim and never
    unpickles queue traffic, so this is its entire defence against a
    worker (or a fault-injecting network) uploading garbage: the entry
    list must be well-formed — the right count, each entry a dict with a
    boolean ``ok`` and a base64-decodable payload (ok entries must carry
    one; failed entries may carry ``None``).  Returns a human-readable
    defect description, or ``None`` when the entries look sound.  A
    worker that repeatedly fails this check gets quarantined.
    """
    if not isinstance(entries, list):
        return "result entries are not a list"
    if expected is not None and len(entries) != expected:
        return f"{len(entries)} result entries for {expected} jobs"
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(
            entry.get("ok"), bool
        ):
            return f"entry {position} is not an object with boolean 'ok'"
        payload = entry.get("payload")
        if payload is None:
            if entry["ok"]:
                return f"ok entry {position} carries no payload"
            continue
        if not isinstance(payload, str):
            return f"entry {position} payload is not a string"
        try:
            base64.b64decode(payload.encode("ascii"), validate=True)
        except ValueError as exc:
            # binascii.Error and UnicodeEncodeError are both ValueError.
            return f"entry {position} payload is not base64: {exc}"
    return None
