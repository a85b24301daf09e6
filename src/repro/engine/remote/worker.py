"""The worker-side execution path every service pull worker shares.

A :class:`~repro.service.pull.PullWorker` leases a unit of wire jobs
from the coordinator and runs each one through
:func:`execute_wire_job`: consult the worker's (optionally disk-backed,
fleet-shared) :class:`~repro.engine.cache.ResultCache` first, execute on
a miss, and count what happened in the worker's
:class:`~repro.engine.runner.EngineStats`.  Jobs run on the worker's
one lease-loop thread, so the thread-local batch-ILP warm-start pool
(:func:`repro.ilp.batch.default_batch_solver`) accumulates across every
unit the worker ever leases, whatever the coordinator hands it.
"""

from __future__ import annotations

from repro.engine.cache import ResultCache, is_miss
from repro.engine.remote.wire import WireJob, WireResult
from repro.engine.runner import EngineStats


def execute_wire_job(
    item: WireJob, cache: ResultCache | None, stats: EngineStats
) -> WireResult:
    """Run one wire job, consulting the shared result cache first.

    A job that raises comes back as a failed :class:`WireResult`
    carrying the exception, which the client re-raises — exactly what
    serial execution would have raised.
    """
    key = item.cache_key if item.job.cacheable else None
    if cache is not None and key is not None:
        value = cache.lookup(key)
        if not is_miss(value):
            stats.cached += 1
            return WireResult(ok=True, value=value, cached=True)
    try:
        value = item.job.run()
    except Exception as exc:  # repro: ignore[broad-except] the job's failure is the result — shipped as data, re-raised client-side
        return WireResult(ok=False, error=exc)
    stats.executed += 1
    if cache is not None and key is not None:
        cache.store(key, value)
    return WireResult(ok=True, value=value)
