"""Analysis as a service: a durable job queue with dial-in workers.

This package is the engine's distributed backend (``mode="service"``):
a long-running service that any number of workers, on any number of
hosts, join and leave at will:

* the **coordinator** (:mod:`~repro.service.coordinator`) owns a
  sqlite-backed queue (:mod:`~repro.service.store`) — submitted jobs,
  their one-job units, leases and results all survive a coordinator
  restart, and a lease takes the oldest queued unit;
* **workers** (:mod:`~repro.service.pull`) dial *in*: they
  auto-register, lease units, execute them (shared
  :class:`~repro.engine.cache.ResultCache` dedupe included, and a warm
  ILP solver that lives as long as the worker) and heartbeat.  An idle
  worker's lease request waits on the coordinator until a unit is
  queued, so a submitted batch starts at once instead of at the next
  poll.  A worker that vanishes has its leases re-queued under a bumped
  fence when they expire, and one that stops cleanly hands them back at
  once, so nothing is lost and nothing is double-counted;
* **clients** (:mod:`~repro.service.client`) submit and walk away:
  ``repro submit`` queues one of the CLI's single-batch commands, and
  any engine batch runs through the queue via ``mode="service"``.  Both
  wait and collect the same way — one poll loop, then one results
  download in job order — and come back byte-identical to serial
  execution.

Three-terminal quickstart::

    # terminal 1 — the coordinator (queue state in .repro-service/)
    repro serve --port 8751

    # terminal 2 (and 3, 4, ...) — workers, wherever there are cores
    repro worker --coordinator http://127.0.0.1:8751

    # terminal 3 — submit, poll, render (--coordinator before the name:
    # what follows the name is the command's own argument list)
    repro submit --coordinator http://127.0.0.1:8751 figure4
    repro status  <job-id> --coordinator http://127.0.0.1:8751
    repro watch   <job-id> --coordinator http://127.0.0.1:8751
    repro jobs --workers   --coordinator http://127.0.0.1:8751

Any existing driver runs through the service unchanged by passing
``--coordinator URL`` (engine ``mode="service"``); multi-phase drivers
submit one queue job per engine batch.  Results are byte-identical to
serial runs.

Robustness layer: every networked loop in the package waits under the
shared :mod:`~repro.service.retry` policy (exponential backoff, jitter,
total deadlines, retryable-fault classification); the store runs WAL
with quarantine-and-rebuild of corrupt databases; jobs are cancellable
(``repro jobs --cancel``) and workers that upload malformed completions
are quarantined.  The chaos suite (``tests/test_service_chaos.py``,
with the fault-injecting proxy in ``tests/chaos_proxy.py``) is the
standing proof that the exactly-once and byte-identity guarantees
survive scripted network and process faults.

The names below are loaded from their submodule on first use, so a
pull worker does not load the client and a process that hosts a
coordinator does not load the worker.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.service.client import (
        ServiceExecutor,
        cancel_job,
        coordinator_health,
        fetch_results,
        job_status,
        job_values,
        list_jobs,
        list_workers,
        submit_jobs,
        wait_for_job,
        wait_for_results,
    )
    from repro.service.coordinator import (
        DEFAULT_COORDINATOR_PORT,
        CoordinatorServer,
        serve,
    )
    from repro.service.pull import PullWorker, serve_pull
    from repro.service.retry import (
        Backoff,
        RetryPolicy,
        retryable_exchange,
        retryable_fault,
    )
    from repro.service.store import JobRecord, JobStore, UnitSpec

#: Each public name and the submodule that defines it.
_SUBMODULES = {
    "Backoff": "retry",
    "CoordinatorServer": "coordinator",
    "DEFAULT_COORDINATOR_PORT": "coordinator",
    "JobRecord": "store",
    "JobStore": "store",
    "PullWorker": "pull",
    "RetryPolicy": "retry",
    "ServiceExecutor": "client",
    "UnitSpec": "store",
    "cancel_job": "client",
    "coordinator_health": "client",
    "fetch_results": "client",
    "job_status": "client",
    "job_values": "client",
    "list_jobs": "client",
    "list_workers": "client",
    "retryable_exchange": "retry",
    "retryable_fault": "retry",
    "serve": "coordinator",
    "serve_pull": "pull",
    "submit_jobs": "client",
    "wait_for_job": "client",
    "wait_for_results": "client",
}

__all__ = sorted(_SUBMODULES)


def __getattr__(name: str) -> Any:
    """Import the submodule that defines ``name`` and return it from
    there (PEP 562)."""
    submodule = _SUBMODULES.get(name)
    if submodule is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    module = importlib.import_module(f"{__name__}.{submodule}")
    return getattr(module, name)
