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
  ILP solver that lives as long as the worker) and heartbeat; a worker
  that vanishes has its leases re-queued under a bumped fence, so
  nothing is lost and nothing is double-counted;
* **clients** (:mod:`~repro.service.client`) submit and walk away:
  ``repro submit`` queues one of the CLI's single-batch commands, and
  any engine batch runs through the queue via ``mode="service"``; both
  come back byte-identical to serial execution.

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
are quarantined.  The :mod:`~repro.service.chaos` proxy injects
scripted network and process faults (``repro chaos``), and the chaos
test suite is the standing proof that the exactly-once and
byte-identity guarantees survive them.
"""

from repro.service.chaos import (
    ChaosProxy,
    FaultPlan,
    FaultRule,
    parse_fault_spec,
    serve_chaos,
)
from repro.service.client import (
    ServiceExecutor,
    cancel_job,
    coordinator_health,
    fetch_results,
    job_status,
    list_jobs,
    list_workers,
    submit_jobs,
    wait_for_job,
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

__all__ = [
    "Backoff",
    "ChaosProxy",
    "CoordinatorServer",
    "DEFAULT_COORDINATOR_PORT",
    "FaultPlan",
    "FaultRule",
    "JobRecord",
    "JobStore",
    "PullWorker",
    "RetryPolicy",
    "ServiceExecutor",
    "UnitSpec",
    "cancel_job",
    "coordinator_health",
    "fetch_results",
    "job_status",
    "list_jobs",
    "list_workers",
    "parse_fault_spec",
    "retryable_exchange",
    "retryable_fault",
    "serve",
    "serve_chaos",
    "serve_pull",
    "submit_jobs",
    "wait_for_job",
]
