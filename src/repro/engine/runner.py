"""The execution engine: fan a batch of jobs out, deterministically.

Every analysis driver expresses its experiment as a batch of independent
:class:`~repro.engine.batch.Job` objects and hands them to one
:class:`ExperimentEngine`.  The engine

* consults its :class:`~repro.engine.cache.ResultCache` first — a job
  whose content hash was seen before returns instantly, without touching
  the simulator or a solver;
* executes the remaining jobs in one of three modes: ``"serial"`` (the
  deterministic fallback and the default), ``"process"`` (a
  ``concurrent.futures`` process pool over the local CPU cores) or
  ``"service"`` (each batch is queued on a ``repro serve`` coordinator
  and executed by whatever workers have registered, on one host or
  many — see :mod:`repro.service`);
* always returns results **in job order**, so driver output is identical
  in every mode — parallelism changes wall-clock time, never artefacts.

Robustness: the process pool and the service need picklable jobs.  Jobs
that cannot be pickled (e.g. carrying a closure-backed
:class:`~repro.sim.program.TaskProgram`), a pool that cannot start and
a coordinator that cannot be reached all degrade to in-process
execution; ``stats.fallbacks`` counts every job demoted that way.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.engine.batch import Job, as_jobs, job_cache_key
from repro.engine.cache import ResultCache, is_miss
from repro.errors import EngineError

if TYPE_CHECKING:  # runtime import deferred: store <-> engine layering
    from repro.service.client import ServiceExecutor
    from repro.store import ResultStore

#: Supported execution modes.
EXECUTION_MODES = ("serial", "process", "service")


@dataclasses.dataclass
class EngineStats:
    """Cumulative execution counters — the one stats record.

    Each executor holds its own instance: the engine
    (:attr:`ExperimentEngine.stats`), its service executor
    (:attr:`ExperimentEngine.service_stats`) and every pull worker,
    whose heartbeats ship it to ``repro jobs --workers``.  A counter an
    executor has no use for stays zero.

    Attributes:
        batches: batches handled — engine :meth:`ExperimentEngine.run`
            calls, coordinator jobs submitted, or leased units served.
        executed: jobs that ran, wherever they ran.  The test-suite's
            "zero re-simulations" assertion watches the engine's
            counter.
        cached: jobs answered from a result cache instead — the
            engine's own, or a service-side one for jobs the engine
            sent there.  Never also counted in ``executed``.
        fallbacks: jobs the engine demoted from the pool or the service
            to in-process execution (unpicklable payload, pool start-up
            failure or unreachable coordinator), each counted once.
        recorded: result-store rows the engine's recording hook wrote.
        abandoned: batches the service executor gave back to the
            engine after the coordinator stayed unreachable past the
            grace window.
    """

    batches: int = 0
    executed: int = 0
    cached: int = 0
    fallbacks: int = 0
    recorded: int = 0
    abandoned: int = 0


def _run_job(item: Job) -> Any:
    """Module-level trampoline so process workers can execute jobs."""
    return item.run()


class ExperimentEngine:
    """Runs job batches with optional parallelism and result caching.

    Args:
        mode: ``"serial"`` (default), ``"process"`` or ``"service"``.
        workers: worker count for ``"process"`` mode; defaults to the
            CPU count.  The pool is created lazily on the first pooled
            batch and reused until :meth:`close` (or context-manager
            exit).
        cache: shared :class:`ResultCache`; ``None`` disables caching.
        coordinator_url: base URL of a ``repro serve`` coordinator;
            required by (and only valid with) ``mode="service"``.
        store: optional :class:`~repro.store.ResultStore`; when attached,
            every batch this engine runs is recorded — one provenance-
            stamped row per result cell, cache hits included, so a run's
            recorded cell set always covers its whole matrix.  Every
            execution mode funnels through :meth:`run`, so one hook
            covers them all.  Recording is best-effort: a store failure
            warns and the batch's results are returned regardless.
    """

    def __init__(
        self,
        *,
        mode: str = "serial",
        workers: int | None = None,
        cache: ResultCache | None = None,
        coordinator_url: str | None = None,
        store: "ResultStore | None" = None,
    ) -> None:
        if mode not in EXECUTION_MODES:
            raise EngineError(
                f"unknown execution mode {mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        if workers is not None and workers < 1:
            raise EngineError("worker count must be at least 1")
        if mode == "service":
            if not coordinator_url:
                raise EngineError(
                    "mode='service' needs coordinator_url=...; start a "
                    "coordinator with `repro serve` and pass its URL"
                )
        elif coordinator_url:
            raise EngineError(
                "coordinator_url only applies to mode='service', "
                f"not mode={mode!r}"
            )
        self.mode = mode
        self.workers = workers
        self.cache = cache
        self.coordinator_url = coordinator_url
        self.store = store
        self.stats = EngineStats()
        self._executor: ProcessPoolExecutor | None = None
        self._service: "ServiceExecutor | None" = None
        self._run_id: str | None = None

    # ------------------------------------------------------------------
    @property
    def service_stats(self) -> EngineStats | None:
        """The service executor's statistics (``None`` until the first
        service batch, or in the other modes)."""
        return self._service.stats if self._service is not None else None

    def _worker_count(self) -> int:
        return max(1, self.workers or os.cpu_count() or 1)

    def close(self) -> None:
        """Shut the worker pool down (idle pools also drain at exit)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[Job]) -> list[Any]:
        """Execute a batch and return results aligned with the job order."""
        batch = as_jobs(jobs)
        self.stats.batches += 1
        results: list[Any] = [None] * len(batch)
        pending: list[int] = []

        keys: list[str | None] = [None] * len(batch)
        duplicates: dict[int, int] = {}  # index -> representative index
        if self.cache is None:
            pending = list(range(len(batch)))
        else:
            representative: dict[str, int] = {}
            for index, item in enumerate(batch):
                key = job_cache_key(item)
                keys[index] = key
                if key is None:
                    pending.append(index)
                    continue
                value = self.cache.lookup(key)
                if not is_miss(value):
                    results[index] = value
                    self.stats.cached += 1
                elif key in representative:
                    # Same content hash earlier in this batch: execute
                    # once, share the result.
                    duplicates[index] = representative[key]
                else:
                    representative[key] = index
                    pending.append(index)

        if pending:
            self._execute(batch, pending, results)
            if self.cache is not None:
                for index in pending:
                    key = keys[index]
                    if key is not None:
                        self.cache.store(key, results[index])
        for index, source in duplicates.items():
            results[index] = results[source]
            self.stats.cached += 1
        if self.store is not None:
            self._record_batch(batch, keys, results)
        return results

    @property
    def run_id(self) -> str | None:
        """The attached store's run id (``None`` until the first
        recorded batch, or without a store)."""
        return self._run_id

    def _record_batch(
        self,
        batch: Sequence[Job],
        keys: Sequence[str | None],
        results: Sequence[Any],
    ) -> None:
        """Record one completed batch into the attached result store.

        All of the engine's batches land in one run (begun lazily), so
        multi-phase drivers — measure, then model — produce a single
        diffable run per engine instance.  Best-effort by design: the
        store is an observability layer, and a full disk or locked
        database must not fail an otherwise-successful batch.
        """
        try:
            if self._run_id is None:
                self._run_id = self.store.begin_run(engine_mode=self.mode)
            self.stats.recorded += self.store.record_batch(
                self._run_id,
                [
                    (item.label, results[index], keys[index])
                    for index, item in enumerate(batch)
                ],
            )
        except Exception as exc:  # repro: ignore[broad-except] recording is best-effort; a store fault must not fail the batch it observes
            warnings.warn(
                f"result-store recording failed ({exc}); batch results "
                "are unaffected but this run will be missing rows",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------
    def _execute(
        self, batch: Sequence[Job], pending: list[int], results: list[Any]
    ) -> None:
        """Run the pending jobs in-process, on the pool or on the service.

        Process mode runs a lone job in-process (a pool round trip costs
        more than it saves).  Service mode ships even single-job
        batches: a worker may hold warm solver state or a shared disk
        cache the client lacks.  Every pooled job is scheduled on its
        own; warm ILP state stays with the worker process that built it.
        """
        if self.mode == "serial" or (
            self.mode == "process" and len(pending) == 1
        ):
            self._execute_serial(batch, pending, results)
            return
        pooled, local = self._split_picklable(batch, pending)
        if pooled:
            if self.mode == "process":
                leftover = self._pool_execute(batch, pooled, results)
                self.stats.executed += len(pooled) - len(leftover)
            else:
                leftover = self._service_execute(batch, pooled, results)
            local += leftover
        if local:
            # Unpicklable jobs, a pool that could not start and a batch
            # the service could not take all finish here.  Jobs are
            # pure, so re-running one that completed elsewhere is safe.
            self.stats.fallbacks += len(local)
            self._execute_serial(batch, sorted(local), results)

    def _pool_execute(
        self, batch: Sequence[Job], pooled: Sequence[int], results: list[Any]
    ) -> list[int]:
        """Run ``pooled`` jobs on the process pool.

        Returns the indices the pool could not run: none, or all of
        them when the pool broke.  The pool is created lazily and kept
        for the engine's lifetime, so multi-phase drivers (measure, then
        model) pay worker start-up once per engine, not once per batch.
        Pool *infrastructure* failures — construction, worker spawning
        (ProcessPoolExecutor forks lazily, so a sandbox that forbids it
        surfaces as OSError/BrokenExecutor from submit()/result()) —
        discard the pool so the caller can finish in-process.
        Exceptions raised by a job function itself propagate unchanged,
        exactly as they would in serial mode.

        Every job is its own pool task.  Each pool process keeps its own
        warm ILP pool, so a structure it has solved before starts warm
        there whichever task brings it back; results never depend on
        which process ran what.
        """
        try:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self._worker_count()
                )
            executor = self._executor
        except (OSError, ValueError, PermissionError):
            return list(pooled)
        broken = False
        futures: list[tuple[int, Any]] = []
        try:
            for index in pooled:
                futures.append((index, executor.submit(_run_job, batch[index])))
        except (OSError, RuntimeError, BrokenExecutor):
            broken = True
        if not broken:
            try:
                for index, future in futures:
                    results[index] = future.result()
            except BrokenExecutor:
                broken = True
            except BaseException:
                # A *job* failed: cancel the rest of the batch instead of
                # letting queued jobs drain at interpreter exit, then let
                # the job's exception propagate as in serial mode.
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                raise
        if broken:
            executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            return list(pooled)
        return []

    def _service_execute(
        self, batch: Sequence[Job], pooled: Sequence[int], results: list[Any]
    ) -> list[int]:
        """Run ``pooled`` jobs through the analysis-service coordinator.

        The batch is submitted as one coordinator job of one-job units;
        registered workers lease the units and the executor polls until
        the queue drains.  Returns the indices the service could not
        take (unreachable coordinator — the caller finishes those
        in-process); job exceptions propagate unchanged, exactly as in
        serial mode.
        """
        if self._service is None:
            # Imported lazily: repro.service imports the engine package,
            # so a module-level import here would be circular.
            from repro.service.client import ServiceExecutor

            self._service = ServiceExecutor(self.coordinator_url)
        service = self._service.stats
        executed, cached = service.executed, service.cached
        leftover = self._service.execute(batch, pooled, results)
        self.stats.executed += service.executed - executed
        self.stats.cached += service.cached - cached
        return leftover

    def _execute_serial(
        self, batch: Sequence[Job], pending: Sequence[int], results: list[Any]
    ) -> None:
        for index in pending:
            results[index] = batch[index].run()
            self.stats.executed += 1

    @staticmethod
    def _split_picklable(
        batch: Sequence[Job], pending: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """Partition pending jobs into pool-safe and local-only sets.

        The upfront ``pickle.dumps`` probe serialises each payload once
        more than strictly needed, but it is the only way to demote an
        unpicklable job cleanly: ProcessPoolExecutor pickles in its
        feeder thread, so a submit-time payload error would otherwise
        surface asynchronously as a broken future.
        """
        pooled: list[int] = []
        local: list[int] = []
        for index in pending:
            try:
                pickle.dumps(batch[index])
            except Exception:  # repro: ignore[broad-except] probing picklability: pickling arbitrary jobs can raise anything
                local.append(index)
            else:
                pooled.append(index)
        return pooled, local


def run_jobs(
    jobs: Iterable[Job], engine: ExperimentEngine | None = None
) -> list[Any]:
    """Run a batch on ``engine``, or serially when no engine is supplied.

    This is the hook every analysis driver uses: passing ``engine=None``
    reproduces the historical single-threaded behaviour exactly.
    """
    if engine is None:
        engine = ExperimentEngine()
    return engine.run(jobs)
