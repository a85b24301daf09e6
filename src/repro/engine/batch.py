"""Jobs and batches: the engine's unit of schedulable work.

A :class:`Job` is one independent ``(function, arguments)`` pair — in
practice a ``(scenario, workload, model)`` combination such as "solve the
ILP-PTAC bound for scenario 1 against the H-Load readings" or "simulate
scenario 2 at scale 1/16".  Jobs carry everything needed to

* execute anywhere (the function must be module-level so process workers
  can import it; arguments should be plain data),
* cache the result (a stable content hash of function identity plus
  arguments, see :mod:`repro.engine.cache`), and
* report progress (a human-readable label).

Experiment drivers build flat lists of jobs and hand them to
:class:`~repro.engine.runner.ExperimentEngine`, which preserves order: the
result list always aligns with the job list, whatever executed where.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Sequence

from repro.engine.cache import stable_hash
from repro.errors import EngineError


@dataclasses.dataclass(frozen=True)
class Job:
    """One independent unit of engine work.

    Attributes:
        fn: the function to call.  Must be importable (module-level) for
            process-pool execution and stable cache keys.
        args: positional arguments.
        kwargs: keyword arguments (stored as a sorted item tuple so the
            job itself stays hashable and picklable).
        label: short human-readable description for reports/debugging.
        cache_key: explicit cache key; when ``None`` the key is derived
            from the function's dotted name and the arguments.
        cacheable: opt out of result caching (for jobs whose arguments
            carry closures or other non-addressable state).
        warm_group: jobs sharing a warm group are executed *sequentially
            on one worker* by the pooled engine modes, so per-worker
            solver state (the batch ILP solver's warm-start pool, keyed
            by constraint-structure hash) accumulates across them.
            Drivers set it to a proxy of the constraint structure —
            typically ``scenario:model`` — for jobs whose solves share a
            template.  Purely a performance hint: results are identical
            with or without it, whatever the engine mode.
    """

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: tuple[tuple[str, Any], ...] = ()
    label: str = ""
    cache_key: str | None = None
    cacheable: bool = True
    warm_group: str | None = None

    def resolved_cache_key(self) -> str:
        """The content-address of this job's result."""
        if self.cache_key is not None:
            return self.cache_key
        return stable_hash((self.fn, self.args, self.kwargs))

    def run(self) -> Any:
        """Execute the job in the current process."""
        return self.fn(*self.args, **dict(self.kwargs))

    def describe(self) -> str:
        return self.label or getattr(self.fn, "__qualname__", repr(self.fn))


def job(
    fn: Callable[..., Any],
    *args: Any,
    label: str = "",
    cache_key: str | None = None,
    cacheable: bool = True,
    warm_group: str | None = None,
    **kwargs: Any,
) -> Job:
    """Build a :class:`Job` with ergonomic call syntax.

    ``job(solve, readings, scenario, backend="bnb")`` reads like the call
    it defers.  ``label``, ``cache_key``, ``cacheable`` and
    ``warm_group`` are reserved keywords; any other keyword is forwarded
    to ``fn``.
    """
    if not callable(fn):
        raise EngineError(f"job function must be callable, got {fn!r}")
    return Job(
        fn=fn,
        args=args,
        kwargs=tuple(sorted(kwargs.items())),
        label=label,
        cache_key=cache_key,
        cacheable=cacheable,
        warm_group=warm_group,
    )


def as_jobs(jobs: Iterable[Job]) -> tuple[Job, ...]:
    """Materialise and validate a job iterable."""
    materialised = tuple(jobs)
    for item in materialised:
        if not isinstance(item, Job):
            raise EngineError(f"expected a Job, got {type(item).__qualname__}")
    return materialised


def job_cache_key(item: Job) -> str | None:
    """The job's content address, or ``None`` when it has none.

    ``None`` covers jobs that opted out of caching and jobs whose
    arguments cannot be content-addressed (closure-backed state); both
    run uncached.  The engine's cache lookup and the service client's
    cache-key passthrough share this one rule.
    """
    if not item.cacheable:
        return None
    try:
        return item.resolved_cache_key()
    except EngineError:
        return None


def warm_units(batch: Sequence[Job], pending: Iterable[int]) -> list[list[int]]:
    """Partition job indices into submission units.

    Jobs with the same ``warm_group`` form one unit (in batch order);
    every other job is its own unit.  A unit is the granularity at which
    the process pool and the service place work on a worker: executing
    one unit sequentially on one worker lets its batch-ILP warm-start
    pool accumulate across the unit's structurally identical solves.
    Shared by the process-pool runner and the service coordinator so
    both split a batch identically.
    """
    units: list[list[int]] = []
    grouped: dict[str, list[int]] = {}
    for index in pending:
        group = batch[index].warm_group
        if group is None:
            units.append([index])
            continue
        bucket = grouped.get(group)
        if bucket is None:
            grouped[group] = bucket = [index]
            units.append(bucket)
        else:
            bucket.append(index)
    return units
