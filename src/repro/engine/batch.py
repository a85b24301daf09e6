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
Jobs carry no placement hints: every pooled job is its own pool task and
its own service unit, and the warm ILP state it may benefit from belongs
to whichever worker process runs it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

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
    """

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: tuple[tuple[str, Any], ...] = ()
    label: str = ""
    cache_key: str | None = None
    cacheable: bool = True

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
    **kwargs: Any,
) -> Job:
    """Build a :class:`Job` with ergonomic call syntax.

    ``job(solve, readings, scenario, backend="bnb")`` reads like the call
    it defers.  ``label``, ``cache_key`` and ``cacheable`` are reserved
    keywords; any other keyword is forwarded to ``fn``.
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
