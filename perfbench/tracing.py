"""Span tracing around the public entry points of each ``repro`` layer.

The benchmark measures the library from outside: :func:`install` replaces
a public function or method with a timing wrapper wherever a loaded
``repro`` module bound it, so no code under ``src/`` changes.  Spans are
``(name, start, end, parent, thread)`` records kept in memory on the
monotonic clock (``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so the
spans of several processes share one time base) and written out when the
run ends.  A layer's *self time* is its spans' durations minus the time
their child spans cover, so nested layers never count twice.

Counts that the spans cannot give — simulated SRI requests, simplex
iterations, engine cache hits — are read from each call's arguments and
results at the same boundaries.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Iterable

#: Count metric -> span name whose outermost calls it counts.
CALL_COUNTS = {
    "workloads.builds": "workloads.build",
    "sim.compile_calls": "sim.compile",
    "sim.isolation_runs": "sim.isolation",
    "sim.corun_runs": "sim.corun",
    "core.bound_calls": "core.bound",
    "ilp.solves": "ilp.solve",
    "service.worker_executed": "service.execute",
}

#: Counters that must repeat exactly between two runs of one input.
DETERMINISTIC = (
    "sim.requests",
    "sim.runs",
    "sim.compile_calls",
    "ilp.solves",
    "ilp.simplex_iterations",
    "ilp.bnb_nodes",
    "engine.executed",
)


class Tracer:
    """In-memory span and counter collector for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[list[Any]] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent, threading.get_native_id()]
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[..., str],
        *,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``before(args, kwargs)`` may return a
        token that ``after(tracer, args, kwargs, result, token)`` gets."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            token = before(args, kwargs) if before is not None else None
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, args, kwargs, result, token)
            return result

        return traced

    def export(self) -> dict:
        """Spans and counts as plain JSON data (for other processes).

        A span some thread still has open ends at the export.
        """
        now = time.perf_counter()
        return {
            "process": self.process,
            "pid": os.getpid(),
            "spans": [
                span if span[2] is not None else [*span[:2], now, *span[3:]]
                for span in self.spans
            ],
            "counts": dict(self.counts),
        }


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded module that
    imported it by name (``from x import f`` copies the binding)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(tracer: Tracer, module: Any, attr: str, name, **hooks):
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(original, name, **hooks))


def _patch_method(tracer: Tracer, cls: type, attr: str, name, **hooks):
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, **hooks))


def _arg(args: tuple, kwargs: dict, position: int, key: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(key, default)


def _sim_name(self, *args: Any, **kwargs: Any) -> str:
    programs = _arg(args, kwargs, 0, "programs")
    agents = _arg(args, kwargs, 1, "dma_agents", ())
    return "sim.isolation" if len(programs) + len(agents) == 1 else "sim.corun"


def _count_sim(tracer: Tracer, args, kwargs, result, token) -> None:
    requests = waits = 0
    for core in result.cores.values():
        requests += sum(stats.count for stats in core.transactions.values())
        waits += core.total_wait_cycles
    for agent in result.dma.values():
        requests += agent.served
        waits += agent.total_wait_cycles
    tracer.counts["sim.requests"] += requests
    tracer.counts["sim.wait_cycles"] += waits
    tracer.counts["sim.makespan_cycles"] += result.makespan


def _count_solve(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["ilp.simplex_iterations"] += result.stats.simplex_iterations
    tracer.counts["ilp.bnb_nodes"] += result.stats.nodes


def _engine_before(args, kwargs):
    stats = args[0].stats
    return stats.executed, stats.cached, stats.fallbacks


def _count_engine(tracer: Tracer, args, kwargs, result, token) -> None:
    stats = args[0].stats
    executed = stats.executed - token[0]
    cached = stats.cached - token[1]
    tracer.counts["engine.executed"] += executed
    tracer.counts["engine.cached"] += cached
    tracer.counts["engine.fallbacks"] += stats.fallbacks - token[2]
    tracer.counts["engine.jobs"] += executed + cached


def _count_rows(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["store.rows"] += result


def _count_encoded(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["wire.bytes"] += len(result)


def _count_decoded(tracer: Tracer, args, kwargs, result, token) -> None:
    tracer.counts["wire.bytes"] += len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (import repro.cli first)."""
    import repro.core.ilp_ptac as ilp_ptac
    import repro.core.multicontender as multicontender
    import repro.core.wcet as wcet
    import repro.engine.batch as batch
    import repro.engine.cache as cache
    import repro.engine.remote.wire as wire
    import repro.engine.remote.worker as remote_worker
    import repro.engine.runner as runner
    import repro.service.client as service_client
    import repro.service.pull  # noqa: F401  (binds wire names to rewrap)
    import repro.sim.program as program
    import repro.sim.system as system
    import repro.store.resultstore as resultstore
    import repro.workloads.control_loop as control_loop
    import repro.workloads.footprint as footprint
    import repro.workloads.loads as loads

    _patch_function(tracer, control_loop, "build_control_loop", "workloads.build")
    _patch_function(tracer, loads, "build_load", "workloads.build")
    _patch_function(tracer, footprint, "isolation_cycles", "workloads.footprint")
    _patch_function(tracer, program, "compile_program", "sim.compile")
    _patch_method(
        tracer, system.SystemSimulator, "run", _sim_name, after=_count_sim
    )
    _patch_function(tracer, wcet, "contention_bound", "core.bound")
    _patch_function(tracer, ilp_ptac, "ilp_ptac_bound", "core.bound")
    _patch_function(
        tracer, multicontender, "multi_contender_bound", "core.bound"
    )
    # build_ilp_ptac delegates to the builder, which the bound calls
    # directly: wrapping the builder covers both entry points.
    _patch_method(tracer, ilp_ptac._IlpPtacBuilder, "build", "core.ilp_build")
    _patch_function(
        tracer, ilp_ptac, "solve_contention_ilp", "ilp.solve",
        after=_count_solve,
    )
    _patch_method(
        tracer, runner.ExperimentEngine, "run", "engine.run",
        before=_engine_before, after=_count_engine,
    )
    _patch_method(tracer, batch.Job, "resolved_cache_key", "engine.cache_key")
    _patch_method(tracer, cache.ResultCache, "lookup", "engine.cache_lookup")
    _patch_method(tracer, cache.ResultCache, "store", "engine.cache_store")
    _patch_method(
        tracer, resultstore.ResultStore, "record_batch", "store.record",
        after=_count_rows,
    )
    _patch_function(tracer, service_client, "submit_jobs", "service.submit")
    _patch_method(
        tracer, service_client.ServiceExecutor, "execute", "service.wait"
    )
    _patch_function(
        tracer, remote_worker, "execute_wire_job", "service.execute"
    )
    _patch_function(
        tracer, wire, "encode_document", "wire.encode", after=_count_encoded
    )
    for attr in ("encode_job_entries", "encode_result_entries"):
        _patch_function(tracer, wire, attr, "wire.encode")
    for attr in (
        "decode_document",
        "decode_submit",
        "decode_lease",
        "decode_unit_result",
        "decode_job_results",
    ):
        _patch_function(tracer, wire, attr, "wire.decode", after=_count_decoded)
    for attr in ("decode_job_entries", "decode_result_entries"):
        _patch_function(tracer, wire, attr, "wire.decode")


# ----------------------------------------------------------------------
# Reducing spans to per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(exports: Iterable[dict]) -> dict[str, float]:
    """Self time per layer (``<layer>_s``) and every count, summed over
    the exported span sets of all processes."""
    metrics: dict[str, float] = collections.defaultdict(int)
    for export in exports:
        spans = export["spans"]
        self_time = [end - start for _, start, end, _, _ in spans]
        for name, start, end, parent, _ in spans:
            if parent is not None:
                self_time[parent] -= end - start
        for index, (name, _, _, parent, _) in enumerate(spans):
            metrics[f"{name}_s"] += self_time[index]
            outermost = parent is None or spans[parent][0] != name
            for count, counted in CALL_COUNTS.items():
                if counted == name and outermost:
                    metrics[count] += 1
        for name, value in export["counts"].items():
            metrics[name] += value
    metrics["sim.runs"] = metrics["sim.isolation_runs"] + metrics["sim.corun_runs"]
    return dict(metrics)


def chrome_trace(exports: Iterable[dict]) -> dict:
    """Chrome trace-event JSON (loads in Perfetto and chrome://tracing)."""
    events = []
    for export in exports:
        pid = export["pid"]
        spans = export["spans"]
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": export["process"]},
            }
        )
        for index, (name, start, end, parent, tid) in enumerate(spans):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "span": index,
                        "parent": spans[parent][0] if parent is not None else None,
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: str, document: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
