"""Experiment E1: serial vs. parallel engine throughput.

The engine's pitch is that design-space exploration batches — many
independent ``(scenario, workload, model)`` jobs — scale with cores and
cache across reruns.  This benchmark quantifies both claims on a sweep
batch of registered scenario specs:

* run the batch serially (the deterministic baseline);
* run the identical batch on the process-pool engine and record the
  speedup (results must be equal — parallelism never changes artefacts);
* run it once more against the warm cache and record the hit-through
  time (zero jobs may execute).

The distributed backend's throughput on the same batch is experiment E2
(``bench_service_queue.py``).  The measured metrics land in the
session's JSON report (``.benchmarks/engine_report.json``) via the
shared ``report`` fixture, so CI can track engine throughput over time.
"""

import os
import time

import pytest

from repro.analysis.report import render_table
from repro.engine import (
    ExperimentEngine,
    ResultCache,
    get_scenario,
    run_specs,
)

#: Shrink factor applied to the registered specs (keeps the batch honest
#: — every job simulates and solves — while bounding wall-clock time).
SCALE = 1 / 4

#: The sweep batch: every two-core pairing of both reference scenarios.
SPEC_NAMES = tuple(
    f"{base}-pair-{level}"
    for base in ("scenario1", "scenario2")
    for level in ("H", "M", "L")
)


def _batch():
    return [get_scenario(name).scaled(SCALE) for name in SPEC_NAMES]


@pytest.mark.benchmark(group="engine")
def test_engine_parallel_throughput(benchmark, report):
    specs = _batch()
    workers = min(len(specs), os.cpu_count() or 1)

    start = time.perf_counter()
    serial_results = run_specs(specs)
    serial_seconds = time.perf_counter() - start

    cache = ResultCache()
    # Close the pool before pytest-benchmark's later tests time anything:
    # leaked workers would skew the rest of the session.
    with ExperimentEngine(
        mode="process", workers=workers, cache=cache
    ) as parallel_engine:
        parallel_results = benchmark.pedantic(
            lambda: run_specs(specs, engine=parallel_engine),
            rounds=1,
            iterations=1,
        )
        parallel_seconds = benchmark.stats.stats.total

        executed_before_rerun = parallel_engine.stats.executed
        start = time.perf_counter()
        cached_results = run_specs(specs, engine=parallel_engine)
        cached_seconds = time.perf_counter() - start

    # Parallelism and caching must never change artefacts.
    assert parallel_results == serial_results
    assert cached_results == serial_results
    # The warm rerun hits the cache instead of re-simulating.
    assert parallel_engine.stats.executed == executed_before_rerun
    assert all(result.sound for result in serial_results)

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    report.add(
        f"E1 — engine throughput ({len(specs)} spec jobs, "
        f"{workers} workers)",
        render_table(
            ["mode", "seconds", "jobs executed"],
            [
                ["serial", f"{serial_seconds:.2f}", len(specs)],
                [
                    f"process x{workers}",
                    f"{parallel_seconds:.2f}",
                    executed_before_rerun,
                ],
                ["cached rerun", f"{cached_seconds:.3f}", 0],
                ["speedup", f"{speedup:.2f}x", "-"],
            ],
        ),
    )
    report.record(
        "engine_parallel",
        {
            "jobs": len(specs),
            "workers": workers,
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "cached_rerun_seconds": round(cached_seconds, 4),
            "speedup": round(speedup, 3),
            "fallbacks": parallel_engine.stats.fallbacks,
        },
    )

