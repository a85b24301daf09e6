"""Experiment F1: scenario-family sweep throughput.

Families turn "add a sweep" into three lines of axes; this benchmark
quantifies what a family run costs and how it scales.  It runs the
cacheability family (15 Table 3-legal custom placements, each a full
measure → bound → co-run → check cycle) serially and on the process
pool, prints the family artefact, and records **members per second**
for both modes — plus the warm-cache rerun — into the session's JSON
report (``.benchmarks/engine_report.json``), so CI tracks family
throughput next to the engine and ILP metrics.
"""

import os
import time

import pytest

from repro.analysis.export import family_artifact
from repro.analysis.report import render_artifact, render_table
from repro.engine import (
    ExperimentEngine,
    ResultCache,
    expand_family,
    run_family,
)

FAMILY = "cacheability"


@pytest.mark.benchmark(group="engine")
def test_family_sweep_throughput(benchmark, report):
    members = expand_family(FAMILY)
    workers = min(len(members), os.cpu_count() or 1)

    start = time.perf_counter()
    serial_results = run_family(FAMILY)
    serial_seconds = time.perf_counter() - start

    cache = ResultCache()
    with ExperimentEngine(
        mode="process", workers=workers, cache=cache
    ) as engine:
        parallel_results = benchmark.pedantic(
            lambda: run_family(FAMILY, engine=engine),
            rounds=1,
            iterations=1,
        )
        parallel_seconds = benchmark.stats.stats.total

        executed_before_rerun = engine.stats.executed
        start = time.perf_counter()
        cached_results = run_family(FAMILY, engine=engine)
        cached_seconds = time.perf_counter() - start

    # Parallelism and caching never change family artefacts.
    assert parallel_results == serial_results
    assert cached_results == serial_results
    assert engine.stats.executed == executed_before_rerun
    assert all(result.sound for result in serial_results)

    def rate(seconds):
        return len(members) / seconds if seconds else 0.0

    report.add(
        f"F1 — family sweep throughput ({FAMILY}, {len(members)} members, "
        f"{workers} workers)",
        render_table(
            ["mode", "seconds", "members/s"],
            [
                ["serial", f"{serial_seconds:.2f}", f"{rate(serial_seconds):.1f}"],
                [
                    f"process x{workers}",
                    f"{parallel_seconds:.2f}",
                    f"{rate(parallel_seconds):.1f}",
                ],
                ["cached rerun", f"{cached_seconds:.2f}", f"{rate(cached_seconds):.1f}"],
            ],
        )
        + "\n\n"
        + render_artifact(
            family_artifact(
                serial_results, title=f"Family run ({FAMILY})"
            )
        ),
    )
    report.record(
        "family_sweep",
        {
            "family": FAMILY,
            "members": len(members),
            "workers": workers,
            "serial_seconds": round(serial_seconds, 3),
            "parallel_seconds": round(parallel_seconds, 3),
            "cached_seconds": round(cached_seconds, 3),
            "serial_members_per_second": round(rate(serial_seconds), 2),
            "parallel_members_per_second": round(rate(parallel_seconds), 2),
        },
    )
