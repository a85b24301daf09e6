"""Experiment E2: service-queue vs local process-pool throughput.

The analysis service adds a durable queue between the engine and its
workers: batches become sqlite-backed jobs of one-job units, which
workers lease and complete fenced.  Durability is not free — every unit
takes a lease round-trip and every state transition commits to disk —
so this benchmark measures what the queue costs on the same sweep batch
``bench_engine_parallel.py`` uses:

* run the batch through ``mode="process"`` with two pool workers (the
  direct path: no queue, no wire);
* run the identical batch through ``mode="service"`` — a coordinator
  with a file-backed store and two auto-registered pull workers — and
  record submit-to-complete throughput (units/sec) next to it.

The pull workers run as threads of this process and share its
interpreter lock, so the recorded ratio includes the parallelism the
process pool has and the threads lack, on top of the queue's own cost.

Results must be identical in both modes (and to serial — the invariant
every backend is held to).  The measured metrics land in the session's
JSON report (``.benchmarks/engine_report.json``) via the shared
``report`` fixture, so CI can track the queue overhead over time.
"""

import time

import pytest

from repro.analysis.report import render_table
from repro.engine import ExperimentEngine, get_scenario, run_specs
from repro.service import (
    ChaosProxy,
    CoordinatorServer,
    FaultPlan,
    FaultRule,
    PullWorker,
)
from repro.service.store import JobStore

#: Same shrink factor and sweep as E1 — the numbers are comparable.
SCALE = 1 / 4

SPEC_NAMES = tuple(
    f"{base}-pair-{level}"
    for base in ("scenario1", "scenario2")
    for level in ("H", "M", "L")
)


def _batch():
    return [get_scenario(name).scaled(SCALE) for name in SPEC_NAMES]


@pytest.mark.benchmark(group="engine")
def test_service_queue_throughput(benchmark, report, tmp_path):
    specs = _batch()
    serial_results = run_specs(specs)

    # Direct path: a two-worker process pool, no queue.
    with ExperimentEngine(mode="process", workers=2) as engine:
        start = time.perf_counter()
        process_results = run_specs(specs, engine=engine)
        process_seconds = time.perf_counter() - start

    # Service path: durable coordinator queue, two pull workers.
    store = JobStore(tmp_path / "queue.sqlite")
    coordinator = CoordinatorServer(store=store).start()
    pull_workers = [
        PullWorker(coordinator.url, name=f"bench-{i}", idle_poll=0.02).start()
        for i in range(2)
    ]
    try:
        with ExperimentEngine(
            mode="service", coordinator_url=coordinator.url
        ) as engine:
            service_results = benchmark.pedantic(
                lambda: run_specs(specs, engine=engine),
                rounds=1,
                iterations=1,
            )
            service_seconds = benchmark.stats.stats.total
            service_stats = engine.service_stats
            fallbacks = engine.stats.fallbacks
        units = sum(record.total_units for record in store.jobs())
    finally:
        for worker in pull_workers:
            worker.stop()
        coordinator.stop()
        store.close()

    # The queue must never change artefacts.
    assert process_results == serial_results
    assert service_results == serial_results
    assert fallbacks == 0

    service_rate = units / service_seconds if service_seconds else 0.0
    process_rate = units / process_seconds if process_seconds else 0.0
    overhead = (
        service_seconds / process_seconds if process_seconds else 0.0
    )

    report.add(
        f"E2 — service-queue throughput ({len(specs)} spec jobs, "
        "2 workers each)",
        render_table(
            ["mode", "seconds", "units/sec"],
            [
                ["process x2 (direct)", f"{process_seconds:.2f}",
                 f"{process_rate:.2f}"],
                ["service x2 (queued)", f"{service_seconds:.2f}",
                 f"{service_rate:.2f}"],
                ["queue overhead", f"{overhead:.2f}x", "-"],
            ],
        ),
    )
    report.record(
        "service_queue",
        {
            "jobs": len(specs),
            "workers": 2,
            "units": units,
            "process_seconds": round(process_seconds, 4),
            "service_seconds": round(service_seconds, 4),
            "process_units_per_second": round(process_rate, 3),
            "service_units_per_second": round(service_rate, 3),
            "queue_overhead": round(overhead, 3),
            "service_batches": service_stats.batches,
            "service_executed": service_stats.executed,
            "abandoned": service_stats.abandoned,
        },
    )


def _run_service(specs, store_path, proxy_plan=None):
    """One timed service run; workers dial in through a chaos proxy
    when a plan is given, directly otherwise.  Returns
    ``(results, seconds, fallbacks)``."""
    store = JobStore(store_path)
    coordinator = CoordinatorServer(store=store).start()
    proxy = None
    worker_url = coordinator.url
    if proxy_plan is not None:
        proxy = ChaosProxy(coordinator.url, plan=proxy_plan).start()
        worker_url = proxy.url
    workers = [
        PullWorker(worker_url, name=f"bench-{i}", idle_poll=0.02).start()
        for i in range(2)
    ]
    try:
        with ExperimentEngine(
            mode="service", coordinator_url=coordinator.url
        ) as engine:
            start = time.perf_counter()
            results = run_specs(specs, engine=engine)
            seconds = time.perf_counter() - start
            fallbacks = engine.stats.fallbacks
    finally:
        for worker in workers:
            worker.stop()
        if proxy is not None:
            proxy.stop()
        coordinator.stop()
        store.close()
    return results, seconds, fallbacks


@pytest.mark.benchmark(group="engine")
def test_service_queue_faulty_network(benchmark, report, tmp_path):
    """E2b: the queue on a lossy worker network (5% dropped requests).

    The same sweep batch runs twice: once clean, once with both pull
    workers dialing in through a chaos proxy that drops 5% of their
    requests (seeded, so every run replays the same loss pattern).
    Dropped leases, completions and heartbeats all resolve through the
    shared retry policy; results must stay identical, and the recorded
    metric is how much throughput the retries cost.
    """
    specs = _batch()
    serial_results = run_specs(specs)

    clean_results, clean_seconds, clean_fallbacks = _run_service(
        specs, tmp_path / "clean.sqlite"
    )

    plan = FaultPlan(
        [FaultRule("drop", probability=0.05, times=None)], seed=2024
    )

    def _faulty():
        return _run_service(specs, tmp_path / "faulty.sqlite", plan)

    faulty_results, faulty_seconds, faulty_fallbacks = benchmark.pedantic(
        _faulty, rounds=1, iterations=1
    )

    # A lossy network must never change artefacts or force a fallback.
    assert clean_results == serial_results
    assert faulty_results == serial_results
    assert clean_fallbacks == 0 and faulty_fallbacks == 0

    degradation = faulty_seconds / clean_seconds if clean_seconds else 0.0
    dropped = sum(
        1 for record in plan.injections if record["kind"] == "drop"
    )
    report.add(
        f"E2b — service queue on a lossy network ({len(specs)} spec "
        "jobs, 2 workers, 5% request drops)",
        render_table(
            ["network", "seconds", "slowdown"],
            [
                ["clean", f"{clean_seconds:.2f}", "1.00x"],
                ["5% drops", f"{faulty_seconds:.2f}",
                 f"{degradation:.2f}x"],
            ],
        ),
    )
    report.record(
        "service_queue_faulty_network",
        {
            "jobs": len(specs),
            "workers": 2,
            "drop_probability": 0.05,
            "clean_seconds": round(clean_seconds, 4),
            "faulty_seconds": round(faulty_seconds, 4),
            "degradation": round(degradation, 3),
            "proxied_requests": plan.requests,
            "dropped_requests": dropped,
        },
    )
