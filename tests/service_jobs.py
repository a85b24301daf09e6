"""Job and polling helpers shared by the service test suites.

The jobs here travel through the real wire format to in-process pull
workers, so they must be module-level (picklable by reference) — which
is why they live in an importable module rather than in ``conftest.py``.
The coordinator/worker fixtures that run them are in ``conftest.py``.
"""

from __future__ import annotations

import time

from repro.engine.batch import job
from repro.service.client import coordinator_health, fetch_results


def slow_record(label: str, delay: float, path: str) -> str:
    """Job: sleep, then append the label to a log file.

    The log is the double-execution detector: a label appearing twice
    means a unit ran twice, which lease fencing must prevent in every
    scenario the service suites stage.
    """
    time.sleep(delay)  # repro: ignore[bare-sleep-loop] the job's runtime is the point: it holds a lease open long enough to observe
    with open(path, "a") as handle:
        handle.write(label + "\n")
    return label


def slow_jobs(path, count=6, delay=0.1, cacheable=True):
    """``count`` :func:`slow_record` jobs logging to ``path``."""
    return [
        job(
            slow_record,
            f"unit{i}",
            delay,
            str(path),
            label=f"slow:{i}",
            cacheable=cacheable,
        )
        for i in range(count)
    ]


def collect(url: str, job_id: str, total: int) -> list:
    """A complete job's result values, in submission order."""
    complete, _cancelled, units = fetch_results(url, job_id)
    assert complete
    results = [None] * total
    for indices, outcomes in units:
        for index, outcome in zip(indices, outcomes):
            assert outcome.ok, outcome.error
            results[index] = outcome.value
    return results


def wait_workers(url: str, count: int, timeout: float = 10.0) -> None:
    """Block until ``count`` workers are live on the coordinator."""
    deadline = time.monotonic() + timeout
    while coordinator_health(url)["workers"] < count:
        assert time.monotonic() < deadline, "workers never registered"
        time.sleep(0.02)  # repro: ignore[bare-sleep-loop] test-local poll of an in-process coordinator's registry
