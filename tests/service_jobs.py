"""Job and polling helpers shared by the service test suites.

The jobs here travel through the real wire format to in-process pull
workers, so they must be module-level (picklable by reference) — which
is why they live in an importable module rather than in ``conftest.py``.
The coordinator/worker fixtures that run them are in ``conftest.py``.
"""

from __future__ import annotations

import threading
import time
import urllib.error

import pytest

from repro.engine.batch import job
from repro.engine.remote.wire import (
    COMPLETE_PATH,
    WireResult,
    encode_unit_result,
)
from repro.service.client import coordinator_health, fetch_results

#: Gates a :func:`slow_record` job may wait on, by name.  In-process
#: pull workers share this module with the test, which registers an
#: event here and sets it to let the gated jobs finish.
GATES: dict[str, threading.Event] = {}


def slow_record(
    label: str, delay: float, path: str, gate: str | None = None
) -> str:
    """Job: wait for ``gate`` (if named) to open, sleep, then append the
    label to a log file.

    The log is the double-execution detector: a label appearing twice
    means a unit ran twice, which lease fencing must prevent in every
    scenario the service suites stage.
    """
    if gate is not None and not GATES[gate].wait(timeout=30):
        raise TimeoutError(f"gate {gate!r} never opened")
    time.sleep(delay)  # repro: ignore[bare-sleep-loop] the job's runtime is the point: it holds a lease open long enough to observe
    with open(path, "a") as handle:
        handle.write(label + "\n")
    return label


def slow_jobs(path, count=6, delay=0.1, cacheable=True, gate=None):
    """``count`` :func:`slow_record` jobs logging to ``path``."""
    return [
        job(
            slow_record,
            f"unit{i}",
            delay,
            str(path),
            gate,
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


def upload_malformed(worker, grant, fence) -> None:
    """POST a wrong-shaped completion of ``grant`` under ``fence`` (two
    result entries for a one-job unit) and expect the 400 rejection."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        worker._post(
            COMPLETE_PATH,
            encode_unit_result(
                worker_id=worker.worker_id,
                job_id=grant["job_id"],
                unit=grant["unit"],
                fence=fence,
                results=[
                    WireResult(ok=True, value="forged"),
                    WireResult(ok=True, value="extra"),
                ],
            ),
        )
    assert excinfo.value.code == 400


def wait_workers(url: str, count: int, timeout: float = 10.0) -> None:
    """Block until ``count`` workers are live on the coordinator."""
    deadline = time.monotonic() + timeout
    while coordinator_health(url)["workers"] < count:
        assert time.monotonic() < deadline, "workers never registered"
        time.sleep(0.02)  # repro: ignore[bare-sleep-loop] test-local poll of an in-process coordinator's registry
