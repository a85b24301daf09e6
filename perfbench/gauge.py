"""A fixed piece of work timed next to the workload: the host's speed.

On a shared host the speed of one vCPU swings by up to 2x over seconds
to minutes, whatever the benchmark runs.  :func:`sample` times a small
fixed mix of the operations the workloads are made of — heap-driven
event loops, dict and list bookkeeping, small numpy array updates —
written here, so that no change to the library can speed it up.
``body.py`` takes a sample before and after each of the workload's
segments, and ``run.py`` counts each segment's time in the units of the
samples around it.

A segment can last seconds, and the host's speed can change within it,
so a sampler process runs beside the body as well: on the body's vCPU
for a serial workload, on any vCPU beside the service fleet::

    python3 perfbench/gauge.py 0.1

It prints ``<start> <seconds>`` for one sample every 0.1 s (``start`` on
the system-wide monotonic clock) until it is terminated.  Its samples are
CPU seconds: it shares its vCPU with the workload, and the guest's own
time slicing must not count as a slower host.
"""

from __future__ import annotations

import heapq
import sys
import time
from typing import Callable

import numpy as np

_MATRIX = np.linspace(0.0, 1.0, 24 * 24).reshape(24, 24)


def _work() -> int:
    events: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    total = 0
    for i in range(6_000):
        heapq.heappush(events, ((i * 7919) % 1009, i))
        if len(events) > 48:
            when, who = heapq.heappop(events)
            table[who & 127] = table.get(who & 127, 0) + when
            total += when % 7
    rows = _MATRIX.copy()
    for i in range(150):
        rows *= 0.5
        rows += _MATRIX[i % 24]
        pivot = int(np.argmax(rows[:, i % 24]))
        rows[pivot] -= rows[(pivot + 1) % 24]
    return total + len(table) + pivot


def sample(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds one run of the fixed work takes now, on ``clock``."""
    start = clock()
    _work()
    return clock() - start


def main(argv: list[str]) -> int:
    interval = float(argv[0])
    while True:
        start = time.perf_counter()
        seconds = sample(time.process_time)
        print(f"{start!r} {seconds!r}", flush=True)
        time.sleep(interval)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
