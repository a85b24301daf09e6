"""Event-count helper shared by the simulator tests and benchmarks.

:func:`counted_pushes` counts ``SystemSimulator``'s heap pushes per event
kind, so a test or benchmark can pin which shortcuts a run takes.  It
lives in an importable module because the benchmark suite (which puts
``tests/`` on ``sys.path``) uses it too.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
from typing import Iterator

import repro.sim.system as system


@contextlib.contextmanager
def counted_pushes() -> Iterator[collections.Counter[int]]:
    """Count the simulator's heap pushes per event kind."""
    pushes: collections.Counter[int] = collections.Counter()

    class CountingHeapq:
        @staticmethod
        def heappush(heap, item):
            pushes[item[1]] += 1
            heapq.heappush(heap, item)

        heappop = staticmethod(heapq.heappop)

    original = system.heapq
    system.heapq = CountingHeapq  # type: ignore[assignment]
    try:
        yield pushes
    finally:
        system.heapq = original
