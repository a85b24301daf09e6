"""Per-Target Access Counts (PTAC) — Section 3.3.3 of the paper.

A PTAC is the mapping ``(target, operation) → request count`` of one task.
The SRI serves different slaves in parallel, so no useful contention bound
exists without per-target attribution; the whole point of the ILP model is
to *search* over the PTACs consistent with the observed counters.  The
ideal model (Eq. 1), by contrast, assumes the true PTACs are known — in
this reproduction they are available as simulator ground truth, which lets
the benchmarks quantify exactly how much the limited DSU information costs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Iterator, Mapping

from repro.errors import ModelError
from repro.platform.targets import (
    ALL_TARGETS,
    Operation,
    Target,
    check_pair,
    pair_label,
    sorted_pairs,
)


@dataclasses.dataclass(frozen=True)
class AccessProfile:
    """Exact per-target access counts of one task (its PTAC).

    Attributes:
        task: task name for reports.
        counts: mapping of valid (target, operation) pairs to non-negative
            request counts; absent pairs mean zero.
    """

    task: str
    counts: Mapping[tuple[Target, Operation], int]

    def __post_init__(self) -> None:
        for (target, operation), count in self.counts.items():
            check_pair(target, operation)
            if not isinstance(count, int) or count < 0:
                raise ModelError(
                    f"{self.task!r}: count for {pair_label(target, operation)} "
                    f"must be a non-negative integer, got {count!r}"
                )

    def count(self, target: Target, operation: Operation) -> int:
        """Requests of ``operation`` type to ``target`` (``n^{t,o}``)."""
        check_pair(target, operation)
        return self.counts.get((target, operation), 0)

    def op_total(self, operation: Operation) -> int:
        """Total requests of one class (``n^co`` / ``n^da`` of Eq. 5)."""
        return sum(
            count
            for (_, op), count in self.counts.items()
            if op is operation
        )

    def target_total(self, target: Target) -> int:
        """Total requests addressing ``target`` regardless of type."""
        return sum(
            count
            for (tgt, _), count in self.counts.items()
            if tgt is target
        )

    @property
    def total(self) -> int:
        """Total SRI requests (``n`` of Eq. 5)."""
        return sum(self.counts.values())

    def nonzero_pairs(self) -> list[tuple[Target, Operation]]:
        """Pairs with at least one request, in canonical order."""
        return sorted_pairs(
            pair for pair, count in self.counts.items() if count > 0
        )

    def targets(self, operation: Operation) -> tuple[Target, ...]:
        """Targets actually addressed by ``operation`` requests."""
        hit = {
            target
            for (target, op), count in self.counts.items()
            if op is operation and count > 0
        }
        return tuple(t for t in ALL_TARGETS if t in hit)

    def scaled(self, factor: float, *, task: str | None = None) -> "AccessProfile":
        """Profile with every count scaled (rounded up, conservatively)."""
        if not math.isfinite(factor) or factor <= 0:
            raise ModelError(
                f"scale factor must be positive and finite, got {factor!r}"
            )
        return AccessProfile(
            task=task if task is not None else f"{self.task}x{factor:g}",
            counts={
                pair: int(math.ceil(count * factor))
                for pair, count in self.counts.items()
            },
        )

    def merged(self, other: "AccessProfile", *, task: str = "") -> "AccessProfile":
        """Pointwise sum of two profiles (e.g. phases of one task)."""
        counts = dict(self.counts)
        for pair, count in other.counts.items():
            counts[pair] = counts.get(pair, 0) + count
        return AccessProfile(
            task=task or f"{self.task}+{other.task}", counts=counts
        )

    def as_rows(self) -> Iterator[tuple[str, int]]:
        """(label, count) rows in canonical order, for reports."""
        for target, operation in self.nonzero_pairs():
            yield pair_label(target, operation), self.count(target, operation)


def profile_from_pairs(
    task: str, pairs: Iterable[tuple[Target, Operation, int]]
) -> AccessProfile:
    """Build a profile from (target, operation, count) triples, summing
    duplicates — convenient for workload generators."""
    counts: dict[tuple[Target, Operation], int] = {}
    for target, operation, count in pairs:
        key = (target, operation)
        counts[key] = counts.get(key, 0) + count
    return AccessProfile(task=task, counts=counts)
