"""Per-task debug-counter readings — the models' only input about a task.

A :class:`TaskReadings` object is what "running the task in isolation and
reading the DSU" produces (Table 4/Table 6 of the paper): cumulative
PMEM_STALL / DMEM_STALL stall cycles, the three cache-miss counts and,
optionally, the observed execution time (CCNT) needed to turn a contention
bound into a WCET estimate.

The class is deliberately dumb — plain validated integers — because model
flexibility (contribution ➂) comes from *interpreting* the readings under a
deployment scenario, which is the job of :mod:`repro.core`.
"""

from __future__ import annotations

import dataclasses
import math

from repro.counters.dsu import DebugCounter
from repro.errors import CounterError


@dataclasses.dataclass(frozen=True)
class TaskReadings:
    """Cumulative DSU readings of one task over one run in isolation.

    Attributes:
        name: task identifier for reports (e.g. ``"app"``, ``"H-Load"``).
        pmem_stall: PMEM_STALL — cycles stalled on the program memory
            interface (``cs^co`` in the paper's notation).
        dmem_stall: DMEM_STALL — cycles stalled on the data memory
            interface (``cs^da``).
        pcache_miss: PCACHE_MISS — instruction cache misses (``PM``).
        dcache_miss_clean: D$ clean misses (``DMC``).
        dcache_miss_dirty: D$ dirty misses (``DMD``).
        ccnt: observed execution time in cycles, if collected.  Required
            only when assembling WCET estimates, not for contention bounds.
    """

    name: str
    pmem_stall: int
    dmem_stall: int
    pcache_miss: int
    dcache_miss_clean: int = 0
    dcache_miss_dirty: int = 0
    ccnt: int | None = None

    def __post_init__(self) -> None:
        for field in (
            "pmem_stall",
            "dmem_stall",
            "pcache_miss",
            "dcache_miss_clean",
            "dcache_miss_dirty",
        ):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 0:
                raise CounterError(
                    f"{self.name!r}: {field} must be a non-negative integer, "
                    f"got {value!r}"
                )
        if self.ccnt is not None and (
            not isinstance(self.ccnt, int) or self.ccnt <= 0
        ):
            raise CounterError(
                f"{self.name!r}: ccnt must be a positive integer when present"
            )
        if self.ccnt is not None and self.ccnt < self.pmem_stall + self.dmem_stall:
            raise CounterError(
                f"{self.name!r}: execution time ({self.ccnt}) is shorter "
                f"than the stall cycles it must contain "
                f"({self.pmem_stall + self.dmem_stall})"
            )

    # ------------------------------------------------------------------
    # Table 4 shorthand accessors
    # ------------------------------------------------------------------
    @property
    def ps(self) -> int:
        """PMEM_STALL (code stall cycles, ``cs^co``)."""
        return self.pmem_stall

    @property
    def ds(self) -> int:
        """DMEM_STALL (data stall cycles, ``cs^da``)."""
        return self.dmem_stall

    @property
    def pm(self) -> int:
        """PCACHE_MISS (instruction cache miss count)."""
        return self.pcache_miss

    @property
    def dmc(self) -> int:
        """DCACHE_MISS_CLEAN."""
        return self.dcache_miss_clean

    @property
    def dmd(self) -> int:
        """DCACHE_MISS_DIRTY."""
        return self.dcache_miss_dirty

    @property
    def data_cache_misses(self) -> int:
        """Total data-cache misses (DMC + DMD).

        Under Scenario 2 this is a lower bound on the task's SRI data
        requests (the tailoring constraint of Table 5).
        """
        return self.dcache_miss_clean + self.dcache_miss_dirty

    def require_ccnt(self) -> int:
        """Return the execution time, raising if it was not collected."""
        if self.ccnt is None:
            raise CounterError(
                f"{self.name!r}: execution time (CCNT) was not collected; "
                "it is required to assemble a WCET estimate"
            )
        return self.ccnt

    # ------------------------------------------------------------------
    # Derived / transformed readings
    # ------------------------------------------------------------------
    def scaled(self, factor: float, *, name: str | None = None) -> "TaskReadings":
        """Scale every reading by ``factor`` (rounding up, conservatively).

        Used to synthesise the M/L-load contender readings from the H-Load
        row of Table 6 and to shrink workloads for fast simulation.  Counts
        are rounded *up* so scaled readings never under-approximate.
        """
        if not math.isfinite(factor) or factor <= 0:
            raise CounterError(
                f"scale factor must be positive and finite, got {factor!r}"
            )

        def scale(value: int) -> int:
            return int(math.ceil(value * factor))

        return TaskReadings(
            name=name if name is not None else f"{self.name}x{factor:g}",
            pmem_stall=scale(self.pmem_stall),
            dmem_stall=scale(self.dmem_stall),
            pcache_miss=scale(self.pcache_miss),
            dcache_miss_clean=scale(self.dcache_miss_clean),
            dcache_miss_dirty=scale(self.dcache_miss_dirty),
            ccnt=scale(self.ccnt) if self.ccnt is not None else None,
        )

    def with_ccnt(self, ccnt: int) -> "TaskReadings":
        """A copy of the readings with the execution time attached."""
        return dataclasses.replace(self, ccnt=ccnt)

    def as_row(self) -> dict[str, int]:
        """Table 6 row rendering: ``{PM, DMC, DMD, PS, DS}``."""
        return {
            "PM": self.pcache_miss,
            "DMC": self.dcache_miss_clean,
            "DMD": self.dcache_miss_dirty,
            "PS": self.pmem_stall,
            "DS": self.dmem_stall,
        }

    @classmethod
    def from_bank_snapshot(
        cls,
        name: str,
        snapshot: dict[DebugCounter, int],
        *,
        ccnt: int | None = None,
    ) -> "TaskReadings":
        """Build readings from a :class:`~repro.counters.dsu.CounterBank`
        snapshot taken by the simulator's DSU."""
        return cls(
            name=name,
            pmem_stall=snapshot.get(DebugCounter.PMEM_STALL, 0),
            dmem_stall=snapshot.get(DebugCounter.DMEM_STALL, 0),
            pcache_miss=snapshot.get(DebugCounter.PCACHE_MISS, 0),
            dcache_miss_clean=snapshot.get(DebugCounter.DCACHE_MISS_CLEAN, 0),
            dcache_miss_dirty=snapshot.get(DebugCounter.DCACHE_MISS_DIRTY, 0),
            ccnt=ccnt
            if ccnt is not None
            else (snapshot.get(DebugCounter.CCNT) or None),
        )
