"""Table 2 of the paper: SRI access latencies and minimum stall cycles.

The contention models consume three families of per-(target, operation)
constants, all measured by the authors with microbenchmarks on a TC277 board
(we re-derive them from the bundled simulator in
:mod:`repro.analysis.characterization`):

``l_max``
    Maximum observable end-to-end latency of a single SRI transaction to a
    target, maximised over read/write operations.  This is the worst delay a
    single in-flight request of a contender can impose on the task under
    analysis, so it is the coefficient used by every contention model.
    The LMU has a second, larger value (21 instead of 11 cycles) that only
    applies when *dirty* data-cache evictions can target it.

``l_min``
    Minimum observable end-to-end latency; documents the benefit of
    prefetching/pipelining on the flash interfaces.

``cs`` (``cs^{t,o}``)
    Minimum number of *pipeline stall* cycles a single access of type ``o``
    to target ``t`` can cost in isolation.  Lower bounds are what the model
    needs: dividing a task's cumulative stall counters by them yields an
    over-approximation of its SRI access counts (Eqs. 2-4).

Values (cycles), verbatim from Table 2 — the two PFlash interfaces share the
``pf`` column:

================  =====  ====  ====
quantity           lmu    pf   dfl
================  =====  ====  ====
l_max             11(21)  16    43
l_min               11    12    43
cs (code)           11     6     -
cs (data)           10    11    42
================  =====  ====  ====
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Mapping

from repro.errors import PlatformError
from repro.platform.targets import (
    ALL_TARGETS,
    Operation,
    Target,
    check_pair,
    is_valid_pair,
    targets_for,
)


@dataclasses.dataclass(frozen=True)
class TargetTiming:
    """Timing constants of one SRI target (one column of Table 2).

    Attributes:
        l_max: maximum end-to-end latency of a single transaction (cycles).
        l_min: minimum end-to-end latency of a single transaction (cycles).
        l_max_dirty: maximum latency when a dirty cache eviction can hit the
            target, or ``None`` when the distinction does not exist.  Only
            the LMU has one (21 cycles vs. 11).
        cs_code: minimum stall cycles of a single code access, or ``None``
            if the target cannot serve code (DFlash).
        cs_data: minimum stall cycles of a single data access.
    """

    l_max: int
    l_min: int
    cs_data: int
    cs_code: int | None = None
    l_max_dirty: int | None = None

    def __post_init__(self) -> None:
        if self.l_min > self.l_max:
            raise PlatformError(
                f"l_min ({self.l_min}) must not exceed l_max ({self.l_max})"
            )
        if self.l_max_dirty is not None and self.l_max_dirty < self.l_max:
            raise PlatformError(
                f"dirty-miss latency ({self.l_max_dirty}) must not be below "
                f"l_max ({self.l_max})"
            )
        for name in ("l_max", "l_min", "cs_data"):
            if getattr(self, name) <= 0:
                raise PlatformError(f"{name} must be positive")
        if self.cs_code is not None and self.cs_code <= 0:
            raise PlatformError("cs_code must be positive when present")

    def cs(self, operation: Operation) -> int:
        """Minimum stall cycles of a single ``operation`` access."""
        if operation is Operation.CODE:
            if self.cs_code is None:
                raise PlatformError("target cannot serve code accesses")
            return self.cs_code
        return self.cs_data

    def latency(self, *, dirty: bool = False) -> int:
        """Worst-case single-transaction latency, optionally dirty-aware."""
        if dirty and self.l_max_dirty is not None:
            return self.l_max_dirty
        return self.l_max


class LatencyProfile:
    """Complete per-target timing description of a platform (Table 2).

    The default :func:`tc27x_latency_profile` instance encodes the paper's
    Table 2; alternative profiles can be constructed to port the model to
    other TriCore family members (Section 4.3 of the paper).
    """

    def __init__(self, timings: Mapping[Target, TargetTiming]) -> None:
        missing = [t for t in ALL_TARGETS if t not in timings]
        if missing:
            raise PlatformError(
                "latency profile is missing targets: "
                + ", ".join(t.value for t in missing)
            )
        for target, timing in timings.items():
            can_serve_code = is_valid_pair(target, Operation.CODE)
            if can_serve_code and timing.cs_code is None:
                raise PlatformError(
                    f"{target.value} can serve code but has no cs_code"
                )
            if not can_serve_code and timing.cs_code is not None:
                raise PlatformError(
                    f"{target.value} cannot serve code but defines cs_code"
                )
        self._timings = dict(timings)

    def timing(self, target: Target) -> TargetTiming:
        """Return the :class:`TargetTiming` of ``target``."""
        return self._timings[target]

    # ------------------------------------------------------------------
    # Latencies (the l^{t,o} coefficients of the models)
    # ------------------------------------------------------------------
    def latency(
        self, target: Target, operation: Operation, *, dirty: bool = False
    ) -> int:
        """Worst-case latency ``l^{t,o}`` of one ``operation`` to ``target``.

        Args:
            target: the SRI slave addressed.
            operation: code or data.
            dirty: when true and the target distinguishes dirty evictions
                (the LMU), the dirty-miss latency is returned.  The paper
                notes dirty latencies "apply only on limited scenarios";
                scenario objects decide when to enable this flag.
        """
        check_pair(target, operation)
        if operation is Operation.CODE:
            # A code fetch can never be a dirty eviction.
            dirty = False
        return self._timings[target].latency(dirty=dirty)

    def min_latency(self, target: Target) -> int:
        """Minimum observable end-to-end latency ``l_min`` of ``target``."""
        return self._timings[target].l_min

    # ------------------------------------------------------------------
    # Minimum stall cycles (the cs^{t,o} coefficients of Eqs. 2-4, 20-23)
    # ------------------------------------------------------------------
    def stall_cycles(self, target: Target, operation: Operation) -> int:
        """Minimum stall cycles ``cs^{t,o}`` of one access (Table 2)."""
        check_pair(target, operation)
        return self._timings[target].cs(operation)

    def cs_min(
        self,
        operation: Operation,
        targets: tuple[Target, ...] | None = None,
    ) -> int:
        """Smallest per-access stall cost over the reachable targets.

        Implements Eqs. 2-3 of the paper:

        * ``cs_min^co = min(cs^{pf0,co}, cs^{pf1,co}, cs^{lmu,co})``
        * ``cs_min^da = min(cs^{pf0,da}, cs^{pf1,da}, cs^{lmu,da}, cs^{dfl,da})``

        Args:
            operation: the operation type whose minimum is sought.
            targets: optionally restrict the minimum to a subset of targets
                (used by deployment-aware refinements); defaults to every
                target the operation can architecturally reach.
        """
        if targets is None:
            targets = targets_for(operation)
        eligible = [
            self.stall_cycles(t, operation)
            for t in targets
            if is_valid_pair(t, operation)
        ]
        if not eligible:
            raise PlatformError(
                f"no target in {[t.value for t in targets]} can serve "
                f"{operation.value!r} accesses"
            )
        return min(eligible)

    def as_table(self) -> dict[str, dict[str, int | None]]:
        """Render the profile as a Table-2-shaped nested dict (for reports)."""
        table: dict[str, dict[str, int | None]] = {}
        for target in ALL_TARGETS:
            timing = self._timings[target]
            table[target.value] = {
                "l_max": timing.l_max,
                "l_max_dirty": timing.l_max_dirty,
                "l_min": timing.l_min,
                "cs_code": timing.cs_code,
                "cs_data": timing.cs_data,
            }
        return table


#: Timing of the two PFlash program interfaces (shared ``pf`` column).
_PF_TIMING = TargetTiming(l_max=16, l_min=12, cs_code=6, cs_data=11)


@functools.cache
def tc27x_latency_profile() -> LatencyProfile:
    """The TC27x latency profile, verbatim from Table 2 of the paper.

    Built and validated once per process: every call returns the same
    object, which nothing modifies after construction.
    """
    return LatencyProfile(
        {
            Target.LMU: TargetTiming(
                l_max=11, l_min=11, cs_code=11, cs_data=10, l_max_dirty=21
            ),
            Target.PF0: _PF_TIMING,
            Target.PF1: _PF_TIMING,
            Target.DFL: TargetTiming(l_max=43, l_min=43, cs_data=42),
        }
    )
