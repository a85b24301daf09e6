"""Deriving workload parameters from target counter footprints.

The paper characterises its application and contenders only through their
debug-counter readings (Table 6).  To make the simulator reproduce those
tasks we invert the timing model: given a desired (PM, PS) pair, what mix
of sequential and random code fetches produces exactly those stalls?
Given a DS budget on the LMU, how many reads and writes?

The inversion uses the same Table 2 constants the models use:

* code on pf: sequential stall 6, random stall 16
  → random fraction ``x = (PS/PM − 6) / 10``;
* uncached LMU data: read stall 11, write stall 10
  → write fraction ``w = 11 − DS/N`` once ``N ≈ DS/10.5`` is chosen;
* cacheable data misses cost the stall of their (sequential) fill.

Every helper returns :class:`~repro.workloads.spec.RequestBlock` objects;
:func:`isolation_cycles` computes a program's exact single-core execution
time in closed form over its compiled arrays (isolation timing is purely
sequential), so builders can pad tasks to a target CCNT.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.platform.targets import Operation, Target
from repro.sim.program import TaskProgram
from repro.sim.requests import MissKind
from repro.sim.timing import SimTiming, tc27x_sim_timing
from repro.workloads.spec import RequestBlock, spread_counts


def code_random_fraction(
    pm: int, ps: int, *, stall_seq: int = 6, stall_random: int = 16
) -> float:
    """Fraction of random (non-prefetch) code misses hitting a (PM, PS).

    Solves ``stall_random·x + stall_seq·(1−x) = PS/PM`` for x.  Raises if
    the requested average stall per miss is outside the achievable
    [stall_seq, stall_random] band.
    """
    if pm <= 0:
        if ps:
            raise WorkloadError("cannot have code stalls without misses")
        return 0.0
    average = ps / pm
    if not stall_seq - 1e-9 <= average <= stall_random + 1e-9:
        raise WorkloadError(
            f"average code stall {average:.3f} outside achievable "
            f"[{stall_seq}, {stall_random}]"
        )
    return min(1.0, max(0.0, (average - stall_seq) / (stall_random - stall_seq)))


def code_blocks(
    pm: int,
    ps: int,
    *,
    targets: tuple[Target, ...] = (Target.PF0, Target.PF1),
    gap: int = 2,
) -> list[RequestBlock]:
    """Cacheable code-fetch blocks hitting the (PM, PS) footprint.

    Misses are spread evenly over the given PFlash interfaces (real
    linkers interleave code images over both banks).
    """
    random_fraction = code_random_fraction(pm, ps)  # validates (pm, ps)
    if pm == 0:
        return []
    shares = spread_counts(pm, [1.0] * len(targets))
    return [
        RequestBlock(
            target=target,
            operation=Operation.CODE,
            count=count,
            gap=gap,
            sequential_fraction=1.0 - random_fraction,
            miss_kind=MissKind.ICACHE_MISS,
        )
        for target, count in zip(targets, shares)
        if count
    ]


def uncached_lmu_data_block(
    ds: int,
    *,
    gap: int = 1,
    stall_read: int = 11,
    stall_write: int = 10,
) -> RequestBlock | None:
    """A non-cacheable LMU data block consuming ``ds`` stall cycles.

    Picks the access count so the required write fraction lies in (0, 1]:
    ``N = round(ds / 10.5)``, then ``w = 11 − ds/N``.
    """
    if ds == 0:
        return None
    if ds < stall_write:
        raise WorkloadError(
            f"data stall budget {ds} below one access ({stall_write})"
        )
    count = max(1, int(round(ds / ((stall_read + stall_write) / 2))))
    # Nudge the count until the write fraction is representable.
    for candidate in _near(count):
        if candidate <= 0:
            continue
        average = ds / candidate
        write_fraction = stall_read - average
        if -1e-9 <= write_fraction <= 1.0 + 1e-9:
            return RequestBlock(
                target=Target.LMU,
                operation=Operation.DATA,
                count=candidate,
                gap=gap,
                write_fraction=min(1.0, max(0.0, write_fraction)),
                miss_kind=MissKind.UNCACHED,
            )
    raise WorkloadError(f"cannot realise data stall budget {ds}")


def _near(count: int, radius: int = 8) -> list[int]:
    """Candidate counts around an estimate, nearest first."""
    candidates = [count]
    for delta in range(1, radius + 1):
        candidates += [count - delta, count + delta]
    return candidates


def cacheable_data_miss_block(
    count: int,
    target: Target,
    *,
    gap: int = 1,
    dirty_fraction: float = 0.0,
    sequential: bool = True,
) -> RequestBlock | None:
    """Cacheable data misses (DMC/DMD events) with line-fill transactions."""
    if count == 0:
        return None
    return RequestBlock(
        target=target,
        operation=Operation.DATA,
        count=count,
        gap=gap,
        sequential_fraction=1.0 if sequential else 0.0,
        miss_kind=MissKind.DCACHE_MISS_DIRTY
        if dirty_fraction >= 1.0
        else MissKind.DCACHE_MISS_CLEAN,
        dirty_fraction=dirty_fraction,
    )


def dflash_data_block(
    count: int, *, gap: int = 4, write_fraction: float = 0.0
) -> RequestBlock | None:
    """Non-cacheable DFlash data accesses (calibration/EEPROM traffic)."""
    if count == 0:
        return None
    return RequestBlock(
        target=Target.DFL,
        operation=Operation.DATA,
        count=count,
        gap=gap,
        write_fraction=write_fraction,
        miss_kind=MissKind.UNCACHED,
    )


def isolation_cycles(
    program: TaskProgram, timing: SimTiming | None = None
) -> int:
    """Exact single-core execution time of a program, computed directly.

    In isolation the core never waits on arbitration, so the time is the
    closed form of :meth:`~repro.sim.program.CompiledProgram.isolation_time`
    over the compiled arrays — the same helper
    :meth:`repro.sim.system.SystemSimulator.run` uses for a run with one
    core and no DMA agent, so this equals that run's finish time (a
    property the test-suite asserts) without building its counters.
    Used by workload builders to pad programs to a target CCNT.
    """
    timing = timing or tc27x_sim_timing()
    compiled = program.compiled()
    requests = compiled.requests
    return compiled.isolation_time(
        [timing.service_time(r) for r in requests],
        [timing.device(r.target).overlap(r) for r in requests],
        compiled.rid_counts(),
    )
