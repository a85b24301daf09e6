"""The application under analysis: a cruise-control-style control loop.

Section 4.2 describes the evaluation workload as "an application mimicking
a control loop (e.g., of an Automotive Cruise Control System)" performing
"the typical sequence of signal acquisition, computation and status
update", operating on two medium-size data structures, deployed in two
variants matching the reference scenarios.

We reconstruct it behaviourally: each loop iteration acquires input
signals (data reads), computes (code fetches spilling out of the
instruction cache into the PFlash), and publishes status (data writes).
Block counts are *inverted from the paper's Table 6 counter readings*
(see :mod:`repro.workloads.footprint`), so running the reconstruction in
isolation on the simulator reproduces the published counter footprint —
scaled by an optional factor to keep simulations fast.

Exactness: code miss counts are split into explicit sequential/random
sub-populations and data stalls into a read/write Diophantine split
(``11·n_r + 10·n_w = DS``), so PMEM_STALL/DMEM_STALL land within a few
cycles of the (scaled) targets rather than drifting with sampling noise.
"""

from __future__ import annotations

import dataclasses
import math

from repro import paper
from repro.counters.readings import TaskReadings
from repro.errors import WorkloadError
from repro.platform.deployment import DeploymentScenario
from repro.platform.targets import Operation, Target
from repro.sim.program import TaskProgram
from repro.sim.requests import MissKind
from repro.sim.timing import SimTiming
from repro.workloads.footprint import isolation_cycles
from repro.workloads.spec import RequestBlock, WorkloadSpec, spread_counts

#: Number of loop iterations the request budget is spread over; keeps the
#: acquisition/compute/update phases interleaving in co-runs the way a real
#: periodic control task would.
DEFAULT_CHUNKS = 32


def split_code_misses(pm: int, ps: int) -> tuple[int, int]:
    """Split PM code misses into (random, sequential) hitting PS stalls.

    Solves ``16·x + 6·(PM − x) = PS`` and rounds to the nearest integer;
    the residual error is at most 5 stall cycles.
    """
    if pm < 0 or ps < 0:
        raise WorkloadError("counts must be non-negative")
    if pm == 0:
        if ps:
            raise WorkloadError("code stalls without code misses")
        return 0, 0
    x = int(round((ps - 6 * pm) / 10))
    x = min(pm, max(0, x))
    return x, pm - x


def split_data_rw(ds: int) -> tuple[int, int]:
    """Split a DMEM_STALL budget into LMU (reads, writes): exact solution
    of ``11·n_r + 10·n_w = DS`` with the counts as balanced as possible.

    Reads stall 11 cycles, buffered writes 10 (Table 2), so ``n_r`` must
    be congruent to DS modulo 10; we pick the representative closest to an
    even split.
    """
    if ds < 0:
        raise WorkloadError("stall budget must be non-negative")
    if ds == 0:
        return 0, 0
    if ds < 10:
        raise WorkloadError(f"data stall budget {ds} below one access")
    balanced = ds / 21  # n_r == n_w would each be ~DS/21
    n_r = ds % 10 + 10 * max(0, round((balanced - ds % 10) / 10))
    while 11 * n_r > ds:
        n_r -= 10
    if n_r < 0:
        # All-writes solution requires DS divisible by 10; fall back to
        # the smallest feasible read count.
        n_r = ds % 10
        if 11 * n_r > ds:
            raise WorkloadError(f"data stall budget {ds} not representable")
    n_w = (ds - 11 * n_r) // 10
    assert 11 * n_r + 10 * n_w == ds
    return n_r, n_w


@dataclasses.dataclass(frozen=True)
class ControlLoopLayout:
    """Resolved request counts of one control-loop build (for reports)."""

    readings_target: TaskReadings
    code_random: int
    code_sequential: int
    lmu_reads: int
    lmu_writes: int
    lmu_clean_misses: int
    pf_const_misses: int
    epilogue_gap: int


def _chunked_blocks(
    layout: ControlLoopLayout, chunks: int
) -> list[RequestBlock]:
    """Interleave the phase populations over loop iterations.

    Each chunk is one burst of control-loop iterations: acquisition reads,
    computation fetches (with the random/sequential mix), optional
    constant-table misses, then status-update writes.
    """
    code_rand = spread_counts(layout.code_random, [1.0] * chunks)
    code_seq = spread_counts(layout.code_sequential, [1.0] * chunks)
    reads = spread_counts(layout.lmu_reads, [1.0] * chunks)
    writes = spread_counts(layout.lmu_writes, [1.0] * chunks)
    lmu_miss = spread_counts(layout.lmu_clean_misses, [1.0] * chunks)
    pf_miss = spread_counts(layout.pf_const_misses, [1.0] * chunks)

    blocks: list[RequestBlock] = []
    for chunk in range(chunks):
        # -- acquisition: read input signals from the shared LMU ---------
        if reads[chunk]:
            blocks.append(
                RequestBlock(
                    target=Target.LMU,
                    operation=Operation.DATA,
                    count=reads[chunk],
                    gap=1,
                    miss_kind=MissKind.UNCACHED,
                )
            )
        if lmu_miss[chunk]:
            blocks.append(
                RequestBlock(
                    target=Target.LMU,
                    operation=Operation.DATA,
                    count=lmu_miss[chunk],
                    gap=1,
                    sequential_fraction=1.0,
                    miss_kind=MissKind.DCACHE_MISS_CLEAN,
                )
            )
        # -- computation: code spilling into the PFlash banks ------------
        for flavour_count, fraction in (
            (code_seq[chunk], 1.0),
            (code_rand[chunk], 0.0),
        ):
            if not flavour_count:
                continue
            for target, share in zip(
                (Target.PF0, Target.PF1),
                spread_counts(flavour_count, [1.0, 1.0]),
            ):
                if share:
                    blocks.append(
                        RequestBlock(
                            target=target,
                            operation=Operation.CODE,
                            count=share,
                            gap=2,
                            sequential_fraction=fraction,
                            miss_kind=MissKind.ICACHE_MISS,
                        )
                    )
        if pf_miss[chunk]:
            for target, share in zip(
                (Target.PF0, Target.PF1),
                spread_counts(pf_miss[chunk], [1.0, 1.0]),
            ):
                if share:
                    blocks.append(
                        RequestBlock(
                            target=target,
                            operation=Operation.DATA,
                            count=share,
                            gap=1,
                            sequential_fraction=1.0,
                            miss_kind=MissKind.DCACHE_MISS_CLEAN,
                        )
                    )
        # -- status update: publish outputs to the shared LMU ------------
        if writes[chunk]:
            blocks.append(
                RequestBlock(
                    target=Target.LMU,
                    operation=Operation.DATA,
                    count=writes[chunk],
                    gap=1,
                    write_fraction=1.0,
                    miss_kind=MissKind.UNCACHED,
                )
            )
    return blocks


def build_control_loop(
    scenario: DeploymentScenario,
    *,
    scale: float = 1.0,
    name: str = "app",
    chunks: int = DEFAULT_CHUNKS,
    timing: SimTiming | None = None,
) -> tuple[TaskProgram, ControlLoopLayout]:
    """Build the control-loop application for a reference scenario.

    Args:
        scenario: ``scenario_1()`` or ``scenario_2()`` (the two deployment
            variants of Section 4.2).
        scale: footprint scale relative to the paper's full-size run
            (1.0 reproduces Table 6; benchmarks default to 1/16).
        name: task name carried into readings.
        chunks: how many loop iterations the populations interleave over.
        timing: simulator timing used for the CCNT padding computation.

    Returns:
        The replayable program and the resolved layout (for reports).
    """
    if scenario.name not in ("scenario1", "scenario2"):
        raise WorkloadError(
            "the control loop is defined for the two reference scenarios; "
            f"got {scenario.name!r}"
        )
    if scale <= 0 or scale > 1.0:
        raise WorkloadError("scale must be in (0, 1]")

    target = paper.table6(scenario.name, "app")
    if scale != 1.0:
        target = target.scaled(scale, name=name)

    code_random, code_sequential = split_code_misses(target.pm, target.ps)

    if scenario.name == "scenario1":
        lmu_clean = pf_const = 0
        data_budget = target.ds
    else:
        # Scenario 2: part of the DMC misses are constant-table fills on
        # the PFlash banks, the rest cacheable LMU data; each fill costs
        # 11 stall cycles, the remaining budget is uncached LMU traffic.
        pf_const = int(round(target.dmc * 0.6))
        lmu_clean = target.dmc - pf_const
        data_budget = target.ds - 11 * target.dmc
        if data_budget < 0:
            raise WorkloadError(
                "data-cache misses alone exceed the DMEM_STALL budget"
            )
    lmu_reads, lmu_writes = split_data_rw(data_budget)

    layout = ControlLoopLayout(
        readings_target=target,
        code_random=code_random,
        code_sequential=code_sequential,
        lmu_reads=lmu_reads,
        lmu_writes=lmu_writes,
        lmu_clean_misses=lmu_clean,
        pf_const_misses=pf_const,
        epilogue_gap=0,
    )
    chunks = max(1, min(chunks, max(1, target.pm)))
    spec = WorkloadSpec(
        name=name, blocks=tuple(_chunked_blocks(layout, chunks))
    )

    # Pad with trailing computation to the derived isolation time.
    iso_target = int(math.ceil(paper.ISOLATION_CYCLES[scenario.name] * scale))
    body_cycles = isolation_cycles(spec.program(), timing)
    epilogue = max(0, iso_target - body_cycles)
    layout = dataclasses.replace(layout, epilogue_gap=epilogue)
    spec = dataclasses.replace(spec, epilogue_gap=epilogue)
    return spec.program(), layout
