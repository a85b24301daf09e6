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
(:func:`split_code_misses` and :func:`split_data_rw` below) and spread
over the loop iterations by :func:`repro.workloads.spec.chunked_blocks`,
all shared with the load generators, so running the reconstruction in
isolation on the simulator reproduces the published counter footprint —
scaled by an optional factor to keep simulations fast; the CCNT padding
uses :func:`repro.workloads.footprint.isolation_cycles`.

Exactness: code miss counts are split into explicit sequential/random
sub-populations and data stalls into a read/write Diophantine split
(``11·n_r + 10·n_w = DS``), so PMEM_STALL/DMEM_STALL land within a few
cycles of the (scaled) targets rather than drifting with sampling noise.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from repro import paper
from repro.counters.readings import TaskReadings
from repro.errors import WorkloadError
from repro.platform.deployment import DeploymentScenario
from repro.platform.targets import Operation, Target
from repro.sim.program import TaskProgram, compile_program, share_compiled
from repro.sim.requests import MissKind
from repro.workloads.footprint import isolation_cycles
from repro.workloads.spec import RequestBlock, WorkloadSpec, chunked_blocks

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


def build_control_loop(
    scenario: DeploymentScenario,
    *,
    scale: float = 1.0,
    name: str = "app",
) -> tuple[TaskProgram, ControlLoopLayout]:
    """Build the control-loop application for a reference scenario.

    The spec behind the program is built once per process for each
    (scenario, scale, name); every call returns a fresh program, so its
    compiled arrays live only as long as the program does.

    Args:
        scenario: ``scenario_1()`` or ``scenario_2()`` (the two deployment
            variants of Section 4.2).
        scale: footprint scale relative to the paper's full-size run
            (1.0 reproduces Table 6; benchmarks default to 1/16).
        name: task name carried into readings.

    Returns:
        The replayable program and the resolved layout (for reports).
    """
    if scenario.name not in ("scenario1", "scenario2"):
        raise WorkloadError(
            "the control loop is defined for the two reference scenarios; "
            f"got {scenario.name!r}"
        )
    if not 0.0 < scale <= 1.0:  # also rejects NaN
        raise WorkloadError("scale must be in (0, 1]")
    spec, layout = _control_loop_spec(scenario.name, scale, name)

    # Pad with trailing computation to the derived isolation time, read
    # off the epilogue-free arrays.  The padded program differs from them
    # only in its trailing gap, so it shares them instead of compiling
    # the spec again.
    body = compile_program(spec.program())
    iso_target = int(math.ceil(paper.ISOLATION_CYCLES[scenario.name] * scale))
    epilogue = max(0, iso_target - isolation_cycles(body))
    program = dataclasses.replace(spec, epilogue_gap=epilogue).program()
    share_compiled(program, body.with_final_gap(epilogue))
    return program, dataclasses.replace(layout, epilogue_gap=epilogue)


# Bounded, so a long-lived worker that meets many scales stays small.
@functools.lru_cache(maxsize=256)
def _control_loop_spec(
    scenario_name: str, scale: float, name: str
) -> tuple[WorkloadSpec, ControlLoopLayout]:
    """The control loop's epilogue-free spec and layout (memoised)."""
    target = paper.table6(scenario_name, "app")
    if scale != 1.0:
        target = target.scaled(scale, name=name)

    code_random, code_sequential = split_code_misses(target.pm, target.ps)

    if scenario_name == "scenario1":
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
    # Each chunk is one burst of loop iterations, gap 1 unless noted:
    # acquisition reads (and cacheable LMU misses), computation fetches
    # spilling into the PFlash banks (and constant-table misses), then
    # status-update writes.
    phases = (
        RequestBlock(Target.LMU, Operation.DATA, lmu_reads),
        RequestBlock(
            Target.LMU,
            Operation.DATA,
            lmu_clean,
            sequential_fraction=1.0,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
        ),
        RequestBlock(
            Target.PF0,
            Operation.CODE,
            code_sequential,
            gap=2,
            sequential_fraction=1.0,
            miss_kind=MissKind.ICACHE_MISS,
        ),
        RequestBlock(
            Target.PF0,
            Operation.CODE,
            code_random,
            gap=2,
            miss_kind=MissKind.ICACHE_MISS,
        ),
        RequestBlock(
            Target.PF0,
            Operation.DATA,
            pf_const,
            sequential_fraction=1.0,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
        ),
        RequestBlock(
            Target.LMU, Operation.DATA, lmu_writes, write_fraction=1.0
        ),
    )
    chunks = min(DEFAULT_CHUNKS, max(1, target.pm))
    spec = WorkloadSpec(name=name, blocks=chunked_blocks(phases, chunks))
    return spec, layout
