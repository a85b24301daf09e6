"""Contender tasks: the H-Load / M-Load / L-Load SRI stressors.

Section 4.2: "We stress the application with 3 different co-runners that
generate an increasing (load) number of accesses to the SRI".  The H-Load
counter footprint is published in Table 6; M and L are not, so they are
scaled replicas (factors recorded in :mod:`repro.paper` — L ≈ 0.5 matches
the published Figure 4 endpoints).

A load generator is structurally simpler than the application: a tight
loop of code fetches and LMU data traffic with minimal computation gaps,
deployed under the same scenario as the application (the paper assumes
deployment configurations apply equally to contenders).
"""

from __future__ import annotations

import functools

from repro import paper
from repro.counters.readings import TaskReadings
from repro.errors import WorkloadError
from repro.platform.targets import Operation, Target
from repro.sim.program import TaskProgram
from repro.sim.requests import MissKind
from repro.workloads.control_loop import split_code_misses, split_data_rw
from repro.workloads.spec import RequestBlock, WorkloadSpec, chunked_blocks

#: Loop interleaving granularity of the load generators.
LOAD_CHUNKS = 16

#: Recognised load levels, highest first.
LOAD_LEVELS: tuple[str, ...] = ("H", "M", "L")


def load_readings(scenario_name: str, level: str) -> TaskReadings:
    """Counter footprint of one load level (H verbatim from Table 6)."""
    if level not in LOAD_LEVELS:
        raise WorkloadError(
            f"unknown load level {level!r}; expected one of {LOAD_LEVELS}"
        )
    try:
        return paper.contender_readings(scenario_name, level)
    except KeyError as exc:
        raise WorkloadError(f"unknown scenario {scenario_name!r}") from exc


def build_load(
    scenario_name: str,
    level: str,
    *,
    scale: float = 1.0,
) -> TaskProgram:
    """Build a load-generator program matching a (scaled) footprint.

    The spec behind the program is built once per process for each
    (scenario, level, scale); every call returns a fresh program, so its
    compiled arrays live only as long as the program does.

    Args:
        scenario_name: ``"scenario1"`` or ``"scenario2"`` (decides where
            the contender's data traffic goes, per Figure 3).
        level: ``"H"``, ``"M"`` or ``"L"``.
        scale: additional footprint scale (the same factor applied to the
            application keeps the experiment proportions intact).
    """
    if not 0.0 < scale <= 1.0:  # also rejects NaN
        raise WorkloadError("scale must be in (0, 1]")
    return _load_spec(scenario_name, level, scale).program()


# Bounded, so a long-lived worker that meets many scales stays small.
@functools.lru_cache(maxsize=256)
def _load_spec(scenario_name: str, level: str, scale: float) -> WorkloadSpec:
    """The load generator's spec (memoised)."""
    target = load_readings(scenario_name, level)
    if scale != 1.0:
        target = target.scaled(scale, name=target.name)

    code_random, code_sequential = split_code_misses(target.pm, target.ps)
    if scenario_name == "scenario1":
        clean_misses = 0
        data_budget = target.ds
    elif scenario_name == "scenario2":
        clean_misses = target.dmc + target.dmd
        data_budget = target.ds - 11 * clean_misses
        if data_budget < 0:
            # At strong down-scaling the miss fills can exceed the stall
            # budget; drop the misses rather than fail (they are a few
            # hundred out of tens of thousands of cycles).
            clean_misses = 0
            data_budget = target.ds
    else:
        raise WorkloadError(f"unknown scenario {scenario_name!r}")
    lmu_reads, lmu_writes = split_data_rw(data_budget)

    # A tight loop: code fetches, then LMU traffic, no computation gaps.
    phases = (
        RequestBlock(
            Target.PF0,
            Operation.CODE,
            code_sequential,
            gap=0,
            sequential_fraction=1.0,
            miss_kind=MissKind.ICACHE_MISS,
        ),
        RequestBlock(
            Target.PF0,
            Operation.CODE,
            code_random,
            gap=0,
            miss_kind=MissKind.ICACHE_MISS,
        ),
        RequestBlock(
            Target.LMU,
            Operation.DATA,
            clean_misses,
            gap=0,
            sequential_fraction=1.0,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
        ),
        RequestBlock(Target.LMU, Operation.DATA, lmu_reads, gap=0),
        RequestBlock(
            Target.LMU, Operation.DATA, lmu_writes, gap=0, write_fraction=1.0
        ),
    )
    chunks = min(LOAD_CHUNKS, max(1, target.pm))
    return WorkloadSpec(
        name=target.name, blocks=chunked_blocks(phases, chunks)
    )


def all_loads(
    scenario_name: str, *, scale: float = 1.0
) -> dict[str, TaskProgram]:
    """All three load generators of one scenario, keyed H/M/L."""
    return {
        level: build_load(scenario_name, level, scale=scale)
        for level in LOAD_LEVELS
    }
