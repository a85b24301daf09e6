"""The per-request step generator: the oracle of ``WorkloadSpec._compile``.

This is what ``RequestBlock.steps()`` once was: one :class:`SriRequest`
per transaction, drawn from three :class:`_FractionSequencer` instances
advanced one decision at a time.  Compiling its stream through the step
walk (``program_from_steps``) must give the arrays, request table and
trailing gap that a spec compiles to directly; the compile tests and the
simulator benchmark's compile record both check that.
"""

from __future__ import annotations

from typing import Iterator

from repro.platform.targets import Operation
from repro.sim.program import Step
from repro.sim.requests import MissKind, SriRequest
from repro.workloads.spec import RequestBlock, WorkloadSpec, _FractionSequencer


def oracle_block_steps(block: RequestBlock) -> Iterator[Step]:
    sequential = _FractionSequencer(block.sequential_fraction)
    writes = _FractionSequencer(block.write_fraction)
    dirty = _FractionSequencer(block.dirty_fraction)
    for _ in range(block.count):
        is_dirty = block.operation is Operation.DATA and dirty.next()
        miss_kind = block.miss_kind
        if is_dirty:
            miss_kind = MissKind.DCACHE_MISS_DIRTY
        elif miss_kind is MissKind.DCACHE_MISS_DIRTY:
            miss_kind = MissKind.DCACHE_MISS_CLEAN
        yield (
            block.gap,
            SriRequest(
                target=block.target,
                operation=block.operation,
                miss_kind=miss_kind,
                sequential=sequential.next(),
                write=(
                    block.operation is Operation.DATA
                    and not is_dirty
                    and writes.next()
                ),
                dirty_eviction=is_dirty,
            ),
        )


def oracle_spec_steps(spec: WorkloadSpec) -> Iterator[Step]:
    for _ in range(spec.iterations):
        for block in spec.blocks:
            yield from oracle_block_steps(block)
    if spec.epilogue_gap:
        yield (spec.epilogue_gap, None)
