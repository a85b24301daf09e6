"""Parametric workload specification: blocks of typed SRI requests.

Workloads are described as sequences of :class:`RequestBlock` objects —
"this phase performs N data reads on the LMU with this much computation in
between" — and compiled into replayable
:class:`~repro.sim.program.TaskProgram` streams.

Mix fractions (sequential/random, read/write, clean/dirty) are realised
with deterministic error-accumulator sequencing instead of random
sampling, so a block's counter footprint is *exact* and identical
across runs and scales — important because the experiment drivers tune
blocks to hit the paper's Table 6 readings.

A spec compiles straight to the simulator's
:class:`~repro.sim.program.CompiledProgram` arrays, so no
:class:`~repro.sim.requests.SriRequest` is built per transaction: a run
of constant-fill blocks becomes one ``np.repeat`` of per-block request
ids, and a block with a fractional mix yields its per-request mix
decisions as one numpy column of variant codes plus the few distinct
requests those codes name.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.ptac import AccessProfile, profile_from_pairs
from repro.errors import WorkloadError
from repro.platform.targets import Operation, Target, check_pair
from repro.sim.program import CompiledProgram, Step, TaskProgram
from repro.sim.requests import MissKind, SriRequest

#: Bits of a block's per-request variant codes (see RequestBlock.columns).
_SEQUENTIAL = 1
_WRITE = 2
_DIRTY = 4


class _FractionSequencer:
    """Deterministic error-accumulator boolean sequence with a given density.

    Each decision adds ``fraction`` to a float accumulator; once the
    accumulator reaches ``1 − 1e-12`` the decision is ``True`` and 1 is
    taken back off.  The accumulator therefore stays in
    ``[−1e-12, 1 − 1e-12)``, and the number of Trues in any prefix of n
    decisions is within 1 of ``n·f``.  Float rounding makes the sequence
    differ from the closed form ``floor((k+1)·f) > floor(k·f)`` (first
    at f = 1/197, decision 196), so only a replay of the accumulator
    reproduces it.
    """

    def __init__(self, fraction: float) -> None:
        self.fraction = fraction
        self._accumulator = 0.0

    def next(self) -> bool:
        self._accumulator += self.fraction
        if self._accumulator >= 1.0 - 1e-12:
            self._accumulator -= 1.0
            return True
        return False

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` decisions as a bool array.

        A fraction of exactly 0 or 1 is a constant fill (every decision
        is the same and the accumulator ends where it began); any other
        fraction replays :meth:`next`'s arithmetic inline.
        """
        fraction = self.fraction
        if fraction == 0.0 or fraction == 1.0:
            return np.full(n, fraction == 1.0)
        decisions = bytearray(n)
        accumulator = self._accumulator
        for k in range(n):
            accumulator += fraction
            if accumulator >= 1.0 - 1e-12:
                accumulator -= 1.0
                decisions[k] = 1
        self._accumulator = accumulator
        return np.frombuffer(decisions, dtype=np.bool_)


@dataclasses.dataclass(frozen=True)
class RequestBlock:
    """A homogeneous burst of SRI requests.

    Attributes:
        target: SRI slave addressed by every request of the block.
        operation: code or data.
        count: number of requests.
        gap: core-local computation cycles before each request.
        sequential_fraction: share of requests that fall in a prefetch
            stream (best-case service and overlap).
        write_fraction: share of data requests that are stores.
        miss_kind: originating cache event (decides which miss counter
            increments; ``UNCACHED`` for non-cacheable traffic).
        dirty_fraction: share of data requests that are dirty evictions
            (forces ``miss_kind`` DCACHE_MISS_DIRTY on those requests).
    """

    target: Target
    operation: Operation
    count: int
    gap: int = 1
    sequential_fraction: float = 0.0
    write_fraction: float = 0.0
    miss_kind: MissKind = MissKind.UNCACHED
    dirty_fraction: float = 0.0

    def __post_init__(self) -> None:
        check_pair(self.target, self.operation)
        if self.count < 0:
            raise WorkloadError("block count must be non-negative")
        if self.gap < 0:
            raise WorkloadError("block gap must be non-negative")
        for fraction in (
            self.sequential_fraction,
            self.write_fraction,
            self.dirty_fraction,
        ):
            if not 0.0 <= fraction <= 1.0:  # also rejects NaN
                raise WorkloadError(f"fraction {fraction} outside [0, 1]")
        if self.operation is Operation.CODE:
            if self.write_fraction or self.dirty_fraction:
                raise WorkloadError("code blocks cannot write or dirty-evict")
            if self.miss_kind in (
                MissKind.DCACHE_MISS_CLEAN,
                MissKind.DCACHE_MISS_DIRTY,
            ):
                raise WorkloadError("code blocks cannot be data-cache misses")
        if self.dirty_fraction and self.miss_kind not in (
            MissKind.DCACHE_MISS_CLEAN,
            MissKind.DCACHE_MISS_DIRTY,
        ):
            raise WorkloadError(
                "dirty evictions require a data-cache miss kind"
            )

    def columns(self) -> tuple[np.ndarray, dict[int, SriRequest]]:
        """The block's requests as variant codes, in one numpy pass.

        ``codes[k]`` packs request k's mix decisions: bit 0 sequential,
        bit 1 write, bit 2 dirty eviction.  The sequential sequencer
        advances on every request, the dirty sequencer on every data
        request and the write sequencer on every data request that is not
        dirty; code blocks never write or dirty-evict.  The dict maps each
        code that occurs, in first-appearance order, to its
        :class:`SriRequest`, built once.
        """
        count = self.count
        if not count:
            return np.zeros(0, dtype=np.uint8), {}
        codes = _FractionSequencer(self.sequential_fraction).take(count)
        codes = codes.astype(np.uint8)
        if self.operation is Operation.DATA:
            dirty = _FractionSequencer(self.dirty_fraction).take(count)
            clean = ~dirty
            write = np.zeros(count, dtype=bool)
            write[clean] = _FractionSequencer(self.write_fraction).take(
                int(np.count_nonzero(clean))
            )
            codes[write] |= _WRITE
            codes[dirty] |= _DIRTY
        unique, first = np.unique(codes, return_index=True)
        variants = {
            code: self._variant(code)
            for code in unique[np.argsort(first)].tolist()
        }
        return codes, variants

    def _constant_code(self) -> int | None:
        """The one variant code of a constant-fill block, else ``None``.

        Every fraction of a constant-fill block (every control-loop and
        load block) is exactly 0 or 1, so each of its requests is the same
        variant; a dirty block never advances its writes.
        """
        fractions = (
            self.sequential_fraction,
            self.write_fraction,
            self.dirty_fraction,
        )
        if not all(fraction in (0.0, 1.0) for fraction in fractions):
            return None
        code = _SEQUENTIAL if self.sequential_fraction else 0
        if self.dirty_fraction:
            code |= _DIRTY
        elif self.write_fraction:
            code |= _WRITE
        return code

    def _variant(self, code: int) -> SriRequest:
        """The request a variant code stands for."""
        dirty = bool(code & _DIRTY)
        miss_kind = self.miss_kind
        if dirty:
            miss_kind = MissKind.DCACHE_MISS_DIRTY
        elif miss_kind is MissKind.DCACHE_MISS_DIRTY:
            miss_kind = MissKind.DCACHE_MISS_CLEAN
        return SriRequest(
            target=self.target,
            operation=self.operation,
            miss_kind=miss_kind,
            sequential=bool(code & _SEQUENTIAL),
            write=bool(code & _WRITE),
            dirty_eviction=dirty,
        )

    def steps(self) -> Iterator[Step]:
        """The block's steps, one per request (a view over :meth:`columns`)."""
        codes, variants = self.columns()
        gap = self.gap
        return ((gap, variants[code]) for code in codes.tolist())

    def scaled(self, factor: float) -> "RequestBlock":
        """The same block with ``count`` scaled (rounded half-up)."""
        _check_factor(factor)
        return dataclasses.replace(
            self, count=int(math.floor(self.count * factor + 0.5))
        )


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A complete task: named phases of request blocks, optionally looped.

    Attributes:
        name: task name.
        blocks: the phases, executed in order each iteration.
        iterations: loop count (control loops run many iterations).
        epilogue_gap: trailing computation after the last iteration.
    """

    name: str
    blocks: tuple[RequestBlock, ...]
    iterations: int = 1
    epilogue_gap: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise WorkloadError("iterations must be >= 1")
        if self.epilogue_gap < 0:
            raise WorkloadError("epilogue gap must be non-negative")

    def program(self) -> TaskProgram:
        """A replayable simulator program, compiled from the block columns
        on first use (see :meth:`_compile`)."""
        # A partial, not the bound method: a bound method compares and
        # hashes by the spec's value, and the compile memo is meant to be
        # keyed on each program object, cheaply.
        return TaskProgram(
            name=self.name, array_builder=functools.partial(self._compile)
        )

    def _compile(self) -> CompiledProgram:
        """The spec's program as arrays, built per block, not per request.

        Requests join one table in first-appearance order, as the step
        walk would meet them.  A run of constant-fill blocks becomes one
        ``np.repeat`` of per-block request ids, and each distinct variant
        of them, keyed by (target, operation, miss kind, variant code),
        builds its :class:`SriRequest` once.  A block with a fractional
        mix ends the run and contributes its :meth:`RequestBlock.columns`;
        a block without requests contributes nothing.  Every iteration
        restarts the sequencers, so one iteration's arrays are tiled over
        ``iterations``; the epilogue is the trailing gap.
        """
        table: dict[SriRequest, int] = {}
        rid_of_variant: dict[tuple[Target, Operation, MissKind, int], int] = {}
        rid_of_code = np.zeros(_DIRTY << 1, dtype=np.int64)
        rids: list[np.ndarray] = []
        # The current run of constant-fill blocks: one rid and count each.
        run_rids: list[int] = []
        run_counts: list[int] = []
        for block in self.blocks:
            if not block.count:
                continue
            code = block._constant_code()
            if code is not None:
                variant = (
                    block.target, block.operation, block.miss_kind, code
                )
                rid = rid_of_variant.get(variant)
                if rid is None:
                    rid = table.setdefault(block._variant(code), len(table))
                    rid_of_variant[variant] = rid
                run_rids.append(rid)
                run_counts.append(block.count)
                continue
            rids.append(_repeat(run_rids, run_counts))
            run_rids, run_counts = [], []
            codes, variants = block.columns()
            for code, request in variants.items():
                rid_of_code[code] = table.setdefault(request, len(table))
            rids.append(rid_of_code[codes])
        rids.append(_repeat(run_rids, run_counts))
        gaps = _repeat(
            [block.gap for block in self.blocks],
            [block.count for block in self.blocks],
        )
        return CompiledProgram(
            name=self.name,
            gaps=np.tile(gaps, self.iterations),
            request_ids=np.tile(np.concatenate(rids), self.iterations),
            requests=tuple(table),
            final_gap=self.epilogue_gap,
        )

    def expected_profile(self) -> AccessProfile:
        """The exact PTAC the compiled program will exhibit."""
        return profile_from_pairs(
            self.name,
            (
                (block.target, block.operation, block.count * self.iterations)
                for block in self.blocks
            ),
        )

    def total_requests(self) -> int:
        """Total SRI requests over all iterations."""
        return sum(block.count for block in self.blocks) * self.iterations

    def scaled(self, factor: float, *, name: str | None = None) -> "WorkloadSpec":
        """Spec with every block count scaled (shrinking for fast tests)."""
        _check_factor(factor)
        return dataclasses.replace(
            self,
            name=name if name is not None else self.name,
            blocks=tuple(block.scaled(factor) for block in self.blocks),
            epilogue_gap=int(self.epilogue_gap * factor),
        )


def share_blocks(blocks: Iterable[RequestBlock]) -> tuple[RequestBlock, ...]:
    """``blocks``, with equal blocks sharing one object.

    The workload builders memoise their specs for the life of the
    process, and most of a spec's blocks repeat (a scenario-1 control
    loop at scale 1/16 is 192 blocks, 8 of them distinct): sharing equal
    blocks keeps what the memos hold to the distinct ones.
    """
    shared: dict[RequestBlock, RequestBlock] = {}
    return tuple(shared.setdefault(block, block) for block in blocks)


def chunked_blocks(
    phases: Sequence[RequestBlock], chunks: int
) -> tuple[RequestBlock, ...]:
    """The phases of a loop, each spread evenly over ``chunks`` iterations.

    A phase is a whole population: a block whose ``count`` is the loop's
    total and whose other fields its requests share.  Each chunk holds
    every phase's share (:func:`spread_counts`) in phase order; a phase
    on PF0 splits each share over both PFlash banks, PF0 first.  An
    empty share adds no block, and equal blocks share one object
    (:func:`share_blocks`).
    """
    banks = (Target.PF0, Target.PF1)
    spreads = [spread_counts(phase.count, [1.0] * chunks) for phase in phases]
    blocks: list[RequestBlock] = []
    for chunk in range(chunks):
        for phase, shares in zip(phases, spreads):
            share = shares[chunk]
            if phase.target is Target.PF0:
                parts = zip(banks, spread_counts(share, [1.0, 1.0]))
            else:
                parts = zip((phase.target,), (share,))
            for target, count in parts:
                if count:
                    blocks.append(
                        RequestBlock(
                            target,
                            phase.operation,
                            count,
                            phase.gap,
                            phase.sequential_fraction,
                            phase.write_fraction,
                            phase.miss_kind,
                            phase.dirty_fraction,
                        )
                    )
    return share_blocks(blocks)


def _check_factor(factor: float) -> None:
    if not math.isfinite(factor) or factor <= 0:
        raise WorkloadError(
            f"scale factor must be positive and finite, got {factor!r}"
        )


def _repeat(values: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """``values[i]`` repeated ``counts[i]`` times, in order, as int64."""
    return np.repeat(np.array(values, dtype=np.int64), counts)


def spread_counts(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` into integer shares proportional to ``weights``.

    Largest-remainder apportionment: shares sum to ``total`` exactly.
    Used to distribute code misses over pf0/pf1 and data over targets.
    """
    if total < 0:
        raise WorkloadError("total must be non-negative")
    if not weights or any(w < 0 for w in weights):
        raise WorkloadError("weights must be non-empty and non-negative")
    weight_sum = sum(weights)
    if weight_sum == 0:
        raise WorkloadError("weights must not all be zero")
    raw = [total * w / weight_sum for w in weights]
    shares = [int(math.floor(r)) for r in raw]
    remainder = total - sum(shares)
    by_fraction = sorted(
        range(len(raw)), key=lambda i: raw[i] - shares[i], reverse=True
    )
    for i in by_fraction[:remainder]:
        shares[i] += 1
    return shares
