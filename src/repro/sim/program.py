"""Task programs: what a core executes, as the memory system sees it.

A :class:`TaskProgram` is a replayable stream of *steps*; each step is a
span of core-local computation (``gap`` cycles that generate no SRI
traffic — scratchpad hits, cache hits, arithmetic) optionally followed by
one SRI transaction.  Workload generators produce programs; the system
simulator executes them, in isolation or co-running.

Programs are replayable on purpose: the MBTA protocol runs the same task
once in isolation (to collect counters) and again against contenders (to
validate that model predictions upper-bound observed times), and both runs
must see identical streams.

A program is given either as a step-stream factory (hand-written and
composed programs) or as an array builder that yields its
:class:`CompiledProgram` directly (workload specs, which never
materialise per-request steps); each form can produce the other.
"""

from __future__ import annotations

import copy
import dataclasses
import weakref
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.ptac import AccessProfile, profile_from_pairs
from repro.errors import SimulationError
from repro.sim.requests import SriRequest

#: One step: (compute cycles, optional SRI transaction issued afterwards).
Step = tuple[int, SriRequest | None]


class CompiledProgram:
    """A program's step stream, flattened to arrays (one per run, cached).

    The step generators are convenient to *write* (workload builders
    compose them freely) but expensive to *execute*: every simulated
    transaction costs a generator resumption and a tuple unpack, and
    gap-only steps cost one heap event each.  Compiling flattens the
    stream once (workload specs build the arrays directly, without a
    stream) into flat arrays over the program's **requests**:

    * ``gaps[k]`` — computation cycles before request ``k``, with any
      run of gap-only steps merged into the following request's gap
      (``max(0, G - credit)`` consumes overlap credit exactly like the
      step-by-step walk, so the merge is timing-exact);
    * ``request_ids[k]`` — index into :attr:`requests`, the **deduped**
      transaction table in first-appearance order (workloads repeat a
      handful of distinct transactions thousands of times, so per-rid
      precomputation amortises all per-request timing/counter lookups);
    * ``final_gap`` — trailing computation after the last request.

    Attributes:
        name: the program's name.
        gaps: int64 array, pre-request computation cycles.
        request_ids: int64 array, parallel to ``gaps``.
        requests: deduped :class:`SriRequest` table (first-appearance
            order — the order every per-key observable dict follows).
        final_gap: trailing gap-only cycles.
        gap_list / rid_list: Python-int mirrors of the arrays (the event
          walker indexes them faster than numpy scalars, and they keep
          Python-int arithmetic end to end).
    """

    __slots__ = (
        "name",
        "gaps",
        "request_ids",
        "requests",
        "final_gap",
        "gap_list",
        "rid_list",
    )

    def __init__(
        self,
        name: str,
        gaps: np.ndarray,
        request_ids: np.ndarray,
        requests: tuple[SriRequest, ...],
        final_gap: int,
    ) -> None:
        self.name = name
        self.gaps = gaps
        self.request_ids = request_ids
        self.requests = requests
        self.final_gap = final_gap
        self.gap_list: list[int] = gaps.tolist()
        self.rid_list: list[int] = request_ids.tolist()

    @property
    def n_requests(self) -> int:
        return len(self.rid_list)

    def with_final_gap(self, final_gap: int) -> "CompiledProgram":
        """These arrays with another trailing gap.

        The arrays, the request table and their list mirrors are shared,
        not copied; nothing mutates a compiled program.
        """
        clone = copy.copy(self)
        clone.final_gap = final_gap
        return clone

    def rid_counts(self) -> list[int]:
        """Occurrences of each distinct request, indexed by rid."""
        if not self.rid_list:
            return [0] * len(self.requests)
        return np.bincount(
            self.request_ids, minlength=len(self.requests)
        ).tolist()

    def compute_cycles(self) -> int:
        return int(self.gaps.sum()) + self.final_gap

    def time_alone(
        self,
        start: int,
        service: Sequence[int],
        overlap: Sequence[int],
    ) -> int:
        """Cycles from the issue of request ``start`` to this program's
        end with no other master on the SRI, in closed form.

        With no other master every transaction is served the cycle it is
        issued, so the time is ``Σ service + Σ max(0, gap − credit) +
        max(0, final_gap − credit_last)`` over requests ``start`` on,
        where a request's credit is the overlap of the request before it
        (the first gap, spent before the issue, is not counted).  The
        core waits for each transaction's *completion* (one outstanding
        request); the overlap only discounts the next gap.

        Args:
            start: index of a request, ``0 <= start < n_requests``.
            service: service time of each distinct request, by rid.
            overlap: pipeline overlap of each distinct request, by rid.
        """
        rids = self.request_ids[start:]
        busy = np.asarray(service, dtype=np.int64)[rids].sum()
        # The credit each request after ``start`` starts with, turned in
        # place into its uncovered gap.
        credit = np.asarray(overlap, dtype=np.int64)[rids[:-1]]
        np.subtract(self.gaps[start + 1 :], credit, out=credit)
        np.maximum(credit, 0, out=credit)
        trailing = self.final_gap - overlap[self.rid_list[-1]]
        return (
            int(busy) + int(credit.sum()) + (trailing if trailing > 0 else 0)
        )

    def isolation_time(
        self, service: Sequence[int], overlap: Sequence[int]
    ) -> int:
        """Finish time of this program alone on the SRI: its leading gap
        plus :meth:`time_alone` from the first request (the final gap
        alone for a program without requests)."""
        if not self.rid_list:
            return self.final_gap
        return int(self.gaps[0]) + self.time_alone(0, service, overlap)

    def steps(self) -> Iterator[Step]:
        """A step stream with these arrays' timing.

        One step per request (its merged gap, its table entry), then the
        trailing gap as one gap-only step.  For a workload spec, whose
        only gap-only step is its epilogue, this is exactly the stream
        the spec describes.
        """
        requests = self.requests
        for gap, rid in zip(self.gap_list, self.rid_list):
            yield gap, requests[rid]
        if self.final_gap:
            yield self.final_gap, None


#: Compiled streams, keyed weakly by program so workload caches don't
#: grow pickles (process-mode jobs ship TaskPrograms) or leak memory.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[TaskProgram, CompiledProgram]" = (
    weakref.WeakKeyDictionary()
)


def compile_program(program: "TaskProgram") -> CompiledProgram:
    """The :class:`CompiledProgram` of ``program`` (memoised per program).

    A program with an array builder is compiled by calling it.  Any other
    program takes one full pass over its ``steps()``: gap runs merge into
    the next request's gap, requests dedupe into a table in
    first-appearance order.  Negative gaps are rejected here with the
    same error the step-by-step walk raised.
    """
    cached = _COMPILE_CACHE.get(program)
    if cached is not None:
        return cached
    if program.array_builder is not None:
        compiled = program.array_builder()
    else:
        compiled = _compile_steps(program)
    _COMPILE_CACHE[program] = compiled
    return compiled


def share_compiled(program: "TaskProgram", compiled: CompiledProgram) -> None:
    """Memoise ``compiled`` as ``program``'s arrays, without compiling it.

    For a builder that already holds the arrays ``program`` compiles to
    (a padded control loop reuses its epilogue-free compile with another
    trailing gap).  The memo is per program object: a pickled program
    carries its builder, not these arrays, and compiles afresh where it
    is unpickled.
    """
    _COMPILE_CACHE[program] = compiled


def _compile_steps(program: "TaskProgram") -> CompiledProgram:
    gaps: list[int] = []
    rids: list[int] = []
    table: dict[SriRequest, int] = {}
    requests: list[SriRequest] = []
    pending_gap = 0
    for gap, request in program.steps():
        if gap < 0:
            raise SimulationError(
                f"{program.name!r}: negative gap in program"
            )
        pending_gap += gap
        if request is None:
            continue
        rid = table.get(request)
        if rid is None:
            rid = len(requests)
            table[request] = rid
            requests.append(request)
        gaps.append(pending_gap)
        rids.append(rid)
        pending_gap = 0
    return CompiledProgram(
        name=program.name,
        gaps=np.asarray(gaps, dtype=np.int64),
        request_ids=np.asarray(rids, dtype=np.int64),
        requests=tuple(requests),
        final_gap=pending_gap,
    )


@dataclasses.dataclass(frozen=True)
class TaskProgram:
    """A replayable per-core access program.

    Exactly one of ``stream_factory`` and ``array_builder`` is given.

    Attributes:
        name: task name, carried into counter readings and reports.
        stream_factory: zero-argument callable returning a fresh step
            iterator; walked once by :func:`compile_program` and once per
            :meth:`steps` call.
        array_builder: zero-argument callable returning the program's
            :class:`CompiledProgram` directly; :meth:`steps` then replays
            the arrays.
    """

    name: str
    stream_factory: Callable[[], Iterator[Step]] | None = None
    array_builder: Callable[[], CompiledProgram] | None = None

    def __post_init__(self) -> None:
        if (self.stream_factory is None) == (self.array_builder is None):
            raise SimulationError(
                f"{self.name!r}: give exactly one of stream_factory and "
                "array_builder"
            )

    def steps(self) -> Iterator[Step]:
        """A fresh iterator over the program's steps."""
        if self.stream_factory is None:
            return self.compiled().steps()
        return self.stream_factory()

    def compiled(self) -> CompiledProgram:
        """The flattened (and memoised) array form of the step stream."""
        return compile_program(self)

    # ------------------------------------------------------------------
    # Static analyses (used for ground truth and test oracles)
    # ------------------------------------------------------------------
    def ground_truth_profile(self) -> AccessProfile:
        """Exact per-target access counts — the PTAC the ideal model needs.

        On real hardware this is unobservable (the whole premise of the
        paper); the simulator makes it available as the tightness
        yardstick.  Computed off the compiled arrays: the deduped request
        table is in first-appearance order, so the profile's key order
        matches a step-by-step scan exactly.
        """
        compiled = self.compiled()
        counts = compiled.rid_counts()
        return profile_from_pairs(
            self.name,
            (
                (request.target, request.operation, counts[rid])
                for rid, request in enumerate(compiled.requests)
            ),
        )

    def request_count(self) -> int:
        """Total number of SRI transactions in the program."""
        return self.compiled().n_requests

    def compute_cycles(self) -> int:
        """Total core-local computation cycles in the program."""
        return self.compiled().compute_cycles()


def program_from_steps(name: str, steps: Iterable[Step]) -> TaskProgram:
    """Materialise a finite step list into a replayable program.

    Intended for tests and microbenchmarks; large workloads should supply
    a generator factory instead to avoid holding streams in memory.
    """
    frozen = tuple(steps)
    for gap, request in frozen:
        if gap < 0:
            raise SimulationError("step gaps must be non-negative")
        if request is not None and not isinstance(request, SriRequest):
            raise SimulationError(f"not an SriRequest: {request!r}")
    return TaskProgram(name=name, stream_factory=lambda: iter(frozen))


def concatenate(name: str, programs: Iterable[TaskProgram]) -> TaskProgram:
    """Run several programs back-to-back as one task (phase composition)."""
    parts = tuple(programs)

    def factory() -> Iterator[Step]:
        for part in parts:
            yield from part.steps()

    return TaskProgram(name=name, stream_factory=factory)


def repeat(name: str, program: TaskProgram, times: int) -> TaskProgram:
    """Loop a program ``times`` times (e.g. control-loop iterations)."""
    if times < 0:
        raise SimulationError("repeat count must be non-negative")

    def factory() -> Iterator[Step]:
        for _ in range(times):
            yield from program.steps()

    return TaskProgram(name=name, stream_factory=factory)
