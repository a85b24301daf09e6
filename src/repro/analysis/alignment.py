"""Exhaustive alignment search: measuring the true worst case.

The paper motivates analytical bounds with an observability argument:
"Triggering the worst time-alignment of memory accesses is, in general,
not feasible and thus, our model relieves end users from having to
exercise that level of control" — and consequently "whether the gap
between actual measurements and model estimates corresponds to
overestimation (and to what extent) cannot be determined" on hardware.

On a simulator it *can*, for small tasks: this module sweeps the
contender's release offset (and optionally replays it cyclically so the
victim is never uncovered), records the worst observed victim time over
all alignments, and reports how much of the model's margin is real
pessimism versus unreachable-by-testing interference.  This is the
tightness instrumentation the authors explicitly could not build.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

from repro.errors import SimulationError
from repro.sim.program import Step, TaskProgram, repeat
from repro.sim.system import SystemSimulator


def delayed(program: TaskProgram, offset: int) -> TaskProgram:
    """The same program released ``offset`` cycles later."""
    if offset < 0:
        raise SimulationError("release offsets must be non-negative")
    if offset == 0:
        return program

    def factory() -> Iterator[Step]:
        yield (offset, None)
        yield from program.steps()

    return TaskProgram(
        name=f"{program.name}@+{offset}", stream_factory=factory
    )


@dataclasses.dataclass(frozen=True)
class AlignmentResult:
    """Outcome of an exhaustive alignment sweep.

    Attributes:
        isolation_cycles: victim time alone.
        worst_cycles: worst victim time over all tested offsets.
        worst_offset: the offset achieving it.
        per_offset: (offset, victim cycles) for every tested alignment.
    """

    isolation_cycles: int
    worst_cycles: int
    worst_offset: int
    per_offset: tuple[tuple[int, int], ...]

    @property
    def worst_slowdown(self) -> float:
        return self.worst_cycles / self.isolation_cycles

    def observed_interference(self) -> int:
        """Worst measured interference (cycles above isolation)."""
        return self.worst_cycles - self.isolation_cycles

    def pessimism_of(self, predicted_wcet: int) -> float:
        """Fraction of a model's margin not realised by *any* alignment.

        0.0 means the bound is exactly achieved by some alignment; values
        near 1.0 mean most of the margin never materialises (which may be
        model pessimism or interleavings the sweep granularity missed).
        """
        margin = predicted_wcet - self.isolation_cycles
        if margin <= 0:
            return 0.0
        return 1.0 - self.observed_interference() / margin


def alignment_sweep(
    victim: TaskProgram,
    contender: TaskProgram,
    *,
    offsets: Sequence[int] | None = None,
    max_offset: int | None = None,
    step: int = 1,
    keep_contender_busy: bool = True,
) -> AlignmentResult:
    """Exhaustively search contender release offsets for the worst case.

    Args:
        victim: the task under analysis (core 1).
        contender: the interfering task (core 2).
        offsets: explicit offsets to test; default is
            ``range(0, max_offset + 1, step)``.
        max_offset: sweep end when ``offsets`` is not given; defaults to
            the largest device service time (the paper's per-request
            alignment uncertainty is bounded by one service window, so
            sweeping one window covers every distinct relative phase of
            periodic streams).
        step: sweep granularity in cycles (at least 1).
        keep_contender_busy: loop the contender so it stays active for
            the victim's entire run (otherwise late offsets let the
            victim finish uncontended).
    """
    if step < 1:
        raise SimulationError(f"sweep step must be at least 1, got {step}")
    sim = SystemSimulator()
    isolation = (
        sim.run({1: victim}).readings(1).require_ccnt()
    )
    if offsets is None:
        if max_offset is None:
            max_offset = max(
                device.service_random
                for device in sim.timing.devices.values()
            )
        offsets = range(0, max_offset + 1, step)
    offsets = list(offsets)
    if not offsets:
        raise SimulationError("no offsets to sweep")

    rival = contender
    if keep_contender_busy:
        contender_cycles = max(
            1, sim.run({2: contender}).readings(2).require_ccnt()
        )
        repeats = max(1, -(-2 * isolation // contender_cycles))
        rival = repeat(f"{contender.name}x{repeats}", contender, repeats)

    per_offset: list[tuple[int, int]] = []
    worst_cycles, worst_offset = 0, offsets[0]
    for offset in offsets:
        result = sim.run({1: victim, 2: delayed(rival, offset)})
        observed = result.readings(1).require_ccnt()
        per_offset.append((offset, observed))
        if observed > worst_cycles:
            worst_cycles, worst_offset = observed, offset
    return AlignmentResult(
        isolation_cycles=isolation,
        worst_cycles=worst_cycles,
        worst_offset=worst_offset,
        per_offset=tuple(per_offset),
    )
