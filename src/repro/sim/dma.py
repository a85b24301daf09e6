"""DMA-style SRI masters: multi-outstanding, fixed-rate request agents.

The TC27x's SRI serves more masters than the three cores — DMA channels
and peripherals issue transactions too.  The paper scopes these out by
assuming all relevant contenders sit in the same SRI priority class; this
module provides the ingredient needed to *test* that scoping decision:

* TriCore CPUs are **single-outstanding** masters (one in-flight request),
  for which any work-conserving arbitration delays each request at most
  once per other master per round — the paper's alignment assumption holds
  under round-robin *and* fixed priority alike.
* A DMA engine with queue depth > 1 issuing at line rate breaks that
  property under fixed-priority arbitration: a burst can delay one CPU
  request several times over.  The round-robin model then under-predicts,
  and the :mod:`repro.core.priority` bound is required.

Both behaviours are demonstrated by the test-suite and the A5 benchmark.
"""

from __future__ import annotations

import dataclasses

from repro.errors import SimulationError
from repro.sim.requests import SriRequest


@dataclasses.dataclass(frozen=True)
class DmaAgent:
    """A fixed-rate DMA master issuing identical SRI transactions.

    Attributes:
        master_id: SRI master id; must not collide with core ids.
        request: the transaction template (target, operation, flags).
        count: total number of transactions to issue.
        period: cycles between consecutive issue attempts; an attempt is
            deferred (not dropped) while ``queue_depth`` transactions are
            already outstanding.
        queue_depth: maximum in-flight transactions.  Depth 1 makes the
            agent behave like a core's memory interface; larger depths
            model real descriptor-driven DMA bursts.
        start_time: cycle of the first issue attempt.
    """

    master_id: int
    request: SriRequest
    count: int
    period: int = 1
    queue_depth: int = 4
    start_time: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.count < 0:
            raise SimulationError("DMA count must be non-negative")
        if self.period < 1:
            raise SimulationError("DMA period must be at least one cycle")
        if self.queue_depth < 1:
            raise SimulationError("DMA queue depth must be at least 1")
        if self.start_time < 0:
            raise SimulationError("DMA start time must be non-negative")

    @property
    def label(self) -> str:
        """Display name (defaults to ``dma<master_id>``)."""
        return self.name or f"dma{self.master_id}"

    def uncontended_result(self, service_time: int) -> "DmaResult":
        """Closed-form :class:`DmaResult` of an *uncontended* run.

        Valid only when the agent is the sole master of its target (no
        queueing) **and** ``period >= service_time`` (each transaction
        completes before the next issue attempt, so the queue never
        backs up and no attempt is deferred).  Under those conditions
        every transaction starts at its tick and finishes ``service``
        cycles later, so the whole run collapses to arithmetic — the
        simulator uses this to skip per-tick events entirely.
        """
        if self.period < service_time:
            raise SimulationError(
                "closed-form DMA result requires period >= service time"
            )
        finish = self.start_time
        if self.count:
            finish += (self.count - 1) * self.period + service_time
        return DmaResult(
            master_id=self.master_id,
            served=self.count,
            finish_time=finish,
            total_wait_cycles=0,
        )


@dataclasses.dataclass(frozen=True)
class DmaResult:
    """Observed behaviour of one DMA agent over a run.

    Attributes:
        master_id: the agent's SRI master id.
        served: transactions completed.
        finish_time: completion time of the last transaction.
        total_wait_cycles: cumulative arbitration wait.
    """

    master_id: int
    served: int
    finish_time: int
    total_wait_cycles: int
