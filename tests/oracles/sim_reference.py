"""The step-generator simulator: the semantics oracle of ``SystemSimulator``.

:class:`ReferenceSimulator` walks each program's step generator one step
at a time and puts every step, issue, grant and completion on one event
heap.  The library engine walks pre-compiled arrays, completes
single-master transactions inline and heap-schedules only what another
master can observe; the equivalence suite pins the two byte-identical on
pickled :class:`~repro.sim.system.SimResult`\\ s.  Only construction and
result collection are shared: the oracle keeps its own core, device and
DMA-agent state classes, so no bookkeeping field of the library's event
loop can leak into it.

Event order at one timestamp is steps, issues, single-master
completions, shared completions, DMA ticks, grants; sequence numbers
break the remaining ties.  The third kind states the library engine's
same-cycle rule: a transaction on a device only one master uses
completes inline there, so the request that master raises next (after a
zero effective gap) is queued before any shared device's completion of
the same cycle arbitrates.  Without its own kind, the two completions
would tie on kind and their sequence numbers would decide whether the
shared grant sees that request.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Mapping, Sequence

from repro.counters.dsu import CounterBank
from repro.errors import SimulationError
from repro.platform.targets import Operation, Target
from repro.sim.dma import DmaAgent
from repro.sim.program import Step, TaskProgram
from repro.sim.requests import SriRequest
from repro.sim.system import SimResult, SystemSimulator, TransactionStats

_STEP = 0
_ISSUE = 1
_SOLO_COMPLETE = 2
_COMPLETE = 3
_DMA_TICK = 4
# Grants sort after every other event kind at the same timestamp, so all
# same-cycle requests are enqueued before the slave arbitrates.
_GRANT = 5


class _DmaState:
    """Mutable execution state of one DMA agent."""

    __slots__ = (
        "agent",
        "remaining",
        "outstanding",
        "deferred",
        "served",
        "finish_time",
        "wait_cycles",
    )

    def __init__(self, agent: DmaAgent) -> None:
        self.agent = agent
        self.remaining = agent.count
        self.outstanding = 0
        self.deferred = 0  # issue attempts postponed by a full queue
        self.served = 0
        self.finish_time = agent.start_time if agent.count == 0 else None
        self.wait_cycles = 0

    @property
    def core_id(self) -> int:  # uniform master-id accessor for the arbiter
        return self.agent.master_id


class _DeviceState:
    """Mutable state of one SRI slave: in-flight transaction and queue."""

    __slots__ = ("target", "current", "queue", "last_served")

    def __init__(self, target: Target) -> None:
        self.target = target
        self.current: tuple[object, SriRequest, int] | None = None
        self.queue: list[tuple[object, SriRequest, int]] = []
        self.last_served = -1


class _CoreState:
    """Mutable execution state of one core."""

    __slots__ = (
        "core_id",
        "steps",
        "bank",
        "true_counts",
        "pending",
        "issue_time",
        "overlap_credit",
        "finish_time",
        "wait_cycles",
        "name",
    )

    def __init__(self, core_id: int, program: TaskProgram) -> None:
        self.core_id = core_id
        self.name = program.name
        self.steps: Iterator[Step] = program.steps()
        self.bank = CounterBank()
        self.true_counts: dict[tuple[Target, Operation], int] = {}
        self.pending: SriRequest | None = None
        self.issue_time = 0
        self.overlap_credit = 0
        self.finish_time: int | None = None
        self.wait_cycles = 0


def _record(
    stats: TransactionStats, service: int, blocking: int, wait: int
) -> None:
    """Fold one completed transaction into its key's statistics."""
    stats.count += 1
    stats.min_service = (
        service
        if stats.min_service is None
        else min(stats.min_service, service)
    )
    stats.max_service = (
        service
        if stats.max_service is None
        else max(stats.max_service, service)
    )
    stats.min_blocking = (
        blocking
        if stats.min_blocking is None
        else min(stats.min_blocking, blocking)
    )
    stats.max_blocking = (
        blocking
        if stats.max_blocking is None
        else max(stats.max_blocking, blocking)
    )
    stats.total_wait += wait


def _single_master_targets(
    programs: Mapping[int, TaskProgram], dma_agents: Sequence[DmaAgent]
) -> set[Target]:
    """Devices exactly one master (core or DMA agent) ever addresses."""
    masters = {target: 0 for target in Target}
    for program in programs.values():
        touched = {
            request.target
            for _, request in program.steps()
            if request is not None
        }
        for target in touched:
            masters[target] += 1
    for agent in dma_agents:
        masters[agent.request.target] += 1
    return {target for target, count in masters.items() if count == 1}


class ReferenceSimulator(SystemSimulator):
    """:class:`SystemSimulator` with the step-generator walk as ``run``.

    Construction (timing, arbitration policy, priorities) and result
    collection are the library's own; only the event loop differs.
    """

    def run(
        self,
        programs: Mapping[int, TaskProgram],
        dma_agents: Sequence[DmaAgent] = (),
    ) -> SimResult:
        if not programs:
            raise SimulationError("no programs to run")
        cores = {
            core_id: _CoreState(core_id, program)
            for core_id, program in programs.items()
        }
        dma = {}
        for agent in dma_agents:
            if agent.master_id in cores or agent.master_id in dma:
                raise SimulationError(
                    f"duplicate SRI master id {agent.master_id}"
                )
            dma[agent.master_id] = _DmaState(agent)
        devices = {target: _DeviceState(target) for target in Target}
        stats: dict[int, dict[tuple[Target, Operation], TransactionStats]] = {
            core_id: {} for core_id in cores
        }
        single_master = _single_master_targets(programs, dma_agents)

        heap: list[tuple[int, int, int, int]] = []  # (time, kind, seq, id)
        seq = 0
        for core_id in sorted(cores):
            heapq.heappush(heap, (0, _STEP, seq, core_id))
            seq += 1
        for master_id, state in sorted(dma.items()):
            if state.remaining:
                heapq.heappush(
                    heap, (state.agent.start_time, _DMA_TICK, seq, master_id)
                )
                seq += 1

        all_ids = list(cores) + list(dma)
        rr_modulus = max(all_ids) + 2  # cyclic distance for round-robin
        device_keys = {target: i for i, target in enumerate(Target)}
        key_devices = {i: target for target, i in device_keys.items()}
        use_priority = self.arbitration == "priority"
        priority_of = {
            master_id: self._priority(master_id) for master_id in all_ids
        }

        def advance(state: _CoreState, now: int) -> None:
            """Fetch the core's next step and schedule its issue/idle end."""
            nonlocal seq
            try:
                gap, request = next(state.steps)
            except StopIteration:
                state.finish_time = now
                return
            if gap < 0:
                raise SimulationError(
                    f"{state.name!r}: negative gap in program"
                )
            # Overlap credit: computation hidden under the previous
            # transaction's tail shortens this gap.
            effective_gap = max(0, gap - state.overlap_credit)
            state.overlap_credit = max(0, state.overlap_credit - gap)
            when = now + effective_gap
            if request is None:
                heapq.heappush(heap, (when, _STEP, seq, state.core_id))
            else:
                state.pending = request
                state.issue_time = when
                heapq.heappush(heap, (when, _ISSUE, seq, state.core_id))
            seq += 1

        def grant(device: _DeviceState, now: int) -> None:
            """Start serving the next queued request.

            Selection: highest priority class first (under ``"priority"``
            arbitration), round-robin distance from the last served master
            within a class.  Ties keep the earliest-queued entry.
            """
            nonlocal seq
            queue = device.queue
            if device.current is not None or not queue:
                return

            chosen = 0
            if len(queue) > 1:
                last_served = device.last_served
                best_priority = best_distance = -1
                for index, entry in enumerate(queue):
                    master_id: int = entry[0].core_id  # type: ignore[attr-defined]
                    distance = (master_id - last_served - 1) % rr_modulus
                    if use_priority:
                        priority = priority_of[master_id]
                        if best_distance < 0 or (
                            (priority, distance)
                            < (best_priority, best_distance)
                        ):
                            best_priority = priority
                            best_distance = distance
                            chosen = index
                    elif best_distance < 0 or distance < best_distance:
                        best_distance = distance
                        chosen = index

            entry = queue.pop(chosen)
            device.current = entry
            device.last_served = entry[0].core_id  # type: ignore[attr-defined]
            target = entry[1].target
            completion = now + self.timing.service_time(entry[1])
            kind = _SOLO_COMPLETE if target in single_master else _COMPLETE
            heapq.heappush(heap, (completion, kind, seq, device_keys[target]))
            seq += 1

        def schedule_grant(target: Target, now: int) -> None:
            nonlocal seq
            heapq.heappush(heap, (now, _GRANT, seq, device_keys[target]))
            seq += 1

        def dma_issue(state: _DmaState, now: int) -> None:
            """Put one DMA transaction on the wire."""
            state.outstanding += 1
            state.remaining -= 1
            device = devices[state.agent.request.target]
            device.queue.append((state, state.agent.request, now))
            schedule_grant(state.agent.request.target, now)

        while heap:
            now, kind, _, payload = heapq.heappop(heap)
            if kind == _STEP:
                advance(cores[payload], now)
            elif kind == _GRANT:
                grant(devices[key_devices[payload]], now)
            elif kind == _ISSUE:
                state = cores[payload]
                request = state.pending
                assert request is not None
                counter = request.miss_kind.counter
                if counter is not None:
                    state.bank.increment(counter)
                device = devices[request.target]
                device.queue.append((state, request, state.issue_time))
                schedule_grant(request.target, now)
            elif kind == _DMA_TICK:
                agent_state = dma[payload]
                if agent_state.remaining > 0:
                    if agent_state.outstanding < agent_state.agent.queue_depth:
                        dma_issue(agent_state, now)
                    else:
                        agent_state.deferred += 1
                    if agent_state.remaining > 0:
                        heapq.heappush(
                            heap,
                            (
                                now + agent_state.agent.period,
                                _DMA_TICK,
                                seq,
                                payload,
                            ),
                        )
                        seq += 1
            else:  # _SOLO_COMPLETE or _COMPLETE
                device = devices[key_devices[payload]]
                assert device.current is not None
                requester, request, issue_time = device.current
                device.current = None
                service = self.timing.service_time(request)
                wait = now - service - issue_time
                if wait < 0:
                    raise SimulationError("causality violation in simulator")
                if isinstance(requester, _DmaState):
                    requester.outstanding -= 1
                    requester.served += 1
                    requester.wait_cycles += wait
                    if requester.deferred and requester.remaining:
                        requester.deferred -= 1
                        dma_issue(requester, now)
                    if (
                        requester.remaining == 0
                        and requester.outstanding == 0
                    ):
                        requester.finish_time = now
                else:
                    state = requester
                    overlap = self.timing.device(request.target).overlap(
                        request
                    )
                    blocking = max(0, now - issue_time - overlap)
                    state.bank.increment(request.stall_counter, blocking)
                    state.overlap_credit = overlap
                    state.wait_cycles += wait
                    key_ = (request.target, request.operation)
                    state.true_counts[key_] = (
                        state.true_counts.get(key_, 0) + 1
                    )
                    _record(
                        stats[state.core_id].setdefault(
                            key_, TransactionStats()
                        ),
                        service,
                        blocking,
                        wait,
                    )
                    state.pending = None
                    advance(state, now)
                grant(device, now)

        return self._collect(cores, stats, dma)
