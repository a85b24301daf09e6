"""The event-driven system simulator: cores, SRI crossbar, memory devices.

This is the testbed substitute (DESIGN.md substitution #1).  It executes
one :class:`~repro.sim.program.TaskProgram` per core against the shared
memory system and produces exactly the observables the paper's methodology
uses: per-core DSU counter readings, execution times, and (beyond real
hardware) ground-truth access profiles and SRI transaction statistics.

Timing semantics:

* each core is in-order with at most one outstanding SRI transaction —
  it computes for ``gap`` cycles, issues, and stalls until served;
* each SRI slave serves one transaction at a time; transactions to
  *different* slaves proceed in parallel (the crossbar property that
  motivates per-target modelling — Section 3.1);
* conflicting requests on one slave are arbitrated **round-robin**, the
  policy the paper assumes for same-priority masters (Section 2);
* the pipeline hides ``overlap`` cycles of a transaction's tail
  (prefetch streams, store buffers): the stall counters are charged
  ``wait + service − overlap`` and the hidden cycles are credited against
  the core's next computation gap, keeping event times monotone.

Soundness hook: with a single contender, a request's queueing delay never
exceeds the service time of the one in-flight conflicting transaction, so
per-request interference is bounded by ``l^{t,o}`` of the contender's
request — the exact alignment assumption of the models.  The validation
suite leans on this.

The simulator works on each program's
:class:`~repro.sim.program.CompiledProgram` arrays and pre-resolves
every per-request timing/counter lookup per distinct request.  An
isolation run (one core, no DMA agent) is computed in closed form over
the arrays: per-request counts from one ``np.bincount``, observables per
distinct request, the finish time from
:meth:`~repro.sim.program.CompiledProgram.isolation_time` — no walk, no
heap.  A co-run walks the arrays with integer cursors and heap-schedules
only transactions on *shared* devices (a core alone on a device advances
through whole request runs inline); an issue that finds its device idle
and nothing else due in its cycle is granted on the spot instead of
through an arbitration event, and counter/statistics updates go to
per-request accumulators.  Its semantics oracle, a step-generator walk
with one heap event per step, issue, grant and completion, lives in
``tests/oracles/sim_reference.py``; the equivalence suite pins the two
byte-identical on pickled :class:`SimResult`\\ s.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Mapping, Sequence

from repro.core.ptac import AccessProfile, profile_from_pairs
from repro.counters.dsu import CounterBank, DebugCounter
from repro.counters.readings import TaskReadings
from repro.errors import SimulationError
from repro.platform.targets import Operation, Target
from repro.sim.dma import DmaAgent, DmaResult
from repro.sim.program import TaskProgram
from repro.sim.timing import SimTiming, tc27x_sim_timing


@dataclasses.dataclass
class TransactionStats:
    """Aggregate SRI transaction statistics per (target, operation).

    The characterisation harness reads ``min_service``/``max_service`` to
    reproduce Table 2's latency rows (the authors used a debugger/cycle
    counter; we read the crossbar's own log — same information).
    """

    count: int = 0
    min_service: int | None = None
    max_service: int | None = None
    min_blocking: int | None = None
    max_blocking: int | None = None
    total_wait: int = 0


@dataclasses.dataclass(frozen=True)
class CoreResult:
    """Everything observed about one core over one run.

    Attributes:
        core: core id the program ran on.
        readings: DSU counter readings including ``ccnt`` (finish time).
        profile: ground-truth per-target access counts.
        transactions: per-(target, operation) transaction statistics.
        total_wait_cycles: cumulative queueing delay due to contention —
            zero in isolation, the "observed interference" in co-runs.
    """

    core: int
    readings: TaskReadings
    profile: AccessProfile
    transactions: Mapping[tuple[Target, Operation], TransactionStats]
    total_wait_cycles: int


@dataclasses.dataclass(frozen=True)
class SimResult:
    """Result of one simulation run (isolation or co-run)."""

    cores: Mapping[int, CoreResult]
    makespan: int
    dma: Mapping[int, DmaResult] = dataclasses.field(default_factory=dict)

    def core(self, index: int) -> CoreResult:
        try:
            return self.cores[index]
        except KeyError as exc:
            raise SimulationError(f"no program ran on core {index}") from exc

    def readings(self, index: int) -> TaskReadings:
        """Counter readings of the task on ``index`` (Table 6 rows)."""
        return self.core(index).readings

    def dma_result(self, master_id: int) -> DmaResult:
        """Observed behaviour of one DMA agent."""
        try:
            return self.dma[master_id]
        except KeyError as exc:
            raise SimulationError(
                f"no DMA agent ran as master {master_id}"
            ) from exc


#: Blocking-extreme sentinels of the per-request aggregation (plain ints
#: keep the hot-loop comparisons int-vs-int).
_BLOCKING_MAX_SENTINEL = 1 << 62

#: Counter accumulators are lists indexed by a counter's position here
#: (an int index, not an enum hash, per update).
_COUNTERS = tuple(DebugCounter)
_COUNTER_INDEX = {counter: index for index, counter in enumerate(_COUNTERS)}


class _CompiledCoreState:
    """Mutable execution state of one core over its compiled program.

    Everything the per-transaction hot path needs is pre-resolved per
    *distinct* request (``*_by_rid`` lists) when the run starts, and
    every observable is accumulated in plain-int per-rid cells.  Counter
    updates go to ``acc``, a list indexed by position in ``_COUNTERS``:
    ``stall_by_rid`` and ``miss_by_rid`` hold those positions, −1 for a
    request that counts no miss.  The :class:`CounterBank`, ground-truth
    counts and per-key :class:`TransactionStats` are folded out once in
    :meth:`finalize` — in the same key order and with the same values as
    per-transaction updates would give (all the folds commute: sums,
    saturating sums, and min/max extremes).
    """

    __slots__ = (
        "core_id",
        "name",
        "compiled",
        "requests",
        "gap_list",
        "rid_list",
        "n_requests",
        "final_gap",
        "cursor",
        "service_by_rid",
        "overlap_by_rid",
        "stall_by_rid",
        "miss_by_rid",
        "key_by_rid",
        "solo_by_rid",
        "device_by_rid",
        "acc",
        "agg_count",
        "agg_wait",
        "agg_bmin",
        "agg_bmax",
        "pending_rid",
        "issue_time",
        "overlap_credit",
        "finish_time",
        "wait_cycles",
        "bank",
        "true_counts",
    )

    def __init__(self, core_id: int, program: TaskProgram) -> None:
        compiled = program.compiled()
        self.core_id = core_id
        self.name = program.name
        self.compiled = compiled
        self.requests = compiled.requests
        self.gap_list = compiled.gap_list
        self.rid_list = compiled.rid_list
        self.n_requests = compiled.n_requests
        self.final_gap = compiled.final_gap
        self.cursor = 0
        self.pending_rid = -1
        self.issue_time = 0
        self.overlap_credit = 0
        self.finish_time: int | None = None
        self.wait_cycles = 0
        self.bank: CounterBank | None = None
        self.true_counts: dict[tuple[Target, Operation], int] | None = None

    def prepare(self, timing: SimTiming) -> None:
        """Resolve per-rid timing/counter tables for this run."""
        requests = self.requests
        self.service_by_rid = [timing.service_time(r) for r in requests]
        self.overlap_by_rid = [
            timing.device(r.target).overlap(r) for r in requests
        ]
        self.stall_by_rid = [
            _COUNTER_INDEX[r.stall_counter] for r in requests
        ]
        self.miss_by_rid = [
            -1 if r.miss_kind.counter is None
            else _COUNTER_INDEX[r.miss_kind.counter]
            for r in requests
        ]
        self.key_by_rid = [(r.target, r.operation) for r in requests]
        n = len(requests)
        self.acc = [0] * len(_COUNTERS)
        self.agg_count = [0] * n
        self.agg_wait = [0] * n
        self.agg_bmin = [_BLOCKING_MAX_SENTINEL] * n
        self.agg_bmax = [-1] * n

    def run_alone(self) -> None:
        """Execute the whole program with no other master on the SRI.

        Every transaction is then served the cycle it is issued: its wait
        is zero and its blocking the constant ``max(0, service −
        overlap)`` of its distinct request.  So each distinct request's
        counter increments, count and blocking extremes follow from its
        number of occurrences (one ``np.bincount``), and the finish time
        is :meth:`~repro.sim.program.CompiledProgram.isolation_time`.
        """
        counts = self.compiled.rid_counts()
        acc = self.acc
        services = self.service_by_rid
        overlaps = self.overlap_by_rid
        for rid, count in enumerate(counts):
            miss = self.miss_by_rid[rid]
            if miss >= 0:
                acc[miss] += count
            blocking = services[rid] - overlaps[rid]
            if blocking < 0:
                blocking = 0
            elif blocking:
                acc[self.stall_by_rid[rid]] += blocking * count
            self.agg_count[rid] = count
            self.agg_bmin[rid] = blocking
            self.agg_bmax[rid] = blocking
        self.finish_time = self.compiled.isolation_time(
            services, overlaps, counts
        )

    def finalize(self) -> dict[tuple[Target, Operation], "TransactionStats"]:
        """Fold the per-rid accumulators into the run's observables.

        Key order: the deduped request table is in first-appearance
        order, so each (target, operation) key is first seen here at the
        point the program first completed it — the dicts iterate as a
        per-transaction walk would build them.
        """
        bank = CounterBank()
        for counter, amount in zip(_COUNTERS, self.acc):
            if amount:
                bank.increment(counter, amount)
        self.bank = bank
        true_counts: dict[tuple[Target, Operation], int] = {}
        stats: dict[tuple[Target, Operation], TransactionStats] = {}
        for rid, key in enumerate(self.key_by_rid):
            count = self.agg_count[rid]
            if not count:
                continue
            true_counts[key] = true_counts.get(key, 0) + count
            entry = stats.get(key)
            if entry is None:
                entry = stats[key] = TransactionStats()
            entry.count += count
            service = self.service_by_rid[rid]
            entry.min_service = (
                service
                if entry.min_service is None
                else min(entry.min_service, service)
            )
            entry.max_service = (
                service
                if entry.max_service is None
                else max(entry.max_service, service)
            )
            bmin = self.agg_bmin[rid]
            bmax = self.agg_bmax[rid]
            entry.min_blocking = (
                bmin
                if entry.min_blocking is None
                else min(entry.min_blocking, bmin)
            )
            entry.max_blocking = (
                bmax
                if entry.max_blocking is None
                else max(entry.max_blocking, bmax)
            )
            entry.total_wait += self.agg_wait[rid]
        self.true_counts = true_counts
        self.wait_cycles = sum(self.agg_wait)
        return stats


class _DmaState:
    """Mutable execution state of one DMA agent.

    ``service`` and ``device`` are resolved once when the run starts (the
    agent issues one fixed transaction template, so its timing and target
    never change).
    """

    __slots__ = (
        "agent",
        "remaining",
        "outstanding",
        "deferred",
        "served",
        "finish_time",
        "wait_cycles",
        "service",
        "device",
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


#: A queued transaction: (requester state, request id, issue time,
#: service time).  The request id indexes the requesting core's request
#: table; it is −1 for a DMA agent.
_QueueEntry = tuple[object, int, int, int]


class _DeviceState:
    """Mutable state of one SRI slave: in-flight transaction and queue.

    ``key`` is the device's heap payload index; ``grant_pending`` says an
    arbitration event is already queued for this cycle.
    """

    __slots__ = ("target", "current", "queue", "last_served", "key", "grant_pending")

    def __init__(self, target: Target, key: int = -1) -> None:
        self.target = target
        self.current: _QueueEntry | None = None
        self.queue: list[_QueueEntry] = []
        self.last_served = -1
        self.key = key
        self.grant_pending = False


_STEP = 0
_ISSUE = 1
_COMPLETE = 2
_DMA_TICK = 3
# An idle device's arbitration event sorts after every other event kind
# at the same timestamp, so it sees every request raised in the cycle.  A
# busy device arbitrates inline at its completion instead, among the
# requests queued by then, and an issue with nothing else due in its
# cycle is granted inline, since its arbitration event would pop next.
_GRANT = 4

#: Supported arbitration policies of the SRI slave interfaces.
ARBITRATION_POLICIES = ("round-robin", "priority")


class SystemSimulator:
    """Executes task programs on the simulated TC27x memory system.

    Args:
        timing: device timing configuration; defaults to the Table 2
            consistent :func:`~repro.sim.timing.tc27x_sim_timing`.
        arbitration: ``"round-robin"`` (the paper's same-priority-class
            assumption, default) or ``"priority"`` — fixed priority with
            round-robin among equals, the SRI's behaviour across priority
            classes.
        priorities: master id → priority class (lower value wins);
            unspecified masters default to class 0.
    """

    def __init__(
        self,
        timing: SimTiming | None = None,
        *,
        arbitration: str = "round-robin",
        priorities: Mapping[int, int] | None = None,
    ) -> None:
        self.timing = timing or tc27x_sim_timing()
        if arbitration not in ARBITRATION_POLICIES:
            raise SimulationError(
                f"unknown arbitration policy {arbitration!r}; "
                f"expected one of {ARBITRATION_POLICIES}"
            )
        self.arbitration = arbitration
        self.priorities = dict(priorities or {})

    def _priority(self, master_id: int) -> int:
        return self.priorities.get(master_id, 0)

    # ------------------------------------------------------------------
    def run(
        self,
        programs: Mapping[int, TaskProgram],
        dma_agents: Sequence[DmaAgent] = (),
    ) -> SimResult:
        """Run one program per core (plus optional DMA agents) to completion.

        Args:
            programs: mapping of core id to program.  A single entry is an
                isolation run; multiple entries co-run and contend on the
                SRI.
            dma_agents: additional SRI masters issuing fixed-rate traffic;
                their ids must not collide with core ids.

        Returns:
            A :class:`SimResult` with per-core (and per-agent) observables.

        Equivalence to the step-generator oracle
        (``tests/oracles/sim_reference.py``) rests on six facts, each
        pinned by the equivalence suite:

        * merging a run of gap-only steps into the next request's gap is
          timing-exact (``max(0, G - credit)`` elapsed, ``max(0,
          credit - G)`` credit left — the step-by-step recurrence's
          closed form);
        * a transaction on a device with a single master never waits
          (the issuing master is single-outstanding), so its completion
          is ``issue + service`` and it is processed inline, without a
          heap event.  That fixes the same-cycle rule: a single-master
          completion comes before every shared completion of its cycle.
          When the master's next request follows with zero effective gap
          and goes to a shared device whose transaction also completes
          in that cycle, the request is queued before that completion
          arbitrates.  The oracle states the rule with an event kind of
          its own, sorted before the shared completions;
        * an isolation run (one core, no DMA agent) has only
          single-master devices, so it is one chain of inline
          transactions, each with zero wait and the constant blocking
          ``max(0, service − overlap)`` of its distinct request.  It is
          computed in closed form, with no walk: per-request counts from
          one ``np.bincount``, the finish time from
          :meth:`~repro.sim.program.CompiledProgram.isolation_time`;
        * scheduling an arbitration event only when the device is idle
          drops exactly the grant events that were no-ops (a busy
          device's next grant happens inline at its completion, in the
          oracle too), and event *sequence numbers* only break heap ties —
          same-cycle issues still all enqueue before the grant fires;
        * an issue that finds its device idle, no arbitration event
          queued for it and no other event at its cycle arbitrates
          inline.  The arbitration event it would queue sorts after
          every other kind at its cycle, none is pending, and the issue
          handler queues nothing after it, so that event would be popped
          next; skipping the push shifts later sequence numbers but not
          their order;
        * every observable aggregation (counters, stats extremes, wait
          sums, ground-truth counts) commutes, so batching them per
          distinct request changes no final value, and the deduped
          request table's first-appearance order reproduces every
          observable dict's insertion order.
        """
        if not programs:
            raise SimulationError("no programs to run")
        timing = self.timing
        cores = {
            core_id: _CompiledCoreState(core_id, program)
            for core_id, program in programs.items()
        }
        dma: dict[int, _DmaState] = {}
        for agent in dma_agents:
            if agent.master_id in cores or agent.master_id in dma:
                raise SimulationError(
                    f"duplicate SRI master id {agent.master_id}"
                )
            dma[agent.master_id] = _DmaState(agent)

        if not dma and len(cores) == 1:
            (alone,) = cores.values()
            alone.prepare(timing)
            alone.run_alone()
            return self._collect(cores, {alone.core_id: alone.finalize()})

        # Master census: a device with a single master needs no
        # arbitration — its transactions are served the cycle they
        # arrive and can bypass the event loop entirely.
        masters_per_target = {target: 0 for target in Target}
        for state in cores.values():
            for target in {r.target for r in state.requests}:
                masters_per_target[target] += 1
        for dma_state in dma.values():
            masters_per_target[dma_state.agent.request.target] += 1
        solo_targets = {
            target
            for target, count in masters_per_target.items()
            if count == 1
        }

        targets = list(Target)
        device_list = [
            _DeviceState(target, key) for key, target in enumerate(targets)
        ]
        device_by_target = {
            device.target: device for device in device_list
        }
        for state in cores.values():
            state.prepare(timing)
            state.solo_by_rid = [
                r.target in solo_targets for r in state.requests
            ]
            state.device_by_rid = [
                device_by_target[r.target] for r in state.requests
            ]
        for dma_state in dma.values():
            dma_state.service = timing.service_time(dma_state.agent.request)
            dma_state.device = device_by_target[
                dma_state.agent.request.target
            ]

        push = heapq.heappush
        pop = heapq.heappop
        heap: list[tuple[int, int, int, int]] = []  # (time, kind, seq, id)
        seq = 0
        for core_id in sorted(cores):
            push(heap, (0, _STEP, seq, core_id))
            seq += 1
        for master_id, dma_state in sorted(dma.items()):
            agent = dma_state.agent
            if (
                agent.request.target in solo_targets
                and agent.period >= dma_state.service
            ):
                # Uncontended fixed-rate agent: the whole run is
                # arithmetic (no queueing, no deferrals).
                dma_state.served = agent.count
                dma_state.remaining = 0
                dma_state.finish_time = agent.uncontended_result(
                    dma_state.service
                ).finish_time
            elif dma_state.remaining:
                push(heap, (agent.start_time, _DMA_TICK, seq, master_id))
                seq += 1

        all_ids = list(cores) + list(dma)
        rr_modulus = max(all_ids) + 2  # cyclic distance for round-robin
        use_priority = self.arbitration == "priority"
        priority_of = {
            master_id: self._priority(master_id) for master_id in all_ids
        }

        def advance(state: _CompiledCoreState, now: int) -> None:
            """Walk the compiled arrays from the core's cursor.

            Consecutive solo-device transactions are executed inline
            (zero wait, completion at ``issue + service``); the walk
            only stops to heap-schedule a shared-device issue, or to
            finish the program.
            """
            nonlocal seq
            cursor = state.cursor
            n = state.n_requests
            gap_list = state.gap_list
            rid_list = state.rid_list
            solo = state.solo_by_rid
            services = state.service_by_rid
            overlaps = state.overlap_by_rid
            misses = state.miss_by_rid
            stalls = state.stall_by_rid
            acc = state.acc
            agg_count = state.agg_count
            agg_bmin = state.agg_bmin
            agg_bmax = state.agg_bmax
            credit = state.overlap_credit
            while True:
                if cursor >= n:
                    state.cursor = cursor
                    state.overlap_credit = 0
                    trailing = state.final_gap - credit
                    state.finish_time = (
                        now + trailing if trailing > 0 else now
                    )
                    return
                gap = gap_list[cursor]
                if credit:
                    gap -= credit
                    if gap < 0:
                        credit = -gap
                        gap = 0
                    else:
                        credit = 0
                when = now + gap
                rid = rid_list[cursor]
                cursor += 1
                if solo[rid]:
                    miss = misses[rid]
                    if miss >= 0:
                        acc[miss] += 1
                    service = services[rid]
                    overlap = overlaps[rid]
                    blocking = service - overlap
                    if blocking < 0:
                        blocking = 0
                    elif blocking:
                        acc[stalls[rid]] += blocking
                    agg_count[rid] += 1
                    if blocking < agg_bmin[rid]:
                        agg_bmin[rid] = blocking
                    if blocking > agg_bmax[rid]:
                        agg_bmax[rid] = blocking
                    now = when + service
                    credit = overlap
                    continue
                state.cursor = cursor
                state.overlap_credit = credit
                state.pending_rid = rid
                state.issue_time = when
                push(heap, (when, _ISSUE, seq, state.core_id))
                seq += 1
                return

        def grant(device: _DeviceState, now: int) -> None:
            """Start serving the next request queued on an idle device.

            Callers check that the device is idle and its queue is not
            empty.  Selection: highest priority class first (under
            ``"priority"`` arbitration), round-robin distance from the
            last served master within a class.  Ties keep the
            earliest-queued entry.
            """
            nonlocal seq
            queue = device.queue
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
            push(heap, (now + entry[3], _COMPLETE, seq, device.key))
            seq += 1

        def schedule_grant(device: _DeviceState, now: int) -> None:
            """Queue one arbitration event unless the device is busy (its
            completion grants inline) or one is already queued."""
            nonlocal seq
            if device.current is None and not device.grant_pending:
                device.grant_pending = True
                push(heap, (now, _GRANT, seq, device.key))
                seq += 1

        def dma_issue(state: _DmaState, now: int) -> None:
            """Put one DMA transaction on the wire."""
            state.outstanding += 1
            state.remaining -= 1
            device = state.device
            device.queue.append((state, -1, now, state.service))
            schedule_grant(device, now)

        while heap:
            now, kind, _, payload = pop(heap)
            if kind == _ISSUE:
                state = cores[payload]
                rid = state.pending_rid
                miss = state.miss_by_rid[rid]
                if miss >= 0:
                    state.acc[miss] += 1
                device = state.device_by_rid[rid]
                service = state.service_by_rid[rid]
                entry = (state, rid, state.issue_time, service)
                if (
                    device.current is not None
                    or device.grant_pending
                    or (heap and heap[0][0] == now)
                ):
                    device.queue.append(entry)
                    schedule_grant(device, now)
                else:
                    # Inline grant: an idle device with no arbitration
                    # pending has an empty queue, so this is the one
                    # request its cycle's grant would serve.
                    device.current = entry
                    device.last_served = state.core_id
                    push(heap, (now + service, _COMPLETE, seq, device.key))
                    seq += 1
            elif kind == _COMPLETE:
                device = device_list[payload]
                entry = device.current
                assert entry is not None
                requester, rid, issue_time, service = entry
                device.current = None
                wait = now - service - issue_time
                if wait < 0:
                    raise SimulationError("causality violation in simulator")
                if rid < 0:  # DMA master
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
                    overlap = state.overlap_by_rid[rid]
                    blocking = now - issue_time - overlap
                    if blocking < 0:
                        blocking = 0
                    elif blocking:
                        state.acc[state.stall_by_rid[rid]] += blocking
                    state.agg_count[rid] += 1
                    state.agg_wait[rid] += wait
                    if blocking < state.agg_bmin[rid]:
                        state.agg_bmin[rid] = blocking
                    if blocking > state.agg_bmax[rid]:
                        state.agg_bmax[rid] = blocking
                    cursor = state.cursor
                    next_rid = (
                        state.rid_list[cursor]
                        if cursor < state.n_requests
                        else -1
                    )
                    if next_rid >= 0 and not state.solo_by_rid[next_rid]:
                        # advance()'s first step, inline: the next
                        # request goes to a shared device.
                        gap = state.gap_list[cursor] - overlap
                        if gap < 0:
                            state.overlap_credit = -gap
                            gap = 0
                        else:
                            state.overlap_credit = 0
                        state.cursor = cursor + 1
                        state.pending_rid = next_rid
                        state.issue_time = now + gap
                        push(heap, (now + gap, _ISSUE, seq, state.core_id))
                        seq += 1
                    else:
                        state.overlap_credit = overlap
                        advance(state, now)
                if device.queue:
                    grant(device, now)
            elif kind == _GRANT:
                device = device_list[payload]
                device.grant_pending = False
                if device.current is None and device.queue:
                    grant(device, now)
            elif kind == _STEP:
                advance(cores[payload], now)
            else:  # _DMA_TICK
                agent_state = dma[payload]
                if agent_state.remaining > 0:
                    if agent_state.outstanding < agent_state.agent.queue_depth:
                        dma_issue(agent_state, now)
                    else:
                        agent_state.deferred += 1
                    if agent_state.remaining > 0:
                        push(
                            heap,
                            (
                                now + agent_state.agent.period,
                                _DMA_TICK,
                                seq,
                                payload,
                            ),
                        )
                        seq += 1

        stats = {
            core_id: state.finalize() for core_id, state in cores.items()
        }
        return self._collect(cores, stats, dma)

    # ------------------------------------------------------------------
    def _collect(
        self,
        cores: dict[int, _CompiledCoreState],
        stats: dict[int, dict[tuple[Target, Operation], TransactionStats]],
        dma: dict[int, _DmaState] | None = None,
    ) -> SimResult:
        dma_results: dict[int, DmaResult] = {}
        for master_id, state in (dma or {}).items():
            if state.finish_time is None:
                raise SimulationError(
                    f"DMA agent {state.agent.label!r} never finished"
                )
            dma_results[master_id] = DmaResult(
                master_id=master_id,
                served=state.served,
                finish_time=state.finish_time,
                total_wait_cycles=state.wait_cycles,
            )
        results: dict[int, CoreResult] = {}
        makespan = max(
            (r.finish_time for r in dma_results.values()), default=0
        )
        for core_id, state in cores.items():
            if state.finish_time is None:
                raise SimulationError(
                    f"core {core_id} ({state.name!r}) never finished"
                )
            makespan = max(makespan, state.finish_time)
            snapshot = state.bank.snapshot()
            snapshot[DebugCounter.CCNT] = state.finish_time
            readings = TaskReadings.from_bank_snapshot(
                state.name,
                snapshot,
                ccnt=state.finish_time if state.finish_time > 0 else None,
            )
            profile = profile_from_pairs(
                state.name,
                (
                    (target, operation, count)
                    for (target, operation), count in state.true_counts.items()
                ),
            )
            results[core_id] = CoreResult(
                core=core_id,
                readings=readings,
                profile=profile,
                transactions=stats[core_id],
                total_wait_cycles=state.wait_cycles,
            )
        return SimResult(cores=results, makespan=makespan, dma=dma_results)


def run_isolation(
    program: TaskProgram,
    *,
    core: int = 1,
    timing: SimTiming | None = None,
) -> CoreResult:
    """Run one task alone (the paper's measurement protocol, step 1)."""
    return SystemSimulator(timing).run({core: program}).core(core)


def run_corun(
    programs: Mapping[int, TaskProgram],
    *,
    timing: SimTiming | None = None,
) -> SimResult:
    """Co-run tasks on different cores, contending on the SRI."""
    if len(programs) < 2:
        raise SimulationError("a co-run needs at least two programs")
    return SystemSimulator(timing).run(programs)
