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
through whole request runs inline), and most of those cost one
completion event: a core's next request joins its busy device's queue,
or starts service on its idle device, without an issue event; an issue
or DMA tick that finds its device idle with nothing else due in its
cycle is granted on the spot instead of through an arbitration event;
and a DMA agent whose queue is full parks until its next completion
instead of ticking every period.  The last master left runs without
events: a core finishes in closed form from the next shared request it
places (:meth:`~repro.sim.program.CompiledProgram.time_alone`), a DMA
agent with nothing outstanding and ``period >= service`` from the next
tick.  Observables are folded once per run
from the per-request counts and from per-request wait sums and
extremes, which only transactions that waited update.  Its semantics
oracle, a step-generator walk with one heap event per step, issue,
grant and completion, lives in ``tests/oracles/sim_reference.py``; the
equivalence suite pins the two byte-identical on pickled
:class:`SimResult`\\ s.
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


#: Minimum-wait sentinel of the per-request aggregation (a plain int keeps
#: the hot-loop comparison int-vs-int).
_WAIT_MIN_SENTINEL = 1 << 62

#: Counter accumulators are lists indexed by a counter's position here
#: (an int index, not an enum hash, per update).
_COUNTERS = tuple(DebugCounter)
_COUNTER_INDEX = {counter: index for index, counter in enumerate(_COUNTERS)}


class _CompiledCoreState:
    """Mutable execution state of one core over its compiled program.

    Everything the per-transaction hot path needs is pre-resolved per
    *distinct* request (``*_by_rid`` lists) when the run starts.  A
    finished program has completed each of its transactions once, so
    request counts and miss counters follow from
    :meth:`~repro.sim.program.CompiledProgram.rid_counts`, and a
    transaction that did not wait contributes only its distinct request's
    constants.  Only a transaction that waited touches the per-rid
    accumulators: wait sum, number of waited transactions, smallest and
    largest wait, and — where the overlap exceeds the service — the part
    of the wait that slack absorbed.  :meth:`finalize` folds them into
    the :class:`CounterBank`, the ground-truth counts and the per-key
    :class:`TransactionStats`, with the same values and key order as
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
        "agg_wait",
        "agg_waited",
        "agg_wmin",
        "agg_wmax",
        "agg_slack",
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
        self.agg_wait = [0] * n
        self.agg_waited = [0] * n
        self.agg_wmin = [_WAIT_MIN_SENTINEL] * n
        self.agg_wmax = [0] * n
        self.agg_slack = [0] * n

    def finalize(
        self, counts: list[int]
    ) -> dict[tuple[Target, Operation], "TransactionStats"]:
        """Fold the per-rid accumulators into the run's observables.

        A transaction of request ``rid`` that waited ``w`` cycles blocks
        its core ``max(0, w + service − overlap)`` cycles, which is
        monotone in ``w``: the blocking extremes follow from the wait
        extremes (0 when some transaction did not wait).  The stall sum
        is ``count·(service − overlap) + Σ w`` when the overlap does not
        exceed the service, and ``Σ w − Σ min(w, overlap − service)``
        when it does.

        Key order: the deduped request table is in first-appearance
        order, so each (target, operation) key is first seen here at the
        point the program first completed it — the dicts iterate as a
        per-transaction walk would build them.
        """
        acc = [0] * len(_COUNTERS)
        true_counts: dict[tuple[Target, Operation], int] = {}
        stats: dict[tuple[Target, Operation], TransactionStats] = {}
        for rid, key in enumerate(self.key_by_rid):
            count = counts[rid]
            if not count:
                continue
            miss = self.miss_by_rid[rid]
            if miss >= 0:
                acc[miss] += count
            service = self.service_by_rid[rid]
            base = service - self.overlap_by_rid[rid]
            waits = self.agg_wait[rid]
            if base >= 0:
                stall = count * base + waits
            else:
                stall = waits - self.agg_slack[rid]
            if stall:
                acc[self.stall_by_rid[rid]] += stall
            low = self.agg_wmin[rid] if self.agg_waited[rid] == count else 0
            bmin = low + base
            bmax = self.agg_wmax[rid] + base
            if bmin < 0:
                bmin = 0
            if bmax < 0:
                bmax = 0
            true_counts[key] = true_counts.get(key, 0) + count
            entry = stats.get(key)
            if entry is None:
                entry = stats[key] = TransactionStats()
            entry.count += count
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
            entry.total_wait += waits
        bank = CounterBank()
        for counter, amount in zip(_COUNTERS, acc):
            if amount:
                bank.increment(counter, amount)
        self.bank = bank
        self.true_counts = true_counts
        self.wait_cycles = sum(self.agg_wait)
        return stats


class _DmaState:
    """Mutable execution state of one DMA agent.

    ``service`` and ``device`` are resolved once when the run starts (the
    agent issues one fixed transaction template, so its timing and target
    never change).  ``parked`` is the cycle of the agent's last issue
    attempt while its queue is full and no tick is scheduled, −1 while it
    ticks.  ``tick_seq`` is the heap tie-breaker of its ticks after the
    first.
    """

    __slots__ = (
        "agent",
        "core_id",  # uniform master-id field for the arbiter
        "period",
        "queue_depth",
        "remaining",
        "outstanding",
        "deferred",
        "served",
        "finish_time",
        "wait_cycles",
        "service",
        "device",
        "parked",
        "tick_seq",
    )

    def __init__(self, agent: DmaAgent) -> None:
        self.agent = agent
        self.core_id = agent.master_id
        self.period = agent.period
        self.queue_depth = agent.queue_depth
        self.remaining = agent.count
        self.outstanding = 0
        self.deferred = 0  # issue attempts postponed by a full queue
        self.served = 0
        self.finish_time = agent.start_time if agent.count == 0 else None
        self.wait_cycles = 0
        self.parked = -1
        self.tick_seq = 0


#: A queued transaction: (requester state, request id, issue time,
#: service time).  The request id indexes the requesting core's request
#: table; it is −1 for a DMA agent.
_QueueEntry = tuple[object, int, int, int]


class _DeviceState:
    """Mutable state of one SRI slave: in-flight transaction and queue.

    ``key`` is the device's heap payload index; ``grant_pending`` says an
    arbitration event is already queued for this cycle; ``busy_until`` is
    the completion cycle of ``current``.
    """

    __slots__ = (
        "target",
        "current",
        "queue",
        "last_served",
        "key",
        "grant_pending",
        "busy_until",
    )

    def __init__(self, target: Target, key: int = -1) -> None:
        self.target = target
        self.current: _QueueEntry | None = None
        self.queue: list[_QueueEntry] = []
        self.last_served = -1
        self.key = key
        self.grant_pending = False
        self.busy_until = -1


_STEP = 0
_ISSUE = 1
_COMPLETE = 2
_DMA_TICK = 3
# An idle device's arbitration event sorts after every other event kind
# at the same timestamp, so it sees every request raised in the cycle.  A
# busy device arbitrates inline at its completion instead, among the
# requests queued by then, and a request with nothing else due in its
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
        (``tests/oracles/sim_reference.py``) rests on the oracle's
        same-cycle order: steps, then issues, then completions (a
        single-master one before the shared ones), then DMA ticks, then
        arbitration events; heap sequence numbers break the remaining
        ties.  Every shortcut below either drops an event whose handler
        would change nothing, or does an event's work earlier, when
        nothing that could observe the difference runs in between; so
        every completion is still scheduled in the same relative order.
        Round-robin distance and priority class depend only on the
        master, so arbitration ties occur only among one master's
        entries, where the earliest-queued wins.  One fact per
        shortcut, each pinned by the equivalence suite:

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
          its own, sorted before the shared completions.  Known
          exception: the walk schedules the master's next shared issue
          when an inline chain starts, the oracle at its last
          completion, so that issue can take a sequence number ahead of
          a same-cycle issue the oracle orders first; on rare runs the
          two then arbitrate differently (a strict-xfail test pins one
          such run; ROADMAP, completion-grants item);
        * an isolation run (one core, no DMA agent) has only
          single-master devices, so it is one chain of inline
          transactions, each with zero wait.  Only its finish time needs
          computing: :meth:`~repro.sim.program.CompiledProgram.isolation_time`,
          in closed form over the arrays;
        * a core that places a shared request while it is the last
          unfinished master finishes there: no other master can queue on
          any device again, so each of its remaining transactions waits
          0 cycles and touches no accumulator, and its finish time is
          the request's issue cycle plus
          :meth:`~repro.sim.program.CompiledProgram.time_alone` from that
          request.  Nothing is scheduled (the heap is then empty: every
          pending event belongs to an unfinished master);
        * a DMA tick that finds its agent the last unfinished master,
          with nothing outstanding and ``period >= service``, finishes
          the agent the same way: no other master can queue again, so
          each remaining transaction is served at its tick, done before
          the next one, and the agent ends at ``now + (remaining − 1)·
          period + service`` with no wait (the arithmetic of
          :meth:`~repro.sim.dma.DmaAgent.uncontended_result`).  An agent
          with a transaction outstanding, or a period below its service,
          still queues behind itself and keeps its events;
        * scheduling an arbitration event only when the device is idle
          drops exactly the grant events that were no-ops (a busy
          device's next grant happens inline at its completion, in the
          oracle too), and event *sequence numbers* only break heap ties —
          same-cycle issues still all enqueue before the grant fires;
        * an issue or a DMA tick that finds its device idle, no
          arbitration event queued for it and no other event at its
          cycle arbitrates inline.  The arbitration event it would queue
          sorts after every other kind at its cycle, none is pending, and
          its handler queues nothing else in that cycle, so that event
          would be popped next;
        * a completing core's device arbitrates before the core's next
          request is placed: that request is issued no earlier than the
          completion, and the oracle raises it by an issue event, after
          the completion's arbitration.  The request is then placed
          directly.  If its device is busy until at least the issue
          cycle, it joins the queue at once: issues pop before the
          completions of their cycle, so the issue event would have
          queued it, with no effect, before that device's next
          arbitration.  If the device is idle, has no arbitration event
          queued and no event at all is due by the issue cycle, its
          service starts at once: its issue event would pop next and be
          granted inline.  Otherwise the issue event is scheduled;
        * every observable fold (counters, stats extremes, wait sums,
          ground-truth counts) commutes, and a finished program completes
          each transaction once, so counts and miss counters come from
          ``rid_counts()`` and a transaction that did not wait touches no
          accumulator.  The blocking ``max(0, wait + service − overlap)``
          is monotone in the wait, so its extremes come from the wait
          extremes; the deduped request table's first-appearance order
          reproduces every observable dict's insertion order;
        * a DMA tick that finds its agent's queue full only adds one
          deferral, and until the agent's next completion every further
          tick would do the same, since only its own completions drain
          its queue and ticks pop after the completions of their cycle.
          So a full tick parks the agent instead of scheduling the next
          tick; that completion adds the skipped ticks before the
          completion's cycle, ``(now − parked − 1) // period``, and
          schedules the next tick only if the queue is no longer full.
          A tick's sequence number is its agent's fixed rank (longest
          period, latest start, lowest id first) after every first
          tick: the order in which the tick chains would push them, so a
          tick scheduled late sorts where the chain would have put it.
          A deferred re-issue at a completion joins the device queue
          without an arbitration event: the completion arbitrates next,
          leaving the device busy when that event would pop.
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
            alone.finish_time = alone.compiled.isolation_time(
                alone.service_by_rid, alone.overlap_by_rid
            )
            return self._collect(
                cores,
                {alone.core_id: alone.finalize(alone.compiled.rid_counts())},
            )

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
        # Masters with transactions still to finish through the heap.
        unfinished = len(cores)
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
                unfinished += 1
        # Every later tick is pushed one period before it pops, so ticks
        # of one cycle pop longest period first, then latest start, then
        # lowest id; fixed sequence numbers keep that order however late
        # a parked agent's tick is scheduled.
        for dma_state in sorted(
            dma.values(),
            key=lambda s: (-s.period, -s.agent.start_time, s.core_id),
        ):
            dma_state.tick_seq = seq
            seq += 1

        all_ids = list(cores) + list(dma)
        rr_modulus = max(all_ids) + 2  # cyclic distance for round-robin
        use_priority = self.arbitration == "priority"
        priority_of = {
            master_id: self._priority(master_id) for master_id in all_ids
        }

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
            device.busy_until = done = now + entry[3]
            push(heap, (done, _COMPLETE, seq, device.key))
            seq += 1

        def arbitrate(device: _DeviceState, now: int) -> None:
            """Arbitrate a device whose queue just gained a request.

            A busy device arbitrates at its completion, and a pending
            arbitration event already covers the cycle.  Otherwise the
            device is granted inline when nothing else is due in its
            cycle (its arbitration event would pop next), else through
            that event.
            """
            nonlocal seq
            if device.current is not None or device.grant_pending:
                return
            if heap and heap[0][0] == now:
                device.grant_pending = True
                push(heap, (now, _GRANT, seq, device.key))
                seq += 1
            else:
                grant(device, now)

        def place(state: _CompiledCoreState, rid: int, when: int) -> None:
            """Queue, start or schedule a core's shared request issued
            at ``when`` — the last thing its caller's handler does.  The
            last master left finishes the rest of its program in closed
            form instead."""
            nonlocal seq, unfinished
            if unfinished == 1:
                state.finish_time = when + state.compiled.time_alone(
                    state.cursor - 1,
                    state.service_by_rid,
                    state.overlap_by_rid,
                )
                unfinished = 0
                return
            device = state.device_by_rid[rid]
            if device.current is not None:
                if device.busy_until >= when:
                    device.queue.append(
                        (state, rid, when, state.service_by_rid[rid])
                    )
                    return
            elif not device.grant_pending and (
                not heap or heap[0][0] > when
            ):
                service = state.service_by_rid[rid]
                device.current = (state, rid, when, service)
                device.last_served = state.core_id
                device.busy_until = done = when + service
                push(heap, (done, _COMPLETE, seq, device.key))
                seq += 1
                return
            state.pending_rid = rid
            state.issue_time = when
            push(heap, (when, _ISSUE, seq, state.core_id))
            seq += 1

        def advance(state: _CompiledCoreState, now: int) -> None:
            """Walk the compiled arrays from the core's cursor.

            Consecutive solo-device transactions are executed inline
            (zero wait, completion at ``issue + service``); the walk
            only stops to place a shared-device request, or to finish
            the program.
            """
            nonlocal unfinished
            cursor = state.cursor
            n = state.n_requests
            gap_list = state.gap_list
            rid_list = state.rid_list
            solo = state.solo_by_rid
            services = state.service_by_rid
            overlaps = state.overlap_by_rid
            credit = state.overlap_credit
            while cursor < n:
                gap = gap_list[cursor]
                if credit:
                    gap -= credit
                    if gap < 0:
                        credit = -gap
                        gap = 0
                    else:
                        credit = 0
                rid = rid_list[cursor]
                cursor += 1
                if solo[rid]:
                    now += gap + services[rid]
                    credit = overlaps[rid]
                    continue
                state.cursor = cursor
                state.overlap_credit = credit
                place(state, rid, now + gap)
                return
            state.cursor = cursor
            state.overlap_credit = 0
            trailing = state.final_gap - credit
            state.finish_time = now + trailing if trailing > 0 else now
            unfinished -= 1

        def dma_issue(state: _DmaState, now: int) -> None:
            """Put one DMA transaction on the wire (no arbitration)."""
            state.outstanding += 1
            state.remaining -= 1
            state.device.queue.append((state, -1, now, state.service))

        while heap:
            now, kind, _, payload = pop(heap)
            if kind == _COMPLETE:
                device = device_list[payload]
                entry = device.current
                assert entry is not None
                requester, rid, issue_time, service = entry
                wait = now - service - issue_time
                if wait < 0:
                    raise SimulationError("causality violation in simulator")
                if rid >= 0:
                    # The device arbitrates before the core's next request
                    # is placed (see run()'s docstring).
                    if device.queue:
                        grant(device, now)
                    else:
                        device.current = None
                    state = requester
                    overlap = state.overlap_by_rid[rid]
                    if wait:
                        state.agg_wait[rid] += wait
                        state.agg_waited[rid] += 1
                        if wait < state.agg_wmin[rid]:
                            state.agg_wmin[rid] = wait
                        if wait > state.agg_wmax[rid]:
                            state.agg_wmax[rid] = wait
                        if overlap > service:
                            slack = overlap - service
                            state.agg_slack[rid] += (
                                wait if wait < slack else slack
                            )
                    cursor = state.cursor
                    if cursor < state.n_requests:
                        rid = state.rid_list[cursor]
                        if not state.solo_by_rid[rid]:
                            # advance()'s first step, inline: the next
                            # request goes to a shared device.
                            gap = state.gap_list[cursor] - overlap
                            if gap < 0:
                                state.overlap_credit = -gap
                                gap = 0
                            else:
                                state.overlap_credit = 0
                            state.cursor = cursor + 1
                            place(state, rid, now + gap)
                            continue
                    state.overlap_credit = overlap
                    advance(state, now)
                    continue
                agent_state = requester
                agent_state.outstanding -= 1
                agent_state.served += 1
                agent_state.wait_cycles += wait
                parked = agent_state.parked
                if parked >= 0:
                    # Only a parked agent has deferrals, and it has
                    # transactions left (it parked with some, and issued
                    # none since).
                    period = agent_state.period
                    skipped = (now - parked - 1) // period
                    deferred = agent_state.deferred + skipped
                    if deferred:
                        deferred -= 1
                        dma_issue(agent_state, now)
                    agent_state.deferred = deferred
                    last_tick = parked + skipped * period
                    if not agent_state.remaining:
                        agent_state.parked = -1
                    elif agent_state.outstanding < agent_state.queue_depth:
                        agent_state.parked = -1
                        push(
                            heap,
                            (
                                last_tick + period,
                                _DMA_TICK,
                                agent_state.tick_seq,
                                agent_state.core_id,
                            ),
                        )
                    else:
                        agent_state.parked = last_tick
                if not agent_state.remaining and not agent_state.outstanding:
                    agent_state.finish_time = now
                    unfinished -= 1
                if device.queue:
                    grant(device, now)
                else:
                    device.current = None
            elif kind == _ISSUE:
                state = cores[payload]
                rid = state.pending_rid
                device = state.device_by_rid[rid]
                device.queue.append(
                    (state, rid, state.issue_time, state.service_by_rid[rid])
                )
                arbitrate(device, now)
            elif kind == _GRANT:
                device = device_list[payload]
                device.grant_pending = False
                if device.current is None and device.queue:
                    grant(device, now)
            elif kind == _DMA_TICK:
                agent_state = dma[payload]
                if agent_state.remaining > 0:
                    if (
                        unfinished == 1
                        and not agent_state.outstanding
                        and agent_state.period >= agent_state.service
                    ):
                        # The last master left, with nothing queued:
                        # uncontended_result()'s arithmetic from now on.
                        agent_state.served += agent_state.remaining
                        agent_state.finish_time = (
                            now
                            + (agent_state.remaining - 1) * agent_state.period
                            + agent_state.service
                        )
                        agent_state.remaining = 0
                        unfinished = 0
                    elif agent_state.outstanding < agent_state.queue_depth:
                        dma_issue(agent_state, now)
                        arbitrate(agent_state.device, now)
                        if agent_state.remaining > 0:
                            push(
                                heap,
                                (
                                    now + agent_state.period,
                                    _DMA_TICK,
                                    agent_state.tick_seq,
                                    payload,
                                ),
                            )
                    else:
                        agent_state.deferred += 1
                        agent_state.parked = now
            else:  # _STEP
                advance(cores[payload], now)

        stats = {
            core_id: state.finalize(state.compiled.rid_counts())
            for core_id, state in cores.items()
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
) -> CoreResult:
    """Run one task alone (the paper's measurement protocol, step 1)."""
    return SystemSimulator().run({core: program}).core(core)


def run_corun(programs: Mapping[int, TaskProgram]) -> SimResult:
    """Co-run tasks on different cores, contending on the SRI."""
    if len(programs) < 2:
        raise SimulationError("a co-run needs at least two programs")
    return SystemSimulator().run(programs)
