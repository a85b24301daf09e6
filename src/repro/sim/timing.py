"""Device timing model of the simulator — where Table 2 comes from.

Each SRI slave serves one transaction at a time; a transaction occupies the
slave for its *service time* and blocks the issuing core for the service
time minus the *pipeline overlap* the core can hide (prefetch streams on
the flashes, store buffering on the LMU).  The parameters below are chosen
so that the observable quantities match Table 2 of the paper **by
construction**, and the characterisation harness then re-measures them the
way the authors did:

========  ===========  ===========  ==============  ==============
target    service seq  service rnd  overlap (seq)   min stall
========  ===========  ===========  ==============  ==============
pf, code      12           16        6               12-6 = 6
pf, data      12           16        1               12-1 = 11
lmu, code     11           11        0               11
lmu, read     11           11        0               11
lmu, write    11           11        1               11-1 = 10
lmu, dirty    21           21        0               21 (bracketed)
dfl, data     43           43        1               43-1 = 42
========  ===========  ===========  ==============  ==============

Invariant (checked at construction): counted stall of any transaction in
isolation is at least the Table 2 ``cs^{t,o}`` of its class — otherwise
Eq. 4's access-count bounds would be unsound.
"""

from __future__ import annotations

import dataclasses

from repro.errors import SimulationError
from repro.platform.latency import LatencyProfile, tc27x_latency_profile
from repro.platform.targets import Operation, Target
from repro.sim.requests import SriRequest


@dataclasses.dataclass(frozen=True)
class DeviceTiming:
    """Service/overlap parameters of one SRI slave.

    Attributes:
        service_sequential: occupancy of a prefetch-stream transaction.
        service_random: occupancy of an isolated/random transaction.
        service_dirty: occupancy of a dirty-eviction transaction
            (write-back plus fill); ``None`` when not distinguished.
        overlap_code_seq: pipeline overlap of sequential code fetches.
        overlap_data_seq: pipeline overlap of sequential data reads.
        overlap_write: overlap of (buffered) writes.
    """

    service_sequential: int
    service_random: int
    service_dirty: int | None = None
    overlap_code_seq: int = 0
    overlap_data_seq: int = 0
    overlap_write: int = 0

    def __post_init__(self) -> None:
        if (
            self.service_sequential <= 0
            or self.service_random <= 0
            or (self.service_dirty is not None and self.service_dirty <= 0)
        ):
            raise SimulationError("service times must be positive")
        if self.service_sequential > self.service_random:
            raise SimulationError(
                "sequential service cannot exceed random service"
            )
        for name in ("overlap_code_seq", "overlap_data_seq", "overlap_write"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")

    def service_time(self, request: SriRequest) -> int:
        """Cycles the transaction occupies the slave."""
        if request.dirty_eviction and self.service_dirty is not None:
            return self.service_dirty
        if request.sequential:
            return self.service_sequential
        return self.service_random

    def overlap(self, request: SriRequest) -> int:
        """Cycles of the service the issuing core hides (not stalled)."""
        if request.dirty_eviction:
            return 0
        if request.operation is Operation.CODE:
            return self.overlap_code_seq if request.sequential else 0
        if request.write:
            return self.overlap_write
        return self.overlap_data_seq if request.sequential else 0


@dataclasses.dataclass(frozen=True)
class SimTiming:
    """Complete timing configuration of the simulated memory system."""

    devices: dict[Target, DeviceTiming]

    def device(self, target: Target) -> DeviceTiming:
        try:
            return self.devices[target]
        except KeyError as exc:
            raise SimulationError(
                f"no timing configured for target {target.value!r}"
            ) from exc

    def service_time(self, request: SriRequest) -> int:
        """Occupancy of ``request`` on its target."""
        return self.device(request.target).service_time(request)

    def blocking_time(self, request: SriRequest, wait: int = 0) -> int:
        """Core-visible stall of ``request`` after waiting ``wait`` cycles.

        The core stalls for the queueing delay plus the un-hidden part of
        the service: ``wait + service - overlap`` (never negative).
        """
        device = self.device(request.target)
        return max(
            0, wait + device.service_time(request) - device.overlap(request)
        )

    def validate_against(self, profile: LatencyProfile) -> None:
        """Check the soundness invariants linking the simulator to Table 2.

        For every (target, operation) class:

        * isolated (non-sequential) service equals ``l_max`` and the dirty
          service (where defined) equals the bracketed dirty latency, so
          the worst occupancy a contender can impose matches the model's
          ``l^{t,o}`` coefficients;
        * sequential service equals ``l_min``;
        * the *minimum* counted stall across transaction flavours equals
          ``cs^{t,o}``, so Eq. 4's access bounds hold on simulated data.
        """
        from repro.platform.targets import is_valid_pair

        for target, device in self.devices.items():
            timing = profile.timing(target)
            if device.service_random != timing.l_max:
                raise SimulationError(
                    f"{target.value}: random service {device.service_random} "
                    f"!= l_max {timing.l_max}"
                )
            if device.service_sequential != timing.l_min:
                raise SimulationError(
                    f"{target.value}: sequential service "
                    f"{device.service_sequential} != l_min {timing.l_min}"
                )
            if (device.service_dirty is None) != (timing.l_max_dirty is None):
                raise SimulationError(
                    f"{target.value}: dirty service presence mismatch"
                )
            if (
                device.service_dirty is not None
                and device.service_dirty != timing.l_max_dirty
            ):
                raise SimulationError(
                    f"{target.value}: dirty service {device.service_dirty} "
                    f"!= dirty latency {timing.l_max_dirty}"
                )
            for operation in (Operation.CODE, Operation.DATA):
                if not is_valid_pair(target, operation):
                    continue
                expected = timing.cs(operation)
                observed = _min_isolated_stall(device, operation)
                if observed != expected:
                    raise SimulationError(
                        f"{target.value},{operation.value}: minimum counted "
                        f"stall {observed} != cs {expected}"
                    )


def _min_isolated_stall(device: DeviceTiming, operation: Operation) -> int:
    """Minimum stall any single transaction of a class can cost in
    isolation, over the sequential/random/read/write flavours."""
    if operation is Operation.CODE:
        return min(
            device.service_sequential - device.overlap_code_seq,
            device.service_random,
        )
    candidates = [
        device.service_sequential - device.overlap_data_seq,  # streamed read
        device.service_random,  # random read
        device.service_sequential - device.overlap_write,  # buffered write
    ]
    return min(c for c in candidates if c >= 0)


def tc27x_sim_timing() -> SimTiming:
    """The timing configuration matching Table 2 (module docstring table)."""
    pf = DeviceTiming(
        service_sequential=12,
        service_random=16,
        overlap_code_seq=6,
        overlap_data_seq=1,
        overlap_write=1,
    )
    timing = SimTiming(
        devices={
            Target.PF0: pf,
            Target.PF1: pf,
            Target.LMU: DeviceTiming(
                service_sequential=11,
                service_random=11,
                service_dirty=21,
                overlap_code_seq=0,
                overlap_data_seq=0,
                overlap_write=1,
            ),
            Target.DFL: DeviceTiming(
                service_sequential=43,
                service_random=43,
                overlap_data_seq=0,
                overlap_write=1,
            ),
        }
    )
    timing.validate_against(tc27x_latency_profile())
    return timing
