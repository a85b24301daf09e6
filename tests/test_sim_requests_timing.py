"""Tests for SRI request validation and the device timing model."""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.platform.latency import tc27x_latency_profile
from repro.platform.targets import Operation, Target
from repro.sim.requests import MissKind, SriRequest, code_fetch, data_access
from repro.sim.timing import DeviceTiming, SimTiming, tc27x_sim_timing


class TestRequestValidation:
    def test_code_to_dflash_rejected(self):
        from repro.errors import InvalidAccessError

        with pytest.raises(InvalidAccessError):
            SriRequest(target=Target.DFL, operation=Operation.CODE)

    def test_code_cannot_write(self):
        with pytest.raises(SimulationError):
            SriRequest(
                target=Target.PF0, operation=Operation.CODE, write=True
            )

    def test_code_cannot_dirty_evict(self):
        with pytest.raises(SimulationError):
            SriRequest(
                target=Target.PF0,
                operation=Operation.CODE,
                dirty_eviction=True,
            )

    def test_dirty_requires_dirty_miss_kind(self):
        with pytest.raises(SimulationError):
            SriRequest(
                target=Target.LMU,
                operation=Operation.DATA,
                dirty_eviction=True,
                miss_kind=MissKind.UNCACHED,
            )
        with pytest.raises(SimulationError):
            SriRequest(
                target=Target.LMU,
                operation=Operation.DATA,
                miss_kind=MissKind.DCACHE_MISS_DIRTY,
            )

    def test_stall_counter_selection(self):
        from repro.counters.dsu import DebugCounter

        assert (
            code_fetch(Target.PF0).stall_counter is DebugCounter.PMEM_STALL
        )
        assert (
            data_access(Target.LMU).stall_counter is DebugCounter.DMEM_STALL
        )

    def test_miss_kind_counters(self):
        from repro.counters.dsu import DebugCounter

        assert MissKind.ICACHE_MISS.counter is DebugCounter.PCACHE_MISS
        assert MissKind.UNCACHED.counter is None


class TestDeviceTiming:
    def test_sequential_not_slower_than_random(self):
        with pytest.raises(SimulationError):
            DeviceTiming(service_sequential=20, service_random=16)

    @pytest.mark.parametrize("service_dirty", [0, -3])
    def test_dirty_service_must_be_positive(self, service_dirty):
        with pytest.raises(SimulationError, match="must be positive"):
            DeviceTiming(
                service_sequential=11,
                service_random=11,
                service_dirty=service_dirty,
            )

    def test_service_selection(self):
        device = DeviceTiming(
            service_sequential=12, service_random=16, service_dirty=21
        )
        assert device.service_time(code_fetch(Target.PF0, sequential=True)) == 12
        assert device.service_time(code_fetch(Target.PF0)) == 16
        dirty = data_access(
            Target.LMU,
            miss_kind=MissKind.DCACHE_MISS_DIRTY,
            dirty_eviction=True,
        )
        assert device.service_time(dirty) == 21

    def test_overlap_selection(self):
        device = DeviceTiming(
            service_sequential=12,
            service_random=16,
            overlap_code_seq=6,
            overlap_data_seq=1,
            overlap_write=1,
        )
        assert device.overlap(code_fetch(Target.PF0, sequential=True)) == 6
        assert device.overlap(code_fetch(Target.PF0)) == 0
        assert device.overlap(data_access(Target.PF0, sequential=True)) == 1
        assert device.overlap(data_access(Target.PF0, write=True)) == 1


class TestTc27xTiming:
    """The simulator's constants must be Table 2 consistent."""

    def test_validates_against_paper_profile(self, sim_timing):
        sim_timing.validate_against(tc27x_latency_profile())

    @pytest.mark.parametrize(
        "request_,expected_stall",
        [
            (code_fetch(Target.PF0, sequential=True), 6),
            (code_fetch(Target.PF0), 16),
            (code_fetch(Target.LMU), 11),
            (data_access(Target.LMU), 11),
            (data_access(Target.LMU, write=True), 10),
            (data_access(Target.PF0, sequential=True), 11),
            (data_access(Target.DFL, write=True), 42),
            (data_access(Target.DFL), 43),
            (
                data_access(
                    Target.LMU,
                    miss_kind=MissKind.DCACHE_MISS_DIRTY,
                    dirty_eviction=True,
                ),
                21,
            ),
        ],
    )
    def test_isolation_blocking(self, sim_timing, request_, expected_stall):
        assert sim_timing.blocking_time(request_) == expected_stall

    def test_blocking_includes_wait(self, sim_timing):
        request = code_fetch(Target.PF0, sequential=True)
        assert sim_timing.blocking_time(request, wait=10) == 16

    def test_mismatched_timing_rejected(self, sim_timing):
        wrong_pf = dataclasses.replace(
            sim_timing.devices[Target.PF0], service_random=17
        )
        broken = SimTiming(
            devices={**sim_timing.devices, Target.PF0: wrong_pf}
        )
        with pytest.raises(SimulationError):
            broken.validate_against(tc27x_latency_profile())

    def test_stall_floor_mismatch_rejected(self, sim_timing):
        # Raising the code overlap makes min stall 5 != cs 6.
        wrong_pf = dataclasses.replace(
            sim_timing.devices[Target.PF0], overlap_code_seq=7
        )
        broken = SimTiming(
            devices={**sim_timing.devices, Target.PF0: wrong_pf}
        )
        with pytest.raises(SimulationError):
            broken.validate_against(tc27x_latency_profile())
