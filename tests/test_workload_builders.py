"""Tests for footprint-matched request blocks, program helpers and probes."""

import pytest

from repro.errors import WorkloadError
from repro.platform.targets import Operation, Target
from repro.sim.program import concatenate, program_from_steps, repeat
from repro.sim.requests import MissKind, code_fetch, data_access
from repro.sim.system import run_isolation
from repro.workloads.control_loop import split_code_misses, split_data_rw
from repro.workloads.microbenchmarks import probe
from repro.workloads.spec import RequestBlock, spread_counts


def _readings(*blocks: RequestBlock):
    """Isolation readings of the blocks run back to back."""
    program = program_from_steps(
        "blocks", [step for block in blocks for step in block.steps()]
    )
    return run_isolation(program).readings


class TestCodeBlocks:
    def test_footprint_reconstruction(self):
        # The control loop's inversion: random misses stall 16 cycles,
        # sequential (prefetch-stream) ones 6, spread over both banks.
        n_random, n_sequential = split_code_misses(1_000, 10_000)
        blocks = [
            RequestBlock(
                target=target,
                operation=Operation.CODE,
                count=share,
                gap=2,
                sequential_fraction=fraction,
                miss_kind=MissKind.ICACHE_MISS,
            )
            for count, fraction in ((n_sequential, 1.0), (n_random, 0.0))
            for target, share in zip(
                (Target.PF0, Target.PF1), spread_counts(count, [1.0, 1.0])
            )
        ]
        readings = _readings(*blocks)
        assert readings.pm == 1_000
        assert readings.ps == 10_000


class TestDataBlocks:
    def test_uncached_lmu_block_consumes_budget(self):
        reads, writes = split_data_rw(10_500)
        readings = _readings(
            RequestBlock(Target.LMU, Operation.DATA, count=reads),
            RequestBlock(
                Target.LMU, Operation.DATA, count=writes, write_fraction=1.0
            ),
        )
        assert readings.ds == 10_500
        assert readings.dmc == 0  # uncached: invisible to D$ counters

    def test_zero_budget(self):
        assert split_data_rw(0) == (0, 0)

    def test_below_one_access_rejected(self):
        with pytest.raises(WorkloadError, match="below one access"):
            split_data_rw(5)

    def test_cacheable_miss_block(self):
        readings = _readings(
            RequestBlock(
                Target.PF0,
                Operation.DATA,
                count=25,
                sequential_fraction=1.0,
                miss_kind=MissKind.DCACHE_MISS_CLEAN,
            )
        )
        assert readings.dmc == 25
        assert readings.dmd == 0

    def test_cacheable_dirty_block(self):
        readings = _readings(
            RequestBlock(
                Target.LMU,
                Operation.DATA,
                count=10,
                sequential_fraction=1.0,
                miss_kind=MissKind.DCACHE_MISS_DIRTY,
                dirty_fraction=1.0,
            )
        )
        assert readings.dmd == 10
        assert readings.ds == 210  # 21 cycles per dirty eviction

    def test_dflash_block(self):
        readings = _readings(
            RequestBlock(
                Target.DFL,
                Operation.DATA,
                count=5,
                gap=4,
                write_fraction=1.0,
            )
        )
        assert readings.ds == 5 * 42  # buffered DFlash writes


class TestProgramHelpers:
    def test_concatenate_runs_in_order(self):
        first = program_from_steps("a", [(0, code_fetch(Target.PF0))] * 3)
        second = program_from_steps(
            "b", [(0, data_access(Target.LMU))] * 2
        )
        combined = concatenate("ab", [first, second])
        profile = combined.ground_truth_profile()
        assert profile.count(Target.PF0, Operation.CODE) == 3
        assert profile.count(Target.LMU, Operation.DATA) == 2
        assert combined.request_count() == 5

    def test_repeat(self):
        base = program_from_steps("x", [(1, code_fetch(Target.PF0))])
        assert repeat("x3", base, 3).request_count() == 3
        assert repeat("x0", base, 0).request_count() == 0

    def test_repeat_negative_rejected(self):
        from repro.errors import SimulationError

        base = program_from_steps("x", [(1, code_fetch(Target.PF0))])
        with pytest.raises(SimulationError):
            repeat("bad", base, -1)

    def test_programs_are_replayable(self):
        program = program_from_steps(
            "replay", [(0, code_fetch(Target.PF0))] * 4
        )
        assert program.request_count() == 4
        assert program.request_count() == 4  # second pass identical
        first = run_isolation(program).readings
        second = run_isolation(program).readings
        assert first == second

    def test_compute_cycles(self):
        program = program_from_steps(
            "gaps", [(5, code_fetch(Target.PF0)), (7, None)]
        )
        assert program.compute_cycles() == 12


class TestProbes:
    def test_probe_count_parameter(self):
        small = probe(Target.LMU, Operation.DATA, "stream", count=16)
        assert small.count == 16
        assert small.program.request_count() == 16

    def test_probe_invalid_count(self):
        with pytest.raises(WorkloadError):
            probe(Target.LMU, Operation.DATA, "stream", count=0)

    def test_probe_unknown_flavour(self):
        with pytest.raises(WorkloadError):
            probe(Target.LMU, Operation.DATA, "burst")

    def test_isolated_probe_spacing_prevents_streaming(self):
        isolated = probe(Target.PF0, Operation.CODE, "isolated", count=8)
        readings = run_isolation(isolated.program).readings
        # Each access pays the full random latency: no prefetch hits.
        assert readings.ps == 8 * 16

    def test_dirty_probe_flags(self):
        dirty = probe(Target.LMU, Operation.DATA, "dirty", count=4)
        steps = list(dirty.program.steps())
        assert all(r.dirty_eviction for _, r in steps)
        assert all(
            r.miss_kind is MissKind.DCACHE_MISS_DIRTY for _, r in steps
        )
