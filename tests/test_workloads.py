"""Tests for workload specs, footprint inversion and the generators."""

import math

import pytest

from repro import paper
from repro.errors import WorkloadError
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.targets import Operation, Target
from repro.sim.requests import MissKind
from repro.sim.system import run_isolation
from repro.workloads.control_loop import (
    build_control_loop,
    split_code_misses,
    split_data_rw,
)
from repro.workloads.footprint import isolation_cycles
from repro.workloads.loads import all_loads, build_load, load_readings
from repro.workloads.spec import (
    RequestBlock,
    WorkloadSpec,
    chunked_blocks,
    spread_counts,
)
from repro.workloads.synthetic import random_task_pair, random_workload

#: Scales that are not finite numbers, which every scaling entry point
#: rejects with its own error instead of a raw ValueError/OverflowError.
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestSpreadCounts:
    def test_exact_total(self):
        shares = spread_counts(10, [1, 1, 1])
        assert sum(shares) == 10
        assert sorted(shares) == [3, 3, 4]

    def test_weighted(self):
        assert spread_counts(100, [3, 1]) == [75, 25]

    def test_zero_total(self):
        assert spread_counts(0, [1, 1]) == [0, 0]

    def test_invalid_weights(self):
        with pytest.raises(WorkloadError):
            spread_counts(5, [])
        with pytest.raises(WorkloadError):
            spread_counts(5, [0, 0])


class TestChunkedBlocks:
    """The one phase layout the control loop and the loads share."""

    CODE = RequestBlock(
        Target.PF0, Operation.CODE, 7, 2, miss_kind=MissKind.ICACHE_MISS
    )
    WRITES = RequestBlock(
        Target.LMU, Operation.DATA, 5, 1, write_fraction=1.0
    )

    def test_each_chunk_holds_every_phase_share_in_phase_order(self):
        blocks = chunked_blocks([self.WRITES, self.CODE], 3)
        targets = [block.target for block in blocks]
        assert targets == [Target.LMU, Target.PF0, Target.PF1] * 3
        writes = [b.count for b in blocks if b.target is Target.LMU]
        assert writes == spread_counts(5, [1.0] * 3)
        assert sum(b.count for b in blocks) == 5 + 7
        for block in blocks:
            phase = self.WRITES if block.target is Target.LMU else self.CODE
            assert (block.operation, block.gap, block.write_fraction) == (
                phase.operation, phase.gap, phase.write_fraction
            )
            assert block.miss_kind is phase.miss_kind

    def test_pf0_phase_splits_each_share_over_both_banks(self):
        blocks = chunked_blocks([self.CODE], 2)
        # Shares 4 and 3 of 7; each splits PF0 first.
        assert [(b.target, b.count) for b in blocks] == [
            (Target.PF0, 2), (Target.PF1, 2),
            (Target.PF0, 2), (Target.PF1, 1),
        ]
        pf1 = RequestBlock(Target.PF1, Operation.CODE, 4)
        assert [b.target for b in chunked_blocks([pf1], 2)] == [
            Target.PF1, Target.PF1
        ]

    def test_empty_shares_add_nothing_and_equal_blocks_share(self):
        blocks = chunked_blocks([self.WRITES], 8)
        # 5 requests over 8 chunks: three chunks hold none.
        assert [b.count for b in blocks] == [1] * 5
        assert all(block is blocks[0] for block in blocks)


class TestRequestBlock:
    def test_deterministic_fractions(self):
        block = RequestBlock(
            target=Target.PF0,
            operation=Operation.CODE,
            count=100,
            sequential_fraction=0.25,
            miss_kind=MissKind.ICACHE_MISS,
        )
        seq = sum(1 for _, r in block.steps() if r.sequential)
        assert seq == 25
        # Deterministic: identical on re-iteration.
        assert seq == sum(1 for _, r in block.steps() if r.sequential)

    def test_write_fraction_exact(self):
        block = RequestBlock(
            target=Target.LMU,
            operation=Operation.DATA,
            count=10,
            write_fraction=0.5,
        )
        writes = sum(1 for _, r in block.steps() if r.write)
        assert writes == 5

    def test_dirty_fraction_forces_miss_kind(self):
        block = RequestBlock(
            target=Target.LMU,
            operation=Operation.DATA,
            count=4,
            miss_kind=MissKind.DCACHE_MISS_CLEAN,
            dirty_fraction=0.5,
        )
        kinds = [r.miss_kind for _, r in block.steps()]
        assert kinds.count(MissKind.DCACHE_MISS_DIRTY) == 2
        assert kinds.count(MissKind.DCACHE_MISS_CLEAN) == 2

    def test_code_block_validation(self):
        with pytest.raises(WorkloadError):
            RequestBlock(
                target=Target.PF0,
                operation=Operation.CODE,
                count=1,
                write_fraction=0.5,
            )

    def test_dirty_requires_cache_miss_kind(self):
        with pytest.raises(WorkloadError):
            RequestBlock(
                target=Target.LMU,
                operation=Operation.DATA,
                count=1,
                dirty_fraction=1.0,
                miss_kind=MissKind.UNCACHED,
            )

    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
    @pytest.mark.parametrize(
        "field", ["sequential_fraction", "write_fraction", "dirty_fraction"]
    )
    def test_fraction_outside_unit_interval_rejected(self, field, value):
        # Rejected when the block is built, not when it is simulated.
        with pytest.raises(WorkloadError, match=r"outside \[0, 1\]"):
            RequestBlock(
                target=Target.LMU,
                operation=Operation.DATA,
                count=10,
                miss_kind=MissKind.DCACHE_MISS_CLEAN,
                **{field: value},
            )

    def test_scaled(self):
        block = RequestBlock(
            target=Target.LMU, operation=Operation.DATA, count=100
        )
        assert block.scaled(0.5).count == 50
        assert block.scaled(0.014).count == 1  # floor(1.4 + .5)

    @pytest.mark.parametrize("factor", NON_FINITE)
    def test_scaled_rejects_non_finite(self, factor):
        block = RequestBlock(Target.LMU, Operation.DATA, count=100)
        with pytest.raises(WorkloadError, match="positive and finite"):
            block.scaled(factor)


class TestWorkloadSpec:
    def test_expected_profile_matches_program(self):
        spec = WorkloadSpec(
            name="t",
            blocks=(
                RequestBlock(Target.PF0, Operation.CODE, 30),
                RequestBlock(Target.LMU, Operation.DATA, 20),
            ),
            iterations=3,
        )
        assert (
            spec.expected_profile().counts
            == spec.program().ground_truth_profile().counts
        )
        assert spec.total_requests() == 150

    def test_epilogue_gap(self):
        spec = WorkloadSpec(
            name="t",
            blocks=(RequestBlock(Target.LMU, Operation.DATA, 1),),
            epilogue_gap=500,
        )
        # block gap 1 + 11-cycle LMU read + 500 epilogue cycles.
        assert run_isolation(spec.program()).readings.require_ccnt() == 512

    @pytest.mark.parametrize("factor", NON_FINITE)
    @pytest.mark.parametrize("blocks", [0, 1])
    def test_scaled_rejects_non_finite(self, factor, blocks):
        # Without blocks only the epilogue would be scaled.
        spec = WorkloadSpec(
            name="t",
            blocks=(RequestBlock(Target.LMU, Operation.DATA, 10),)[:blocks],
            epilogue_gap=50,
        )
        with pytest.raises(WorkloadError, match="positive and finite"):
            spec.scaled(factor)


class TestSplits:
    def test_split_code_misses_reconstructs_ps(self):
        rand, seq = split_code_misses(236_544, 3_421_242)
        assert rand + seq == 236_544
        assert abs(16 * rand + 6 * seq - 3_421_242) <= 5

    def test_split_code_extremes(self):
        assert split_code_misses(10, 60) == (0, 10)  # all sequential
        assert split_code_misses(10, 160) == (10, 0)  # all random
        assert split_code_misses(0, 0) == (0, 0)

    def test_split_code_rejects_stalls_without_misses(self):
        with pytest.raises(WorkloadError):
            split_code_misses(0, 100)

    def test_split_data_rw_exact(self):
        n_r, n_w = split_data_rw(8_345_056)
        assert 11 * n_r + 10 * n_w == 8_345_056
        assert n_r > 0 and n_w > 0

    @pytest.mark.parametrize("ds", [10, 11, 21, 100, 9999, 84_171])
    def test_split_data_rw_exact_small(self, ds):
        n_r, n_w = split_data_rw(ds)
        assert 11 * n_r + 10 * n_w == ds

    def test_split_data_rw_unrepresentable(self):
        with pytest.raises(WorkloadError):
            split_data_rw(9)  # below one access
        with pytest.raises(WorkloadError):
            split_data_rw(19)  # no non-negative solution


class TestControlLoop:
    @pytest.mark.parametrize("scenario_f", [scenario_1, scenario_2])
    def test_footprint_matches_table6(self, scenario_f):
        scenario = scenario_f()
        program, layout = build_control_loop(scenario, scale=1 / 128)
        readings = run_isolation(program).readings
        target = layout.readings_target
        assert readings.pm == target.pm
        assert readings.ps == pytest.approx(target.ps, rel=5e-3)
        assert readings.ds == pytest.approx(target.ds, rel=5e-3)
        assert readings.dmd == 0

    def test_ccnt_padded_to_derived_isolation_time(self):
        program, _ = build_control_loop(scenario_1(), scale=1 / 128)
        readings = run_isolation(program).readings
        expected = paper.ISOLATION_CYCLES["scenario1"] / 128
        assert readings.require_ccnt() == pytest.approx(expected, rel=1e-3)

    def test_isolation_cycles_helper_matches_engine(self):
        program, _ = build_control_loop(scenario_2(), scale=1 / 128)
        assert (
            isolation_cycles(program)
            == run_isolation(program).readings.require_ccnt()
        )

    def test_scale_validation(self):
        with pytest.raises(WorkloadError):
            build_control_loop(scenario_1(), scale=0)
        with pytest.raises(WorkloadError):
            build_control_loop(scenario_1(), scale=2)

    @pytest.mark.parametrize("scale", NON_FINITE)
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(WorkloadError, match=r"scale must be in \(0, 1\]"):
            build_control_loop(scenario_1(), scale=scale)

    def test_scenario2_has_cache_misses(self):
        program, layout = build_control_loop(scenario_2(), scale=1 / 64)
        readings = run_isolation(program).readings
        assert readings.dmc == layout.readings_target.dmc
        assert readings.dmc > 0


class TestLoads:
    def test_h_load_readings_are_table6(self):
        assert load_readings("scenario1", "H") == paper.table6(
            "scenario1", "H-Load"
        )

    def test_scaled_levels(self):
        h = load_readings("scenario1", "H")
        m = load_readings("scenario1", "M")
        l = load_readings("scenario1", "L")
        assert m.pm == pytest.approx(h.pm * 0.75, abs=1)
        assert l.pm == pytest.approx(h.pm * 0.5, abs=1)

    def test_unknown_level(self):
        with pytest.raises(WorkloadError):
            load_readings("scenario1", "X")

    @pytest.mark.parametrize("level", ["H", "M", "L"])
    def test_load_footprint_on_simulator(self, level):
        program = build_load("scenario1", level, scale=1 / 128)
        readings = run_isolation(program, core=2).readings
        target = load_readings("scenario1", level).scaled(1 / 128)
        assert readings.pm == target.pm
        assert readings.ps == pytest.approx(target.ps, rel=6e-3)
        assert readings.ds == pytest.approx(target.ds, rel=6e-3)

    def test_all_loads(self):
        loads = all_loads("scenario2", scale=1 / 128)
        assert set(loads) == {"H", "M", "L"}

    def test_unknown_scenario(self):
        with pytest.raises(WorkloadError):
            build_load("scenario9", "H")

    @pytest.mark.parametrize("scale", NON_FINITE)
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(WorkloadError, match=r"scale must be in \(0, 1\]"):
            build_load("scenario1", "H", scale=scale)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a1 = random_workload("t", scenario_1(), seed=7)
        a2 = random_workload("t", scenario_1(), seed=7)
        assert a1.expected_profile().counts == a2.expected_profile().counts

    def test_different_seeds_differ(self):
        a = random_workload("t", scenario_1(), seed=1)
        b = random_workload("t", scenario_1(), seed=2)
        assert (
            a.expected_profile().counts != b.expected_profile().counts
            or a.blocks != b.blocks
        )

    def test_respects_scenario_pairs(self):
        spec = random_workload("t", scenario_1(), seed=3)
        allowed = set(scenario_1().valid_pairs())
        for block in spec.blocks:
            assert (block.target, block.operation) in allowed

    def test_budget_cap(self):
        spec = random_workload("t", scenario_2(), seed=5, max_requests=100)
        assert spec.total_requests() <= 100

    def test_pair_helper(self):
        a, b = random_task_pair(scenario_1(), seed=11, max_requests=50)
        assert a.request_count() <= 50
        assert b.request_count() <= 50
