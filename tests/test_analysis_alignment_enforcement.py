"""Tests for the alignment search and contender throttling."""

import pytest

from repro.analysis import alignment
from repro.analysis.alignment import (
    AlignmentResult,
    alignment_sweep,
    delayed,
)
from repro.analysis.enforcement import throttle_sweep, throttled
from repro.core.ilp_ptac import ilp_ptac_bound
from repro.errors import SimulationError
from repro.platform.deployment import custom_scenario, scenario_1
from repro.platform.latency import tc27x_latency_profile
from repro.platform.targets import Target
from repro.sim.program import program_from_steps
from repro.sim.requests import code_fetch, data_access
from repro.sim.system import run_isolation

PROFILE = tc27x_latency_profile()


def lmu_stream(name, count, gap):
    return program_from_steps(name, [(gap, data_access(Target.LMU))] * count)


class TestProgramTransforms:
    def test_delayed_offsets_release(self):
        program = lmu_stream("t", 5, 0)
        base = run_isolation(program).readings.require_ccnt()
        shifted = run_isolation(delayed(program, 100)).readings.require_ccnt()
        assert shifted == base + 100

    def test_delayed_zero_is_identity(self):
        program = lmu_stream("t", 5, 0)
        assert delayed(program, 0) is program

    def test_delayed_negative_rejected(self):
        with pytest.raises(SimulationError):
            delayed(lmu_stream("t", 1, 0), -1)

    def test_throttled_stretches_short_gaps_only(self):
        program = program_from_steps(
            "t",
            [(1, data_access(Target.LMU)), (50, data_access(Target.LMU))],
        )
        stretched = list(throttled(program, 10).steps())
        assert stretched[0][0] == 10
        assert stretched[1][0] == 50

    def test_throttled_zero_is_identity(self):
        program = lmu_stream("t", 3, 0)
        assert throttled(program, 0) is program

    def test_throttled_preserves_counts(self):
        program = lmu_stream("t", 20, 1)
        assert throttled(program, 16).request_count() == 20


class TestAlignmentSweep:
    @pytest.fixture(scope="class")
    def result(self) -> AlignmentResult:
        victim = lmu_stream("victim", 40, 3)
        rival = lmu_stream("rival", 40, 2)
        return alignment_sweep(victim, rival, step=1)

    def test_worst_at_least_every_offset(self, result):
        assert result.worst_cycles == max(c for _, c in result.per_offset)

    def test_contention_observed(self, result):
        assert result.worst_cycles > result.isolation_cycles

    def test_offset_variation_exists(self, result):
        # Different alignments produce different interference patterns.
        observed = {c for _, c in result.per_offset}
        assert len(observed) > 1

    def test_model_upper_bounds_exhaustive_worst(self, result):
        victim = lmu_stream("victim", 40, 3)
        rival = lmu_stream("rival", 40, 2)
        scenario = custom_scenario("lmu", data_targets=(Target.LMU,))
        readings_a = run_isolation(victim).readings
        readings_b = run_isolation(rival, core=2).readings
        bound = ilp_ptac_bound(readings_a, readings_b, PROFILE, scenario)
        wcet = result.isolation_cycles + bound.bound.delta_cycles
        assert wcet >= result.worst_cycles
        assert 0.0 <= result.pessimism_of(wcet) < 1.0

    def test_pessimism_of_tight_bound_is_zero(self, result):
        assert result.pessimism_of(result.worst_cycles) == 0.0
        assert result.pessimism_of(result.isolation_cycles) == 0.0

    def test_explicit_offsets(self):
        victim = lmu_stream("victim", 10, 3)
        rival = lmu_stream("rival", 10, 2)
        result = alignment_sweep(victim, rival, offsets=[0, 5])
        assert [o for o, _ in result.per_offset] == [0, 5]

    def test_empty_offsets_rejected(self):
        with pytest.raises(SimulationError):
            alignment_sweep(
                lmu_stream("v", 2, 0), lmu_stream("r", 2, 0), offsets=[]
            )

    @pytest.mark.parametrize("step", [0, -1])
    def test_step_below_one_rejected_before_any_run(self, step, monkeypatch):
        def no_simulator():
            pytest.fail("simulated before checking the step")

        monkeypatch.setattr(alignment, "SystemSimulator", no_simulator)
        with pytest.raises(SimulationError, match="step must be at least 1"):
            alignment_sweep(
                lmu_stream("v", 2, 0), lmu_stream("r", 2, 0), step=step
            )

    def test_disjoint_targets_alignment_invariant(self):
        victim = program_from_steps(
            "v", [(0, code_fetch(Target.PF0))] * 20
        )
        rival = program_from_steps(
            "r", [(0, code_fetch(Target.PF1))] * 20
        )
        result = alignment_sweep(victim, rival, step=4)
        assert result.worst_cycles == result.isolation_cycles


class TestThrottleSweep:
    @pytest.fixture(scope="class")
    def points(self):
        from repro.workloads.control_loop import build_control_loop
        from repro.workloads.loads import build_load

        scenario = scenario_1()
        app, _ = build_control_loop(scenario, scale=1 / 256)
        load = build_load("scenario1", "H", scale=1 / 256)
        victim_readings = run_isolation(app).readings
        return throttle_sweep(
            victim_readings, load, scenario, gaps=(0, 8, 32)
        )

    def test_bound_monotone_in_regulation(self, points):
        deltas = [p.delta_cycles for p in points]
        assert deltas == sorted(deltas, reverse=True)

    def test_contender_pays_in_runtime(self, points):
        cycles = [p.contender_cycles for p in points]
        assert cycles == sorted(cycles)
        assert cycles[-1] > cycles[0]

    def test_unthrottled_matches_plain_bound(self, points):
        assert points[0].min_gap == 0
        # Density ratio 1.0: the windowed readings equal the raw ones.
        assert points[0].contender_readings.ps > 0

    def test_throttle_negative_rejected(self):
        with pytest.raises(SimulationError):
            throttled(lmu_stream("t", 1, 0), -1)
