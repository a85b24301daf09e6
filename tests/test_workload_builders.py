"""Tests for footprint-matched request blocks, the memoised workload
builders, program helpers and probes."""

import gc
import hashlib
import math
import pickle
import weakref

import numpy as np
import pytest

from repro import paper
from repro.analysis.experiments import (
    figure4_sim_mode,
    information_ablation,
    table6_sim_mode,
)
from repro.analysis.export import (
    ablation_rows,
    figure4_rows,
    table6_rows,
    three_core_rows,
    to_json,
)
from repro.analysis.three_core import three_core_experiment
from repro.errors import WorkloadError
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.targets import Operation, Target
from repro.sim.program import concatenate, program_from_steps, repeat
from repro.sim.requests import MissKind, code_fetch, data_access
from repro.sim.system import run_isolation
from repro.sim.timing import tc27x_sim_timing
from repro.workloads import control_loop, loads
from repro.workloads.control_loop import (
    build_control_loop,
    split_code_misses,
    split_data_rw,
)
from repro.workloads.footprint import isolation_cycles
from repro.workloads.loads import build_load
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


def _clear_builder_memos():
    control_loop._control_loop_spec.cache_clear()
    loads._load_spec.cache_clear()


def _same_arrays(left, right):
    """Two compiled programs hold equal arrays, lists, table and gap."""
    assert np.array_equal(left.gaps, right.gaps)
    assert np.array_equal(left.request_ids, right.request_ids)
    assert left.gap_list == right.gap_list
    assert left.rid_list == right.rid_list
    assert left.requests == right.requests
    assert left.final_gap == right.final_gap


#: sha256 of the builders' specs, layouts and block-sharing patterns
#: (see test_builder_specs_are_pinned).
SPECS_DIGEST = (
    "d3b2ca46d75235b2617f97626337c40e3be69993ff4f93a92fd7e1ab3719ef8b"
)


def test_builder_specs_are_pinned():
    """The control loop's and the loads' specs stay what they are.

    Covers both scenarios at five scales, both task names and every load
    level: 50 specs.  Each contributes the ``repr`` of its blocks and of
    the control loop's layout, and which block objects it shares (the
    first index of each block object), so a change to the shared phase
    layout that moves a single request or block fails here.
    """
    digest = hashlib.sha256()

    def add(spec, layout):
        first: dict[int, int] = {}
        sharing = [
            first.setdefault(id(block), index)
            for index, block in enumerate(spec.blocks)
        ]
        digest.update(repr((spec, layout, sharing)).encode())

    for scenario in ("scenario1", "scenario2"):
        for scale in (1.0, 1 / 16, 1 / 32, 1 / 128, 1 / 1000):
            for name in ("app", "τa"):
                add(*control_loop._control_loop_spec(scenario, scale, name))
            for level in ("H", "M", "L"):
                add(loads._load_spec(scenario, level, scale), None)
    assert digest.hexdigest() == SPECS_DIGEST


class TestBuilderMemo:
    """The builders memoise specs, never programs or arrays."""

    def test_equal_calls_return_distinct_programs(self):
        first, first_layout = build_control_loop(scenario_2(), scale=1 / 64)
        second, second_layout = build_control_loop(scenario_2(), scale=1 / 64)
        assert first is not second
        assert first_layout == second_layout
        _same_arrays(first.compiled(), second.compiled())
        assert first.compiled() is not second.compiled()
        load_a = build_load("scenario2", "M", scale=1 / 64)
        load_b = build_load("scenario2", "M", scale=1 / 64)
        assert load_a is not load_b
        _same_arrays(load_a.compiled(), load_b.compiled())

    def test_memo_pins_no_arrays(self):
        program, _ = build_control_loop(scenario_1(), scale=1 / 64)
        load = build_load("scenario1", "H", scale=1 / 64)
        refs = [
            weakref.ref(array)
            for compiled in (program.compiled(), load.compiled())
            for array in (compiled.gaps, compiled.request_ids)
        ]
        del program, load
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4
        # The specs stay memoised.
        build_control_loop(scenario_1(), scale=1 / 64)
        assert control_loop._control_loop_spec.cache_info().hits >= 1

    @pytest.mark.parametrize("scenario_f", [scenario_1, scenario_2])
    @pytest.mark.parametrize("denominator", [2, 16, 128, 4096])
    def test_padded_program_equals_its_spec_compiled_afresh(
        self, scenario_f, denominator
    ):
        program, layout = build_control_loop(
            scenario_f(), scale=1 / denominator
        )
        shared = program.compiled()
        # The program's own builder, and a pickled copy, compile the
        # padded spec from scratch.
        _same_arrays(shared, program.array_builder())
        _same_arrays(shared, pickle.loads(pickle.dumps(program)).compiled())
        assert shared.final_gap == layout.epilogue_gap > 0

    @pytest.mark.parametrize("scenario_f", [scenario_1, scenario_2])
    @pytest.mark.parametrize(
        "denominator", [1, 2, 16, 32, 100, 128, 1000, 4096, 100_000]
    )
    def test_padding_falls_short_by_the_last_overlap(
        self, scenario_f, denominator
    ):
        scenario = scenario_f()
        scale = 1 / denominator
        try:
            program, layout = build_control_loop(scenario, scale=scale)
        except WorkloadError:
            assert scenario.name == "scenario2"  # misses exceed DMEM_STALL
            return
        target = math.ceil(paper.ISOLATION_CYCLES[scenario.name] * scale)
        compiled = program.compiled()
        body = isolation_cycles(compiled.with_final_gap(0))
        cycles = isolation_cycles(program)
        if not layout.epilogue_gap:
            assert cycles == body >= target
            return
        assert body + layout.epilogue_gap == target
        # The epilogue is a trailing gap, so the last request's pipeline
        # overlap hides up to that many of its cycles (see ROADMAP).
        timing = tc27x_sim_timing()
        last = compiled.requests[compiled.rid_list[-1]]
        overlap = timing.device(last.target).overlap(last)
        assert cycles == target - min(overlap, layout.epilogue_gap)

    @pytest.mark.parametrize(
        "artefact", ["table6", "figure4-sim", "three-core", "ablation"]
    )
    def test_artefact_rows_do_not_depend_on_the_memo(self, artefact):
        scale = 1 / 128
        run, flatten = {
            "table6": (lambda: table6_sim_mode(scale=scale), table6_rows),
            "figure4-sim": (
                lambda: figure4_sim_mode(scale=scale),
                figure4_rows,
            ),
            "three-core": (
                lambda: three_core_experiment("scenario1", scale=scale),
                three_core_rows,
            ),
            "ablation": (
                lambda: information_ablation(scale=scale),
                ablation_rows,
            ),
        }[artefact]
        _clear_builder_memos()
        cold = to_json(flatten(run()))
        hits = control_loop._control_loop_spec.cache_info().hits
        warm = to_json(flatten(run()))
        assert control_loop._control_loop_spec.cache_info().hits > hits
        assert warm == cold


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
