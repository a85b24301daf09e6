"""Tests for the execution engine: modes, ordering, caching, fallback."""

import pytest

from repro import paper
from repro.engine.batch import Job, as_jobs, job
from repro.engine.cache import ResultCache
from repro.engine.runner import ExperimentEngine, run_jobs
from repro.errors import EngineError
from repro.platform.deployment import scenario_1

# A cheap, picklable, module-level job function.
from repro.analysis.sweeps import _ilp_delta


def _solve_jobs(scales):
    readings_a = paper.table6("scenario1", "app")
    contender = paper.table6("scenario1", "H-Load")
    scenario = scenario_1()
    return [
        job(
            _ilp_delta,
            readings_a,
            contender.scaled(scale),
            scenario,
            label=f"x{scale:g}",
        )
        for scale in scales
    ]


class TestJob:
    def test_job_builder_and_run(self):
        item = job(max, 3, 5, label="max")
        assert item.run() == 5
        assert item.describe() == "max"

    def test_kwargs_are_order_insensitive(self):
        a = job(dict, a=1, b=2)
        b = job(dict, b=2, a=1)
        assert a.resolved_cache_key() == b.resolved_cache_key()
        assert a.run() == {"a": 1, "b": 2}

    def test_non_callable_rejected(self):
        with pytest.raises(EngineError):
            job("not-a-function")  # type: ignore[arg-type]

    def test_as_jobs_rejects_non_jobs(self):
        with pytest.raises(EngineError):
            as_jobs([job(max, 1, 2), "oops"])  # type: ignore[list-item]

    def test_explicit_cache_key_wins(self):
        item = Job(fn=max, args=(1, 2), cache_key="fixed")
        assert item.resolved_cache_key() == "fixed"


class TestEngineModes:
    def test_invalid_configuration(self):
        with pytest.raises(EngineError):
            ExperimentEngine(mode="fleet")
        with pytest.raises(EngineError):
            ExperimentEngine(workers=0)

    def test_run_jobs_defaults_to_serial(self):
        assert run_jobs([job(max, 1, 2), job(max, 3, 4)]) == [2, 4]

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_modes_agree_and_preserve_order(self, mode):
        scales = (0.25, 1.0, 2.0)
        serial = ExperimentEngine().run(_solve_jobs(scales))
        other = ExperimentEngine(mode=mode, workers=3).run(
            _solve_jobs(scales)
        )
        assert other == serial
        assert serial == sorted(serial)  # monotone in load ⇒ order kept

    def test_executed_counter(self):
        engine = ExperimentEngine()
        engine.run(_solve_jobs((0.5,)))
        assert engine.stats.executed == 1
        assert engine.stats.batches == 1


class TestEngineCache:
    def test_second_identical_batch_executes_nothing(self):
        engine = ExperimentEngine(cache=ResultCache())
        first = engine.run(_solve_jobs((0.5, 1.0)))
        assert engine.stats.executed == 2
        second = engine.run(_solve_jobs((0.5, 1.0)))
        assert second == first
        assert engine.stats.executed == 2  # zero re-executions
        assert engine.stats.cached == 2

    def test_cache_is_shared_across_engines(self):
        cache = ResultCache()
        ExperimentEngine(cache=cache).run(_solve_jobs((1.0,)))
        warm = ExperimentEngine(mode="process", workers=2, cache=cache)
        warm.run(_solve_jobs((1.0,)))
        assert warm.stats.executed == 0

    def test_uncacheable_jobs_always_run(self):
        engine = ExperimentEngine(cache=ResultCache())
        item = job(max, 1, 2, cacheable=False)
        assert engine.run([item]) == [2]
        assert engine.run([item]) == [2]
        assert engine.stats.executed == 2

    def test_duplicate_jobs_in_one_batch_execute_once(self):
        engine = ExperimentEngine(cache=ResultCache())
        results = engine.run(_solve_jobs((1.0, 1.0, 1.0)))
        assert results[0] == results[1] == results[2]
        assert engine.stats.executed == 1
        assert engine.stats.cached == 2

    def test_pool_is_reused_across_batches(self):
        with ExperimentEngine(mode="process", workers=2) as engine:
            engine.run([job(max, 1, 2), job(max, 3, 4)])
            pool = engine._executor
            engine.run([job(max, 5, 6), job(max, 7, 8)])
            assert engine._executor is pool
        assert engine._executor is None  # closed on exit

    def test_closure_arguments_degrade_to_uncached(self):
        engine = ExperimentEngine(cache=ResultCache())
        calls = []

        def probe():
            calls.append(1)
            return len(calls)

        # The closure cannot be content-addressed; the job still runs.
        assert engine.run([job(probe)]) == [1]
        assert engine.run([job(probe)]) == [2]


def _raise_value_error():
    raise ValueError("bad model input")


class TestJobExceptions:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_job_exceptions_propagate_in_every_mode(self, mode):
        engine = ExperimentEngine(mode=mode, workers=2)
        with pytest.raises(ValueError, match="bad model input"):
            engine.run([job(max, 1, 2), job(_raise_value_error)])

    def test_job_exception_is_not_a_pool_fallback(self):
        # A failing job must not demote the whole batch to serial
        # re-execution: it is the job's error, not the pool's.
        engine = ExperimentEngine(mode="process", workers=2)
        with pytest.raises(ValueError):
            engine.run([job(max, 1, 2), job(_raise_value_error)])
        assert engine.stats.fallbacks == 0


class TestProcessFallback:
    def test_unpicklable_jobs_fall_back_in_process_mode(self):
        engine = ExperimentEngine(mode="process", workers=2)
        calls = []

        def local_job():
            calls.append(1)
            return "ran-locally"

        results = engine.run([job(local_job)] + _solve_jobs((1.0,)))
        assert results[0] == "ran-locally"
        assert calls == [1]
        assert engine.stats.fallbacks >= 1
        assert engine.stats.executed == 2


class TestPooledSolves:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_pooled_batches_keep_result_order(self, mode):
        engine = ExperimentEngine(mode=mode, workers=2)
        jobs = [job(max, i, 100 - i) for i in range(8)]
        assert engine.run(jobs) == [max(i, 100 - i) for i in range(8)]

    def test_pooled_solves_match_serial(self):
        """Same-structure solves spread over two pool processes, each
        with its own warm pool, agree with one serial warm chain."""
        scenario = scenario_1()
        scales = (0.5, 1.0, 2.0)

        def solve_batch():
            return [
                job(
                    _ilp_delta,
                    paper.table6("scenario1", "app"),
                    paper.table6("scenario1", "H-Load").scaled(scale),
                    scenario,
                )
                for scale in scales
            ]

        serial = run_jobs(solve_batch())
        with ExperimentEngine(mode="process", workers=2) as engine:
            pooled = engine.run(solve_batch())
        assert pooled == serial
