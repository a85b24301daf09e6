"""The engine's remote-execution contract, on the service path.

Remote execution means the batch leaves the client process: it is
queued on a ``repro serve`` coordinator and leased by pull workers that
may run anywhere (engine ``mode="service"``).  Real in-process
coordinators and workers (HTTP servers and clients on loopback sockets,
not mocks) run real engine batches — Figure 4, the model × scenario
matrix, soundness sweeps — while the harness stops a worker holding a
lease or takes the whole service away mid-batch.  The contract under
test: the results (and the rendered artefacts) are byte-identical to
``mode="serial"``, and work that cannot go remote finishes in-process
and is counted once.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import pytest

from chaos_proxy import ChaosProxy, FaultPlan, FaultRule
from repro.analysis.experiments import (
    figure4_paper_mode,
    model_scenario_matrix,
)
from repro.analysis.export import matrix_artifact
from repro.analysis.report import render_artifact, render_figure4
from repro.analysis.validation import SoundnessSweep, random_soundness_jobs
from repro.engine import (
    EXECUTION_MODES,
    EngineStats,
    ExperimentEngine,
    ResultCache,
    get_scenario,
    run_jobs,
)
from repro.engine.batch import job
from repro.engine.remote.wire import PROTOCOL_VERSION
from repro.errors import EngineError
from repro.platform.deployment import scenario_1
from repro.service.client import (
    ServiceExecutor,
    coordinator_health,
    list_jobs,
    list_workers,
)
from repro.service.pull import PullWorker
from service_jobs import wait_workers

#: Small-but-real matrix slice: two specs x two models, scaled down.
MATRIX_MODELS = ("ftc-refined", "ilp-ptac")
MATRIX_SCALE = 1 / 16


def _matrix_specs():
    return [
        get_scenario("scenario1-pair-H").scaled(MATRIX_SCALE),
        get_scenario("scenario2-pair-L").scaled(MATRIX_SCALE),
    ]


class DyingPullWorker(PullWorker):
    """Leases one unit, then dies holding it: no completion, no further
    heartbeats — what a killed worker process looks like to the
    coordinator.  ``on_death`` runs once the worker is gone."""

    def __init__(self, *args, on_death=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.on_death = on_death
        self.abandoned: dict | None = None

    def _execute_grant(self, grant):
        self.abandoned = grant
        self._stop.set()
        if self.on_death is not None:
            self.on_death()


def _service_engine(coordinator):
    return ExperimentEngine(mode="service", coordinator_url=coordinator.url)


# ----------------------------------------------------------------------
# Healthy fleet parity: remote == serial, byte for byte
# ----------------------------------------------------------------------
class TestRemoteMatchesSerial:
    def test_figure4_paper_batch(self, service_fleet, capsys):
        """``--coordinator`` on a batch command renders the same bytes
        as the serial command."""
        from repro.cli import main

        assert main(["figure4"]) == 0
        serial_out = capsys.readouterr().out
        coordinator, _workers = service_fleet()
        assert main(["figure4", "--coordinator", coordinator.url]) == 0
        assert capsys.readouterr().out == serial_out
        # The batch really went through the queue.
        submitted = list_jobs(coordinator.url)
        assert submitted and all(entry["complete"] for entry in submitted)

    def test_matrix_batch(self, service_fleet):
        serial = model_scenario_matrix(
            models=MATRIX_MODELS, specs=_matrix_specs()
        )
        coordinator, _workers = service_fleet()
        engine = _service_engine(coordinator)
        remote = model_scenario_matrix(
            models=MATRIX_MODELS, specs=_matrix_specs(), engine=engine
        )
        assert remote == serial
        assert render_artifact(matrix_artifact(remote)) == render_artifact(
            matrix_artifact(serial)
        )
        assert engine.stats.fallbacks == 0

    def test_soundness_batch(self, service_fleet):
        jobs = random_soundness_jobs(scenario_1(), pairs=2, max_requests=300)
        serial = SoundnessSweep(tuple(run_jobs(jobs, None)))
        coordinator, _workers = service_fleet()
        engine = _service_engine(coordinator)
        remote = SoundnessSweep(tuple(run_jobs(jobs, engine)))
        assert remote == serial
        assert remote.all_sound
        assert engine.stats.fallbacks == 0

    def test_health_endpoint_reports_protocol_and_stats(self, service_fleet):
        # A short lease makes the worker heartbeat every 0.3 s.
        coordinator, [worker] = service_fleet(workers=1, lease_seconds=0.9)
        assert _service_engine(coordinator).run([job(max, 1, 2)]) == [2]
        health = coordinator_health(coordinator.url)
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["workers"] == 1
        # Heartbeats ship the worker's whole EngineStats record.
        expected = dataclasses.asdict(worker.stats)
        assert expected["batches"] == expected["executed"] == 1
        deadline = time.monotonic() + 10
        while True:
            [listed] = list_workers(coordinator.url)
            if listed["stats"] == expected:
                break
            assert time.monotonic() < deadline, f"no heartbeat: {listed}"
            time.sleep(0.02)  # repro: ignore[bare-sleep-loop] waits for the worker's next heartbeat
        assert set(listed["stats"]) == {
            field.name for field in dataclasses.fields(EngineStats)
        }


# ----------------------------------------------------------------------
# Fault injection: a worker dies holding a lease, or the service dies
# ----------------------------------------------------------------------
def _kill_one_worker_mid_batch(start_coordinator, start_pull, driver):
    """Run ``driver(engine)`` while the first worker dies holding a
    lease; a survivor joins once it is gone.  Returns the rows and the
    coordinator."""
    # A dead worker's lease expires after lease_seconds.
    coordinator = start_coordinator(lease_seconds=0.5)
    survivor = functools.partial(
        start_pull, coordinator.url, name="survivor"
    )
    dying = start_pull(
        coordinator.url,
        name="dying",
        cls=functools.partial(DyingPullWorker, on_death=survivor),
    )
    wait_workers(coordinator.url, 1)
    engine = _service_engine(coordinator)
    rows = driver(engine)
    assert dying.abandoned is not None
    assert engine.stats.fallbacks == 0  # the survivor absorbed the load
    return rows, coordinator


class TestFaultInjection:
    def test_worker_killed_mid_matrix_batch(
        self, start_coordinator, start_pull
    ):
        """Matrix through the service with a worker killed mid-batch
        still produces byte-identical artefacts."""
        serial = model_scenario_matrix(
            models=MATRIX_MODELS, specs=_matrix_specs()
        )
        remote, coordinator = _kill_one_worker_mid_batch(
            start_coordinator,
            start_pull,
            lambda engine: model_scenario_matrix(
                models=MATRIX_MODELS, specs=_matrix_specs(), engine=engine
            ),
        )
        assert remote == serial
        assert render_artifact(matrix_artifact(remote)) == render_artifact(
            matrix_artifact(serial)
        )
        shares = {
            worker["name"]: worker["completed_units"]
            for worker in list_workers(coordinator.url)
        }
        assert shares["dying"] == 0 and shares["survivor"] > 0

    def test_worker_killed_mid_figure4_batch(
        self, start_coordinator, start_pull
    ):
        serial = figure4_paper_mode()
        remote, _coordinator = _kill_one_worker_mid_batch(
            start_coordinator,
            start_pull,
            lambda engine: figure4_paper_mode(engine=engine),
        )
        assert remote == serial
        assert render_figure4(remote) == render_figure4(serial)

    def test_worker_killed_mid_soundness_batch(
        self, start_coordinator, start_pull
    ):
        jobs = random_soundness_jobs(scenario_1(), pairs=3, max_requests=300)
        serial = run_jobs(jobs, None)
        remote, _coordinator = _kill_one_worker_mid_batch(
            start_coordinator,
            start_pull,
            lambda engine: run_jobs(jobs, engine),
        )
        assert remote == serial

    def test_whole_pool_dead_falls_back_in_process(
        self, start_coordinator, start_pull
    ):
        """The coordinator dies mid-batch and stays down: past the
        unreachable grace the batch comes back and finishes in-process,
        every job counted once as a fallback."""
        coordinator = start_coordinator()
        start_pull(
            coordinator.url,
            cls=functools.partial(
                DyingPullWorker, on_death=coordinator.stop
            ),
        )
        wait_workers(coordinator.url, 1)
        engine = _service_engine(coordinator)
        # A short grace keeps the test fast; the default rides out a
        # coordinator restart.
        engine._service = ServiceExecutor(
            coordinator.url, unreachable_grace=0.3
        )
        rows = figure4_paper_mode(engine=engine)
        assert rows == figure4_paper_mode()
        assert engine.service_stats.abandoned == 1
        assert engine.service_stats.executed == 0
        assert engine.stats.fallbacks == engine.stats.executed > 0


# ----------------------------------------------------------------------
# Execution semantics
# ----------------------------------------------------------------------
def _raise_value_error():
    raise ValueError("bad model input")


def _raise_key_error_late(delay: float):
    time.sleep(delay)  # repro: ignore[bare-sleep-loop] makes this failure finish after a later-indexed one
    raise KeyError("missing reading")


class TestRemoteSemantics:
    def test_job_exceptions_propagate_and_are_not_worker_failures(
        self, service_fleet
    ):
        coordinator, _workers = service_fleet()
        engine = _service_engine(coordinator)
        with pytest.raises(ValueError, match="bad model input"):
            engine.run([job(max, 1, 2), job(_raise_value_error)])
        # The job's error, not the fleet's: nothing fell back, nobody
        # was quarantined, and the next batch runs remotely as usual.
        assert engine.stats.fallbacks == 0
        assert engine.service_stats.abandoned == 0
        assert coordinator.quarantined_workers == {}
        assert engine.run([job(max, 3, 4)]) == [4]
        assert engine.service_stats.executed == 2

    def test_lowest_indexed_job_error_wins_deterministically(
        self, service_fleet
    ):
        """Two failing jobs in different units on different workers:
        the raised error must be the lowest-indexed one — the same job
        serial execution surfaces — even though it finishes last."""
        coordinator, _workers = service_fleet()
        engine = _service_engine(coordinator)
        batch = [
            job(max, 1, 2),
            job(_raise_key_error_late, 0.3, cacheable=False),  # serial's
            job(max, 3, 4),
            job(_raise_value_error, cacheable=False),  # finishes first
        ]
        with pytest.raises(KeyError):
            engine.run(batch)

    def test_unpicklable_jobs_fall_back_in_process(self, service_fleet):
        coordinator, _workers = service_fleet()
        engine = _service_engine(coordinator)
        calls = []

        def local_job():
            calls.append(1)
            return "ran-locally"

        results = engine.run([job(local_job), job(max, 1, 2)])
        assert results == ["ran-locally", 2]
        assert calls == [1]
        assert engine.stats.fallbacks == 1
        assert engine.service_stats.executed == 1  # the picklable one

    def test_a_batch_downloads_its_results_once(self, service_fleet):
        """The executor polls the job's status and downloads its results
        once it is complete — never once per poll.  A zero-latency fault
        on every results GET counts the downloads."""
        coordinator, _workers = service_fleet()
        plan = FaultPlan(
            [
                FaultRule(
                    "latency",
                    path="/results",
                    method="GET",
                    latency=0.0,
                    times=None,
                )
            ]
        )
        proxy = ChaosProxy(coordinator.url, plan=plan).start()
        try:
            engine = ExperimentEngine(
                mode="service", coordinator_url=proxy.url
            )
            assert figure4_paper_mode(engine=engine) == figure4_paper_mode()
        finally:
            proxy.stop()
        batches = engine.service_stats.batches
        assert batches >= 1 and engine.stats.fallbacks == 0
        assert len(plan.injections) == batches

    def test_single_job_batches_still_go_remote(self, service_fleet):
        coordinator, workers = service_fleet()
        engine = _service_engine(coordinator)
        assert engine.run([job(max, 7, 8)]) == [8]
        assert engine.service_stats.batches == 1
        assert engine.service_stats.executed == 1
        assert sum(worker.stats.executed for worker in workers) == 1

    def test_workers_dedupe_through_a_shared_disk_cache(
        self, start_coordinator, start_pull, tmp_path
    ):
        coordinator = start_coordinator()
        cache = ResultCache(directory=tmp_path / "cache")
        workers = [
            start_pull(coordinator.url, name=name, cache=cache)
            for name in ("a", "b")
        ]
        wait_workers(coordinator.url, 2)
        engine = _service_engine(coordinator)
        batch = lambda: [  # noqa: E731
            job(pow, 2, exponent, label=f"pow:{exponent}")
            for exponent in range(5)
        ]
        results = engine.run(batch())
        assert sum(w.stats.executed for w in workers) == len(results)

        # The resubmitted batch is answered from the fleet's shared
        # cache: the keys travelled with the jobs.
        assert engine.run(batch()) == results
        assert sum(w.stats.executed for w in workers) == len(results)
        assert sum(w.stats.cached for w in workers) == len(results)
        # Each job counts once, in the service executor and the engine
        # alike: run the first time, cached the second.
        for stats in (engine.service_stats, engine.stats):
            assert stats.executed == stats.cached == len(results)

    def test_engine_validates_remote_configuration(self):
        assert EXECUTION_MODES == ("serial", "process", "service")
        for mode in ("remote", "thread"):
            with pytest.raises(EngineError) as excinfo:
                ExperimentEngine(mode=mode)
            for known in EXECUTION_MODES:
                assert repr(known) in str(excinfo.value)
