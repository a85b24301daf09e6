"""The analysis service under test: parity, faults, durability.

Real coordinators (HTTP servers over file-backed sqlite stores) and real
pull workers run real engine batches, while the harness kills workers
mid-lease and restarts the coordinator mid-job.  The contract: whatever
fails, every submitted job completes exactly once per lease fence, and
the results — and rendered artefacts — are byte-identical to
``mode="serial"``.
"""

from __future__ import annotations

import math
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
from concurrent.futures import ThreadPoolExecutor, as_completed

import pytest

from repro.analysis.experiments import figure4_paper_mode
from repro.analysis.report import render_figure4
from repro.engine import ExperimentEngine, ResultCache
from repro.engine.batch import job
from repro.engine.remote.wire import (
    WireResult,
    decode_document,
    encode_document,
    encode_unit_result,
)
from repro.errors import EngineError
from repro.service import client
from repro.service.client import (
    job_status,
    list_jobs,
    list_workers,
    submit_jobs,
    wait_for_job,
)
from repro.service.coordinator import (
    COMPLETE_PATH,
    LEASE_PATH,
    LEASE_REQUEST_KIND,
    UNIT_ACCEPTED_KIND,
    CoordinatorServer,
    _CoordinatorHandler,
)
from repro.service.pull import LEASE_WAIT_SECONDS, PullWorker
from repro.service.store import (
    DONE,
    LEASE_HORIZON_SECONDS,
    LEASED,
    QUEUED,
    JobStore,
    UnitSpec,
)
from service_jobs import collect, slow_jobs, upload_malformed, wait_workers


def _boom(message: str) -> None:
    raise ValueError(message)


# ----------------------------------------------------------------------
# The store: leasing, fencing, durability (no HTTP involved)
# ----------------------------------------------------------------------
class TestJobStore:
    def _submit_one(self, store, units=1):
        specs = [
            UnitSpec(entries=[{"payload": f"p{i}"}], indices=[i])
            for i in range(units)
        ]
        return store.submit(specs, label="t")

    def test_lease_bumps_fence_and_complete_matches_it(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        job_id = self._submit_one(store)
        fence, entries, indices = store.lease(job_id, 0, "w1", time.monotonic() + 30)
        assert fence == 1 and indices == [0]
        assert entries == [{"payload": "p0"}]
        assert store.complete(job_id, 0, fence, [{"ok": True}])
        # Idempotence: a second completion of a done unit is refused.
        assert not store.complete(job_id, 0, fence, [{"ok": True}])
        assert store.job(job_id).complete

    def test_stale_fence_rejected_after_reclaim(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        job_id = self._submit_one(store)
        stale_fence, _, _ = store.lease(job_id, 0, "w1", time.monotonic() - 1)
        assert store.reclaim_expired() == [(job_id, 0)]
        fresh_fence, _, _ = store.lease(job_id, 0, "w2", time.monotonic() + 30)
        # Bumped by the reclaim and again by the new lease.
        assert fresh_fence > stale_fence
        # The dead worker's late completion must not land...
        assert not store.complete(job_id, 0, stale_fence, [{"ok": True}])
        assert store.job(job_id).done == 0
        # ...while the current leaseholder's does.
        assert store.complete(job_id, 0, fresh_fence, [{"ok": True}])

    def test_leased_unit_not_leasable_twice(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        job_id = self._submit_one(store)
        assert store.lease(job_id, 0, "w1", time.monotonic() + 30)
        assert store.lease(job_id, 0, "w2", time.monotonic() + 30) is None

    def test_renew_extends_only_owned_leases(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        job_id = self._submit_one(store, units=2)
        store.lease(job_id, 0, "w1", time.monotonic() + 0.05)
        store.lease(job_id, 1, "w2", time.monotonic() + 0.05)
        assert store.renew_leases("w1", time.monotonic() + 30) == 1
        time.sleep(0.06)  # repro: ignore[bare-sleep-loop] test waits out a real lease expiry
        assert store.reclaim_expired() == [(job_id, 1)]

    def test_reclaim_treats_far_future_expiry_as_expired(self, tmp_path):
        # A lease expiry stamped by a previous boot's monotonic clock can
        # read as absurdly far in the future after a restart (monotonic
        # clocks reset at boot); the horizon guard reclaims such leases
        # instead of pinning their units forever.
        store = JobStore(tmp_path / "q.sqlite")
        job_id = self._submit_one(store)
        store.lease(
            job_id,
            0,
            "w1",
            time.monotonic() + LEASE_HORIZON_SECONDS + 60.0,
        )
        assert store.reclaim_expired() == [(job_id, 0)]
        # A sane expiry inside the horizon is left alone.
        store.lease(job_id, 0, "w2", time.monotonic() + 30.0)
        assert store.reclaim_expired() == []

    def test_precompleted_unit_is_born_done(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        job_id = store.submit(
            [
                UnitSpec(
                    entries=[{"payload": "p"}],
                    indices=[0],
                    result=[{"ok": True, "payload": "r"}],
                )
            ]
        )
        record = store.job(job_id)
        assert record.complete and record.done == 1
        assert store.oldest_queued_unit() is None

    def test_state_survives_reopen(self, tmp_path):
        path = tmp_path / "q.sqlite"
        store = JobStore(path)
        job_id = store.submit(
            [
                UnitSpec(entries=[{"payload": "a"}], indices=[0]),
                UnitSpec(entries=[{"payload": "b"}], indices=[1]),
                UnitSpec(entries=[{"payload": "c"}], indices=[2]),
            ],
            label="durable",
            meta={"jobset": "x"},
        )
        fence, _, _ = store.lease(job_id, 0, "w1", time.monotonic() + 30)
        store.complete(job_id, 0, fence, [{"ok": True}])
        live_fence, _, _ = store.lease(job_id, 1, "w1", time.monotonic() + 30)
        store.close()

        reopened = JobStore(path)
        record = reopened.job(job_id)
        assert record.label == "durable" and record.meta == {"jobset": "x"}
        assert (record.done, record.leased, record.queued) == (1, 1, 1)
        states = {u.unit_index: u.state for u in reopened.units(job_id)}
        assert states == {0: DONE, 1: LEASED, 2: QUEUED}
        # The live lease survived the restart: the original fence is
        # still the one a completion must present.
        assert reopened.complete(job_id, 1, live_fence, [{"ok": True}])
        reopened.close()


# ----------------------------------------------------------------------
# Parity: a submitted job equals serial execution, byte for byte
# ----------------------------------------------------------------------
class TestServiceMatchesSerial:
    def test_figure4_through_mode_service(
        self, start_coordinator, start_pull
    ):
        serial = figure4_paper_mode()
        coordinator = start_coordinator()
        start_pull(coordinator.url, name="alpha")
        start_pull(coordinator.url, name="beta")
        wait_workers(coordinator.url, 2)
        engine = ExperimentEngine(
            mode="service", coordinator_url=coordinator.url
        )
        rows = figure4_paper_mode(engine=engine)
        assert rows == serial
        assert render_figure4(rows) == render_figure4(serial)
        assert engine.stats.fallbacks == 0
        assert engine.service_stats.executed == len(serial)

    def test_two_registered_workers_share_one_job(
        self, start_coordinator, start_pull, tmp_path
    ):
        log = tmp_path / "runs.log"
        coordinator = start_coordinator()
        start_pull(coordinator.url, name="alpha")
        start_pull(coordinator.url, name="beta")
        wait_workers(coordinator.url, 2)
        job_id = submit_jobs(
            coordinator.url, slow_jobs(log), label="spread"
        )
        wait_for_job(coordinator.url, job_id, poll=0.05, timeout=30)
        results = collect(coordinator.url, job_id, 6)
        assert results == [f"unit{i}" for i in range(6)]
        # Every unit ran exactly once...
        assert sorted(log.read_text().split()) == sorted(
            f"unit{i}" for i in range(6)
        )
        # ...and both auto-registered workers took part.
        shares = {
            worker["name"]: worker["completed_units"]
            for worker in list_workers(coordinator.url)
        }
        assert shares["alpha"] >= 1 and shares["beta"] >= 1
        assert shares["alpha"] + shares["beta"] == 6

    def test_submitted_job_survives_client_disconnect(
        self, start_coordinator, start_pull, tmp_path
    ):
        # Fire-and-forget: nothing polls while the job executes.
        log = tmp_path / "runs.log"
        coordinator = start_coordinator()
        start_pull(coordinator.url)
        wait_workers(coordinator.url, 1)
        job_id = submit_jobs(
            coordinator.url, slow_jobs(log, count=3), label="detached"
        )
        time.sleep(1.0)  # no client in the loop at all  # repro: ignore[bare-sleep-loop] test waits out a real lease expiry
        status = job_status(coordinator.url, job_id)
        assert status["complete"]
        assert collect(coordinator.url, job_id, 3) == [
            "unit0", "unit1", "unit2",
        ]


# ----------------------------------------------------------------------
# Worker loss: heartbeat-expired leases are re-queued and fenced
# ----------------------------------------------------------------------
class TestWorkerLoss:
    def test_dead_worker_lease_reassigned_and_fenced(
        self, start_coordinator, start_pull, tmp_path
    ):
        log = tmp_path / "runs.log"
        coordinator = start_coordinator(lease_seconds=0.4)
        # A worker that leases a unit and silently dies: register and
        # lease by hand, never execute, never heartbeat.
        crasher = PullWorker(coordinator.url, name="crasher")
        crasher.register()
        assert crasher._lease() is None  # empty queue: no grant
        job_id = submit_jobs(
            coordinator.url, slow_jobs(log, count=4), label="loss"
        )
        grant = crasher._lease()
        assert grant is not None and not grant.get("unregistered")
        # Now the survivor appears; the crashed lease expires and its
        # unit is re-leased (fence bumped) to the survivor.
        start_pull(coordinator.url, name="survivor")
        wait_for_job(coordinator.url, job_id, poll=0.05, timeout=30)
        assert collect(coordinator.url, job_id, 4) == [
            f"unit{i}" for i in range(4)
        ]
        assert sorted(log.read_text().split()) == sorted(
            f"unit{i}" for i in range(4)
        )
        # The dead worker's late completion is refused by its stale fence.
        body = crasher._post(
            COMPLETE_PATH,
            encode_unit_result(
                worker_id=crasher.worker_id,
                job_id=grant["job_id"],
                unit=grant["unit"],
                fence=grant["fence"],
                results=[
                    WireResult(ok=True, value="forged")
                    for _ in grant["jobs"]
                ],
            ),
        )
        answer = decode_document(body, UNIT_ACCEPTED_KIND)
        assert answer["accepted"] is False
        # And the recorded results are the survivor's, not the forgery.
        results = collect(coordinator.url, job_id, 4)
        assert "forged" not in results


    def test_lost_lease_answer_is_regranted_at_once(
        self, start_coordinator, tmp_path
    ):
        """A grant lost in transit leaves its unit leased to a worker
        that never saw it.  A worker holds one unit at a time, so its
        next lease request re-queues that unit and is granted it again,
        instead of its heartbeats renewing a lease nobody works on."""
        coordinator = start_coordinator()
        worker = PullWorker(coordinator.url, name="unlucky")
        worker.register()
        job_id = submit_jobs(
            coordinator.url,
            slow_jobs(tmp_path / "runs.log", count=2, delay=0.0),
            label="lost-lease",
        )
        lost = worker._lease()  # the answer that never arrives
        regrant = worker._lease()
        assert (regrant["job_id"], regrant["unit"]) == (job_id, lost["unit"])
        # One fence bump for the re-queue, one for the new lease.
        assert regrant["fence"] == lost["fence"] + 2
        assert worker._heartbeat()
        leased = [
            (view.unit_index, view.fence)
            for view in coordinator.store.units(job_id)
            if view.state == LEASED
        ]
        assert leased == [(regrant["unit"], regrant["fence"])]
        results = [WireResult(ok=True, value="done")]
        assert worker._complete(lost, results) is False
        assert worker._complete(regrant, results) is True


# ----------------------------------------------------------------------
# Coordinator crash-restart durability
# ----------------------------------------------------------------------
class TestCoordinatorRestart:
    def test_restart_recovers_queue_without_double_running(
        self, request, tmp_path
    ):
        log = tmp_path / "runs.log"
        store_path = tmp_path / "queue.sqlite"
        store = JobStore(store_path)
        coordinator = CoordinatorServer(
            store=store, lease_seconds=30.0
        ).start()
        port = coordinator.server_address[1]
        worker = PullWorker(
            coordinator.url, name="steady", idle_poll=0.02
        ).start()
        request.addfinalizer(worker.stop)
        wait_workers(coordinator.url, 1)

        job_id = submit_jobs(
            coordinator.url,
            slow_jobs(log, count=6, delay=0.15),
            label="durable",
        )
        # Let some units finish, then kill the coordinator mid-job
        # (worker mid-execution included).
        deadline = time.monotonic() + 20
        while job_status(coordinator.url, job_id)["done"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.02)  # repro: ignore[bare-sleep-loop] worker deliberately stalls mid-job
        coordinator.stop()
        store.close()

        # Restart on the same state file and the same port.
        restarted_store = JobStore(store_path)
        restarted = CoordinatorServer(
            port=port, store=restarted_store, lease_seconds=30.0
        ).start()
        request.addfinalizer(restarted.stop)
        request.addfinalizer(restarted_store.close)

        status = job_status(restarted.url, job_id)
        assert status["done"] >= 2  # completed units recovered
        assert status["total_units"] == 6  # queued units recovered

        wait_for_job(restarted.url, job_id, poll=0.05, timeout=30)
        assert collect(restarted.url, job_id, 6) == [
            f"unit{i}" for i in range(6)
        ]
        # Lease fencing + durable leases: despite the crash, restart and
        # worker re-registration, no unit executed twice.
        assert sorted(log.read_text().split()) == sorted(
            f"unit{i}" for i in range(6)
        )


# ----------------------------------------------------------------------
# Coordinator-side cache dedupe
# ----------------------------------------------------------------------
class TestCoordinatorCache:
    def test_repeat_submission_answered_without_workers(
        self, start_coordinator, start_pull, tmp_path
    ):
        log = tmp_path / "runs.log"
        cache = ResultCache(directory=tmp_path / "cache")
        coordinator = start_coordinator(cache=cache)
        start_pull(coordinator.url, name="only")
        wait_workers(coordinator.url, 1)
        first = submit_jobs(coordinator.url, slow_jobs(log), label="one")
        wait_for_job(coordinator.url, first, poll=0.05, timeout=30)
        executed_once = log.read_text().split()

        # Same batch again: every unit is born done at submission.
        second = submit_jobs(coordinator.url, slow_jobs(log), label="two")
        status = job_status(coordinator.url, second)
        assert status["complete"] and status["queued"] == 0
        assert collect(coordinator.url, second, 6) == collect(
            coordinator.url, first, 6
        )
        assert log.read_text().split() == executed_once  # nothing re-ran


# ----------------------------------------------------------------------
# Error propagation and executor fallback
# ----------------------------------------------------------------------
class TestServiceErrors:
    def test_job_error_propagates_lowest_index_first(
        self, start_coordinator, start_pull
    ):
        coordinator = start_coordinator()
        start_pull(coordinator.url)
        wait_workers(coordinator.url, 1)
        engine = ExperimentEngine(
            mode="service", coordinator_url=coordinator.url
        )
        batch = [
            job(max, 1, 2, label="fine"),
            job(_boom, "first", label="boom1", cacheable=False),
            job(_boom, "second", label="boom2", cacheable=False),
        ]
        with pytest.raises(ValueError, match="first"):
            engine.run(batch)

    def test_unreachable_coordinator_falls_back_to_serial(self):
        engine = ExperimentEngine(
            mode="service", coordinator_url="http://127.0.0.1:9"
        )
        results = engine.run([job(max, 1, 2), job(max, 3, 4)])
        assert results == [2, 4]
        assert engine.stats.fallbacks == 2

    def test_engine_validates_coordinator_url(self):
        with pytest.raises(EngineError, match="mode='service'"):
            ExperimentEngine(mode="service")
        with pytest.raises(EngineError, match="coordinator_url"):
            ExperimentEngine(mode="serial", coordinator_url="http://x")

    def test_wait_timeout_holds_while_the_coordinator_is_unreachable(self):
        """The deadline is checked on every poll, answered or not: a
        dead coordinator cannot stretch a 0.3 s timeout into the
        unreachable grace."""
        started = time.monotonic()
        with pytest.raises(EngineError, match="not complete after 0.3s"):
            wait_for_job(
                "http://127.0.0.1:1",
                "x",
                poll=0.05,
                timeout=0.3,
                unreachable_grace=5,
            )
        assert time.monotonic() - started < 2.0

    @pytest.mark.parametrize("answered", [False, True])
    def test_wait_sleeps_are_clipped_to_the_timeout(
        self, monkeypatch, answered
    ):
        """A poll interval longer than the timeout sleeps only up to the
        deadline, so ``repro watch --poll 5 --timeout 1`` gives up after
        1 s, whether the coordinator answers or not."""

        class FakeTime:
            now = 0.0
            slept: list[float] = []

            @classmethod
            def monotonic(cls) -> float:
                return cls.now

            @classmethod
            def sleep(cls, seconds: float) -> None:
                cls.slept.append(seconds)
                cls.now += seconds

        def status(url, job_id):
            if not answered:
                raise ConnectionRefusedError("coordinator down")
            return {"done": 0, "total_units": 3}

        monkeypatch.setattr(client, "time", FakeTime)
        monkeypatch.setattr(client, "job_status", status)
        with pytest.raises(EngineError, match="not complete after 1s"):
            wait_for_job("http://127.0.0.1:1", "x", poll=5, timeout=1)
        assert FakeTime.slept == [1.0]
        assert FakeTime.now == 1.0


# ----------------------------------------------------------------------
# Worker counters surfaced through the coordinator
# ----------------------------------------------------------------------
class TestWorkerCounters:
    def test_heartbeat_ships_execution_stats(
        self, start_coordinator, start_pull, tmp_path
    ):
        log = tmp_path / "runs.log"
        coordinator = start_coordinator(lease_seconds=0.9)
        start_pull(coordinator.url, name="counted")
        wait_workers(coordinator.url, 1)
        job_id = submit_jobs(coordinator.url, slow_jobs(log, count=3))
        wait_for_job(coordinator.url, job_id, poll=0.05, timeout=30)
        deadline = time.monotonic() + 10
        while True:
            [worker] = list_workers(coordinator.url)
            stats = worker.get("stats") or {}
            if stats.get("executed", 0) >= 3:
                break
            assert time.monotonic() < deadline, f"stats never arrived: {worker}"
            time.sleep(0.05)  # repro: ignore[bare-sleep-loop] worker deliberately stalls mid-job
        assert worker["name"] == "counted" and worker["live"]
        assert worker["completed_units"] == 3
        assert stats["batches"] >= 3
        assert "cached" in stats


# ----------------------------------------------------------------------
# The CLI: submit / status / watch / jobs against a live coordinator
# ----------------------------------------------------------------------
#: Queued command lines covering every submittable command: each must
#: render through `repro watch` exactly as the direct command prints it.
_QUEUED_COMMANDS = {
    "figure4": ["figure4"],
    "figure4-ilp-models": [
        "figure4",
        "--model", "ilp-ptac-multi",
        "--model", "ilp-ptac-tc",
        "--model", "ilp-ptac",
    ],
    "matrix": [
        "matrix",
        "--spec", "scenario1-pair-H",
        "--spec", "scenario1-pair-L",
        "--model", "ilp-ptac",
    ],
    "soundness": ["soundness", "--pairs", "2"],
    "family-descriptor-models": [
        "family", "dma-pressure",
        "--model", "dma-occupancy",
        "--model", "dma-rr-alignment",
        "--member", "dma-pressure/scenario1-qd1-p24-c8000",
    ],
    "family-matrix": [
        "family", "cacheability",
        "--matrix",
        "--member", "cacheability/co-pf0-da-pf1-c",
    ],
    "family-default": [
        "family", "dma-pressure",
        "--member", "dma-pressure/scenario1-qd1-p24-c8000",
        "--member", "dma-pressure/scenario1-qd8-p2-c8000",
    ],
}


class TestServiceCli:
    def _run(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def _submit(self, capsys, url, *argv):
        out = self._run(capsys, "submit", "--coordinator", url, *argv)
        assert out.startswith("submitted ")
        return out.split()[4]

    @pytest.mark.parametrize(
        "argv", list(_QUEUED_COMMANDS.values()), ids=list(_QUEUED_COMMANDS)
    )
    def test_submit_watch_renders_identical_artifact(
        self, capsys, tmp_path, start_coordinator, start_pull, argv
    ):
        name = argv[0]
        exports = name != "soundness"
        serial_out = self._run(capsys, *argv)
        if exports:
            serial_export = tmp_path / "serial.json"
            self._run(capsys, *argv, "--export", str(serial_export))
        coordinator = start_coordinator()
        start_pull(coordinator.url, name="cli-a")
        start_pull(coordinator.url, name="cli-b")
        wait_workers(coordinator.url, 2)

        job_id = self._submit(capsys, coordinator.url, *argv)
        watched = self._run(
            capsys, "watch", job_id, "--coordinator", coordinator.url
        )
        # The artefact a queued job renders is byte-identical to the
        # direct command's, on stdout and through --export.
        assert watched == serial_out
        if exports:
            watched_export = tmp_path / "watched.json"
            self._run(
                capsys, "watch", job_id, "--coordinator", coordinator.url,
                "--export", str(watched_export),
            )
            assert watched_export.read_bytes() == serial_export.read_bytes()

        status_out = self._run(
            capsys, "status", job_id, "--coordinator", coordinator.url
        )
        assert f"job {job_id} [{name}] complete" in status_out
        assert "unit" in status_out

        jobs_out = self._run(
            capsys, "jobs", "--coordinator", coordinator.url
        )
        assert job_id in jobs_out and "complete" in jobs_out

        workers_out = self._run(
            capsys, "jobs", "--coordinator", coordinator.url, "--workers"
        )
        assert "cli-a" in workers_out and "cli-b" in workers_out
        assert "executed" in workers_out and "cached" in workers_out

    def test_job_queued_with_the_stored_meta_shape_renders(
        self, capsys, service_fleet
    ):
        """Jobs carry ``{"jobset": NAME, "argv": [...]}``; one queued by
        any client in that shape renders like the direct command."""
        from repro.engine import family_jobs

        member = "dma-pressure/scenario1-qd1-p24-c8000"
        argv = ["dma-pressure", "--model", "dma-occupancy", "--member", member]
        serial_out = self._run(capsys, "family", *argv)
        coordinator, _ = service_fleet()
        job_id = submit_jobs(
            coordinator.url,
            family_jobs(
                "dma-pressure", models=["dma-occupancy"], members=[member]
            ),
            label="family",
            meta={"jobset": "family", "argv": argv},
        )
        watched = self._run(
            capsys, "watch", job_id, "--coordinator", coordinator.url
        )
        assert watched == serial_out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table6"], "'table6' is not a single-batch command"),
            (["figure4", "--mode", "sim"], "two phases"),
            (["figure4", "--jobs", "2"], "--jobs cannot be queued"),
            (["matrix", "--cache-dir", "cache"], "--cache-dir cannot be"),
            (
                ["soundness", "--coordinator", "http://127.0.0.1:1"],
                "--coordinator cannot be",
            ),
        ],
        ids=["not-a-batch", "sim-mode", "jobs", "cache-dir", "coordinator"],
    )
    def test_submit_refuses_what_cannot_be_queued(
        self, capsys, start_coordinator, argv, message
    ):
        from repro.cli import main

        coordinator = start_coordinator()
        assert main(["submit", "--coordinator", coordinator.url, *argv]) == 2
        assert message in capsys.readouterr().err
        assert list_jobs(coordinator.url) == []

    def test_watch_export_refused_when_the_command_has_none(
        self, capsys, tmp_path, service_fleet
    ):
        from repro.cli import main

        coordinator, _ = service_fleet()
        job_id = self._submit(
            capsys, coordinator.url, "soundness", "--pairs", "1"
        )
        path = tmp_path / "soundness.json"
        assert main(
            [
                "watch", job_id, "--coordinator", coordinator.url,
                "--export", str(path),
            ]
        ) == 2
        assert "`repro soundness` has no --export" in capsys.readouterr().err
        assert not path.exists()

    def test_submit_list_names_every_job_set(self, capsys):
        out = self._run(capsys, "submit", "--list")
        for name in ("figure4", "matrix", "family", "soundness"):
            assert name in out

    def test_service_commands_require_coordinator(self, capsys):
        from repro.cli import main

        assert main(["status", "deadbeef"]) != 0
        err = capsys.readouterr().err
        assert "--coordinator" in err

    @pytest.mark.parametrize(
        "argv",
        [["status", "abc"], ["jobs"], ["watch", "abc", "--timeout", "0.5"]],
        ids=["status", "jobs", "watch"],
    )
    def test_unreachable_coordinator_is_one_error_line(self, capsys, argv):
        from repro.cli import main

        url = "http://127.0.0.1:1"
        assert main([*argv, "--coordinator", url]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("repro: error: ") and url in line


# ----------------------------------------------------------------------
# Waiting leases: an idle worker's lease request blocks on the
# coordinator until a unit is leasable.  Synchronised on threads and
# events: a test learns that a lease is waiting from the coordinator's
# condition, never from a sleep.
# ----------------------------------------------------------------------
class _ReportingCondition(threading.Condition):
    """The coordinator's lease condition, releasing :attr:`sleeps` once
    per waiting lease that goes to sleep on it."""

    def __init__(self, lock):
        super().__init__(lock)
        self.sleeps = threading.Semaphore(0)

    def wait(self, timeout=None):
        self.sleeps.release()
        return super().wait(timeout)


def _watch_leases(coordinator) -> _ReportingCondition:
    condition = _ReportingCondition(coordinator._lock)
    coordinator._leasable = condition
    return condition


def _asleep(condition) -> None:
    """Block until one more waiting lease has gone to sleep."""
    assert condition.sleeps.acquire(timeout=10), "no lease waited"


def _registered(url, name):
    worker = PullWorker(url, name=name)
    worker.register()
    return worker


@pytest.fixture
def background():
    """A thread pool for lease requests that block."""
    pool = ThreadPoolExecutor(max_workers=2)
    yield pool
    pool.shutdown(wait=False, cancel_futures=True)


class TestWaitingLease:
    def test_waiting_lease_is_granted_when_a_batch_is_submitted(
        self, start_coordinator, background, tmp_path
    ):
        coordinator = start_coordinator()
        leases = _watch_leases(coordinator)
        worker = _registered(coordinator.url, "idle")
        pending = background.submit(worker._lease, 30.0)
        _asleep(leases)
        assert not pending.done()
        job_id = submit_jobs(
            coordinator.url, slow_jobs(tmp_path / "runs.log", count=2)
        )
        grant = pending.result(timeout=5)
        assert (grant["job_id"], grant["unit"], grant["fence"]) == (
            job_id, 0, 1,
        )

    def test_waiting_lease_on_an_idle_queue_runs_out_waited(
        self, start_coordinator
    ):
        coordinator = start_coordinator()
        worker = _registered(coordinator.url, "idle")
        started = time.monotonic()
        assert worker._lease(0.05) == {"waited": True}
        assert time.monotonic() - started >= 0.05
        assert worker._lease(0) == {"waited": True}

    def test_lease_without_wait_is_answered_at_once(
        self, start_coordinator
    ):
        coordinator = start_coordinator()
        worker = _registered(coordinator.url, "old")
        # The empty answer of a coordinator that did not hold the
        # request: no "waited" marker, so the worker paces itself.
        assert worker._lease() is None

    def test_wait_that_is_not_a_finite_non_negative_number_is_refused(
        self, start_coordinator
    ):
        coordinator = start_coordinator()
        worker = _registered(coordinator.url, "bad")
        for wait in (-1, -0.5, math.nan, math.inf, -math.inf, "soon", True,
                     [1], 10**400):
            body = encode_document(
                LEASE_REQUEST_KIND,
                {"worker_id": worker.worker_id, "wait": wait},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                worker._post(LEASE_PATH, body)
            assert excinfo.value.code == 400, wait
            message = excinfo.value.read()
            assert b"lease wait must be a finite number" in message, wait

    def test_fence_rejected_completion_wakes_a_waiting_lease(
        self, start_coordinator, background, tmp_path
    ):
        coordinator = start_coordinator()
        leases = _watch_leases(coordinator)
        mangler = _registered(coordinator.url, "mangler")
        job_id = submit_jobs(
            coordinator.url, slow_jobs(tmp_path / "runs.log", count=1)
        )
        grant = mangler._lease()
        honest = _registered(coordinator.url, "honest")
        pending = background.submit(honest._lease, 30.0)
        _asleep(leases)
        upload_malformed(mangler, grant, grant["fence"])
        regrant = pending.result(timeout=5)
        assert (regrant["job_id"], regrant["unit"]) == (job_id, 0)
        assert regrant["fence"] == grant["fence"] + 2

    def test_quarantine_eviction_wakes_a_waiting_lease(
        self, start_coordinator, background, tmp_path
    ):
        coordinator = start_coordinator()
        coordinator.quarantine_limit = 1
        leases = _watch_leases(coordinator)
        saboteur = _registered(coordinator.url, "saboteur")
        job_id = submit_jobs(
            coordinator.url, slow_jobs(tmp_path / "runs.log", count=1)
        )
        grant = saboteur._lease()
        honest = _registered(coordinator.url, "honest")
        pending = background.submit(honest._lease, 30.0)
        _asleep(leases)
        # A stale fence re-queues nothing itself: only the eviction it
        # triggers releases the saboteur's live lease.
        upload_malformed(saboteur, grant, grant["fence"] - 1)
        assert saboteur.worker_id in coordinator.quarantined_workers
        regrant = pending.result(timeout=5)
        assert (regrant["job_id"], regrant["unit"]) == (job_id, 0)

    def test_lease_expiry_wakes_a_waiting_lease(
        self, start_coordinator, background, tmp_path
    ):
        coordinator = start_coordinator(lease_seconds=30.0)
        leases = _watch_leases(coordinator)
        crasher = _registered(coordinator.url, "crasher")
        job_id = submit_jobs(
            coordinator.url, slow_jobs(tmp_path / "runs.log", count=1)
        )
        grant = crasher._lease()  # then silence: no heartbeat, no upload
        # The crasher's lease has 0.2 s left: far less than a lease
        # period or the survivor's wait, so only a wake-up at the
        # earliest expiry re-leases the unit in time.
        expiry = time.monotonic() + 0.2
        coordinator.store.renew_leases(crasher.worker_id, expiry)
        survivor = _registered(coordinator.url, "survivor")
        pending = background.submit(survivor._lease, 30.0)
        _asleep(leases)
        regrant = pending.result(timeout=5)
        assert time.monotonic() >= expiry
        assert (regrant["job_id"], regrant["unit"]) == (job_id, 0)
        assert regrant["fence"] == grant["fence"] + 2

    def test_waiting_lease_of_an_evicted_worker_is_unregistered(
        self, start_coordinator, background, tmp_path
    ):
        coordinator = start_coordinator()
        coordinator.quarantine_limit = 1
        leases = _watch_leases(coordinator)
        holder = _registered(coordinator.url, "holder")
        submit_jobs(coordinator.url, slow_jobs(tmp_path / "runs.log", count=1))
        grant = holder._lease()
        saboteur = _registered(coordinator.url, "saboteur")
        pending = background.submit(saboteur._lease, 30.0)
        _asleep(leases)
        upload_malformed(saboteur, grant, grant["fence"] - 1)
        assert pending.result(timeout=5) == {"unregistered": True}

    def test_many_waiting_leases_share_a_batch_exactly_once(
        self, start_coordinator, tmp_path
    ):
        """Eight waiting leases race for a five-unit batch under a short
        thread switch interval: each unit is granted once, and the three
        leases left over keep waiting until the coordinator stops."""
        coordinator = start_coordinator()
        leases = _watch_leases(coordinator)
        workers = [_registered(coordinator.url, f"w{i}") for i in range(8)]
        interval = sys.getswitchinterval()
        pool = ThreadPoolExecutor(max_workers=len(workers))
        sys.setswitchinterval(1e-5)
        try:
            pending = [pool.submit(w._lease, 30.0) for w in workers]
            for _ in workers:
                _asleep(leases)
            job_id = submit_jobs(
                coordinator.url, slow_jobs(tmp_path / "runs.log", count=5)
            )
            completed = as_completed(pending, timeout=10)
            first = [next(completed).result() for _ in range(5)]
            coordinator.stop()
            answers = [future.result(timeout=5) for future in pending]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False, cancel_futures=True)
        assert sorted((grant["job_id"], grant["unit"]) for grant in first) == [
            (job_id, unit) for unit in range(5)
        ]
        assert sum(answer == {"waited": True} for answer in answers) == 3

    def test_worker_that_hung_up_while_waiting_is_granted_nothing(
        self, start_coordinator, background, tmp_path
    ):
        coordinator = start_coordinator()
        leases = _watch_leases(coordinator)
        worker = _registered(coordinator.url, "gone")
        body = encode_document(
            LEASE_REQUEST_KIND, {"worker_id": worker.worker_id, "wait": 30.0}
        )
        pending = background.submit(
            coordinator.handle_lease, body, lambda: True
        )
        _asleep(leases)
        job_id = submit_jobs(
            coordinator.url, slow_jobs(tmp_path / "runs.log", count=1)
        )
        answer = decode_document(pending.result(timeout=5), "lease-grant")
        assert answer["empty"] is True
        [unit] = coordinator.store.units(job_id)
        assert unit.state == QUEUED and unit.fence == 0

    def test_hung_up_reads_whether_the_client_closed_its_end(self):
        ours, theirs = socket.socketpair()
        with ours:
            probe = type("Probe", (), {"connection": ours})()
            assert not _CoordinatorHandler._hung_up(probe)
            theirs.close()
            assert _CoordinatorHandler._hung_up(probe)

    def test_worker_leases_again_at_once_after_a_waited_answer(
        self, monkeypatch
    ):
        """The loop paces itself only when its coordinator did not hold
        the request: after an answer marked "waited" it asks again at
        once, after a plain empty answer it sleeps ``idle_poll``."""
        worker = PullWorker("http://127.0.0.1:9", idle_poll=0.2)
        worker.worker_id = "w-test"
        answers = [{"waited": True}, {"waited": True}, None, None]
        asked, slept = [], []

        def lease(wait=None):
            asked.append(wait)
            if len(asked) == len(answers):
                worker._stop.set()
            return answers[len(asked) - 1]

        def pause(timeout=None):
            slept.append(timeout)
            return worker._stop.is_set()

        monkeypatch.setattr(worker, "_lease", lease)
        monkeypatch.setattr(worker, "_start_heartbeat", lambda: None)
        monkeypatch.setattr(worker._stop, "wait", pause)
        worker.run()
        assert asked == [LEASE_WAIT_SECONDS] * 4
        assert slept == [0.2, 0.2]


class TestStopWithWaitingLeases:
    def test_worker_stop_answers_its_waiting_lease(self, start_coordinator):
        coordinator = start_coordinator()
        leases = _watch_leases(coordinator)
        worker = PullWorker(coordinator.url, name="leaving").start()
        loop = worker._thread
        try:
            _asleep(leases)
        finally:
            started = time.monotonic()
            worker.stop()
        assert time.monotonic() - started < 1.0
        assert not loop.is_alive()
        assert coordinator.workers == {}

    def test_coordinator_stop_answers_waiting_leases(
        self, start_coordinator, background
    ):
        coordinator = start_coordinator()
        leases = _watch_leases(coordinator)
        workers = [_registered(coordinator.url, f"w{i}") for i in range(2)]
        pending = [background.submit(w._lease, 30.0) for w in workers]
        _asleep(leases)
        _asleep(leases)
        started = time.monotonic()
        coordinator.stop()
        assert [p.result(timeout=5) for p in pending] == [
            {"waited": True}, {"waited": True},
        ]
        assert time.monotonic() - started < 1.0

    def test_stopping_worker_hands_its_unit_back_at_once(
        self, start_coordinator, tmp_path
    ):
        coordinator = start_coordinator(lease_seconds=30.0)
        worker = _registered(coordinator.url, "stopping")
        job_id = submit_jobs(
            coordinator.url, slow_jobs(tmp_path / "runs.log", count=1)
        )
        grant = worker._lease()
        worker.stop()
        [unit] = coordinator.store.units(job_id)
        assert unit.state == QUEUED and unit.fence == grant["fence"] + 1
        assert coordinator.workers == {}

    def test_sigint_stops_a_worker_started_with_sigint_ignored(
        self, start_coordinator
    ):
        """A background job of a non-interactive shell starts with
        SIGINT ignored; ``repro worker`` must still stop on it, promptly
        and through its clean leave, while its lease request waits."""
        coordinator = start_coordinator()
        leases = _watch_leases(coordinator)
        command = [
            sys.executable, "-m", "repro", "worker",
            "--coordinator", coordinator.url, "--name", "background",
        ]
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            process = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                cwd=str(root),
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            assert b"registered with" in process.stdout.readline()
            _asleep(leases)
            started = time.monotonic()
            process.send_signal(signal.SIGINT)
            out, err = process.communicate(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert time.monotonic() - started < 3.0
        assert b"worker stopped" in out
        assert coordinator.workers == {}
