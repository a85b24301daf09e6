"""The robustness layer under fire: retry policy, chaos proxy, recovery.

The chaos proxy sits between real clients/workers and a real
coordinator and injects every fault class the service claims to
survive — latency spikes, refused connections, 5xx bursts, truncated
and corrupted responses, and a mid-request coordinator kill.  The
acceptance bar is the same as the clean-path suite: every job completes
exactly once (the log-file double-execution detector) and rendered
figure-4 artefacts stay byte-identical to ``mode="serial"``.
"""

from __future__ import annotations

import base64
import http.client
import sqlite3
import threading
import time
import urllib.error
import urllib.request

import pytest

import service_jobs
from chaos_proxy import ChaosProxy, FaultPlan, FaultRule, parse_fault_spec
from repro.analysis.experiments import figure4_paper_mode
from repro.analysis.report import render_figure4
from repro.engine import ExperimentEngine
from repro.engine.remote.wire import validate_result_entries
from repro.errors import EngineError, JobCancelledError, RemoteError
from repro.service import client
from repro.service.client import (
    cancel_job,
    coordinator_health,
    fetch_results,
    job_status,
    submit_jobs,
    wait_for_job,
)
from repro.service.coordinator import WORKERS_PATH, CoordinatorServer
from repro.service.pull import PullWorker
from repro.service.retry import (
    REQUEST_POLICY,
    TRANSPORT_ERRORS,
    RetryPolicy,
    retryable_exchange,
    retryable_fault,
)
from repro.service.store import LEASED, QUEUED, JobStore, UnitSpec
from service_jobs import collect, slow_jobs, upload_malformed, wait_workers


def _http_error(code: int) -> urllib.error.HTTPError:
    return urllib.error.HTTPError("http://x", code, "status", None, None)


@pytest.fixture
def start_proxy(request):
    """Factory: a chaos proxy in front of an upstream, stopped on teardown.

    Fixtures tear down in the reverse order of their set-up, so a test
    whose workers dial through the proxy requests this fixture before
    ``start_pull``: the workers then leave through the proxy before it
    stops.
    """

    def _start(upstream, plan=None, kill=None):
        proxy = ChaosProxy(upstream, plan=plan, kill=kill).start()
        request.addfinalizer(proxy.stop)
        return proxy

    return _start


# ----------------------------------------------------------------------
# RetryPolicy: delays, deadlines, classification
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_sequence_doubles_to_cap(self):
        policy = RetryPolicy(
            initial=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        backoff = policy.backoff()
        head = [backoff.next_delay() for _ in range(5)]
        assert head == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial": 0.0},
            {"initial": -1.0},
            {"multiplier": 0.5},
            {"initial": 2.0, "max_delay": 1.0},
            {"deadline": 0.0},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_classification_splits_http_status(self):
        assert retryable_fault(_http_error(503))
        assert retryable_fault(_http_error(500))
        assert retryable_fault(_http_error(408))
        assert retryable_fault(_http_error(429))
        assert not retryable_fault(_http_error(400))
        assert not retryable_fault(_http_error(404))
        assert retryable_fault(ConnectionRefusedError())
        assert retryable_fault(http.client.IncompleteRead(b""))
        assert not retryable_fault(ValueError("nope"))
        # Protocol errors are transient only for idempotent exchanges.
        assert not retryable_fault(RemoteError("garbled"))
        assert retryable_exchange(RemoteError("garbled"))
        assert retryable_exchange(ConnectionRefusedError())
        assert not retryable_exchange(_http_error(404))

    def test_call_retries_transient_faults_then_succeeds(self):
        attempts, sleeps = [], []
        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionRefusedError("not yet")
            return "done"

        policy = RetryPolicy(initial=0.01, jitter=0.0)
        assert policy.call(flaky, sleep=sleeps.append) == "done"
        assert len(attempts) == 3 and len(sleeps) == 2

    def test_call_raises_non_retryable_immediately(self):
        sleeps = []
        def bad_request():
            raise _http_error(404)

        with pytest.raises(urllib.error.HTTPError):
            RetryPolicy().call(bad_request, sleep=sleeps.append)
        assert sleeps == []

    def test_call_deadline_wraps_last_failure(self):
        policy = RetryPolicy(initial=0.01, deadline=0.05, jitter=0.0)
        def always_down():
            raise ConnectionRefusedError("still down")

        with pytest.raises(RemoteError, match="0.05s of retries"):
            policy.call(always_down, description="probe")

    def test_backoff_respects_deadline_on_fake_clock(self):
        now = [0.0]
        policy = RetryPolicy(
            initial=1.0, multiplier=2.0, max_delay=8.0,
            deadline=10.0, jitter=0.0,
        )
        backoff = policy.backoff(clock=lambda: now[0])
        assert backoff.next_delay() == 1.0
        now[0] = 2.0
        assert backoff.next_delay() == 2.0
        now[0] = 9.5  # only half a second of budget left: clipped
        assert backoff.next_delay() == pytest.approx(0.5)
        now[0] = 10.0
        assert backoff.next_delay() is None

    def test_backoff_reset_snaps_to_initial(self):
        policy = RetryPolicy(initial=0.1, multiplier=2.0, max_delay=1.0, jitter=0.0)
        backoff = policy.backoff()
        assert backoff.next_delay() == pytest.approx(0.1)
        assert backoff.next_delay() == pytest.approx(0.2)
        backoff.reset()
        assert backoff.next_delay() == pytest.approx(0.1)

    def test_backoff_jitter_stays_in_band(self):
        policy = RetryPolicy(
            initial=1.0, multiplier=1.0, max_delay=1.0, jitter=0.5
        )
        backoff = policy.backoff()
        for _ in range(50):
            assert 0.5 <= backoff.next_delay() <= 1.5

    def test_with_deadline_returns_new_policy(self):
        base = RetryPolicy()
        bounded = base.with_deadline(3.0)
        assert base.deadline is None and bounded.deadline == 3.0
        assert bounded.initial == base.initial

    def test_sleep_runs_the_schedule_through_injected_sleep_fn(self):
        slept = []
        policy = RetryPolicy(
            initial=0.1, multiplier=2.0, max_delay=0.4, jitter=0.0
        )
        backoff = policy.backoff(sleep_fn=slept.append)
        for _ in range(4):
            assert backoff.sleep() is True
        assert slept == pytest.approx([0.1, 0.2, 0.4, 0.4])

    def test_sleep_past_deadline_stops_or_falls_back(self):
        now = [0.0]
        slept = []
        policy = RetryPolicy(initial=1.0, deadline=1.0, jitter=0.0)
        backoff = policy.backoff(
            clock=lambda: now[0], sleep_fn=slept.append
        )
        now[0] = 2.0  # budget spent before the first wait
        assert backoff.sleep() is False
        assert slept == []
        # Poll loops with their own exit condition keep waiting at the
        # fallback cadence instead of giving up.
        assert backoff.sleep(0.25) is True
        assert slept == pytest.approx([0.25])


# ----------------------------------------------------------------------
# FaultRule / FaultPlan: scripting, determinism, round-trips
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_spec_full(self):
        rule = parse_fault_spec(
            "latency:path=/lease,method=post,after=2,times=3,"
            "probability=0.5,latency=0.4"
        )
        assert rule.kind == "latency" and rule.path == "/lease"
        assert rule.method == "post" and rule.after == 2
        assert rule.times == 3 and rule.probability == 0.5
        assert rule.latency == 0.4

    def test_parse_spec_empty_times_means_forever(self):
        assert parse_fault_spec("drop:times=,probability=0.05").times is None
        assert parse_fault_spec("kill").times == 1

    @pytest.mark.parametrize(
        "spec",
        [
            "explode",                      # unknown kind
            "latency:bogus=1",              # unknown key
            "latency:path",                 # not key=value
            "error:status=404",             # error faults must be 5xx
            "latency:probability=0",        # probability in (0, 1]
            "truncate:truncate_to=-1",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(EngineError):
            parse_fault_spec(spec)

    def test_after_and_times_window_the_fault(self):
        plan = FaultPlan([FaultRule("error", after=1, times=2)])
        fired = [
            plan.decide("GET", "/healthz") is not None for _ in range(5)
        ]
        assert fired == [False, True, True, False, False]
        assert [record["kind"] for record in plan.injections] == [
            "error", "error",
        ]
        assert plan.requests == 5

    def test_path_and_method_scope_matching(self):
        rule = FaultRule("refuse", path="/lease", method="POST")
        assert rule.matches("POST", "/lease")
        assert rule.matches("post", "/lease/extra")
        assert not rule.matches("GET", "/lease")
        assert not rule.matches("POST", "/submit")

    def test_first_eligible_rule_wins(self):
        plan = FaultPlan(
            [FaultRule("error", times=1), FaultRule("latency", times=None)]
        )
        assert plan.decide("GET", "/x").kind == "error"
        assert plan.decide("GET", "/x").kind == "latency"
        assert [record["rule"] for record in plan.injections] == [0, 1]

    def test_probability_is_seed_deterministic(self):
        rules = [FaultRule("drop", probability=0.4, times=None)]
        first = FaultPlan(rules, seed=11)
        second = FaultPlan(rules, seed=11)
        sequence = [
            first.decide("GET", "/x") is not None for _ in range(40)
        ]
        assert sequence == [
            second.decide("GET", "/x") is not None for _ in range(40)
        ]
        assert True in sequence and False in sequence  # actually 40%-ish

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            [
                FaultRule("latency", path="/lease", times=3, latency=0.5),
                FaultRule("error", status=502, times=None),
            ],
            seed=7,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again.rules == plan.rules and again.seed == 7

    @pytest.mark.parametrize(
        "data",
        [
            "nope",
            {"rules": "nope"},
            {"seed": "nope"},
            {"rules": [{"path": "/x"}]},          # missing kind
            {"rules": [{"kind": "error", "x": 1}]},  # unknown key
        ],
    )
    def test_malformed_plan_json_rejected(self, data):
        with pytest.raises(EngineError):
            FaultPlan.from_json(data)


# ----------------------------------------------------------------------
# The proxy itself: each fault kind produces its failure signature
# ----------------------------------------------------------------------
class TestChaosProxy:
    def test_empty_plan_forwards_transparently(
        self, start_coordinator, start_proxy
    ):
        coordinator = start_coordinator()
        proxy = start_proxy(coordinator.url)
        assert coordinator_health(proxy.url)["workers"] == 0
        assert proxy.plan.requests == 1

    def test_error_fault_answers_5xx_without_forwarding(
        self, start_coordinator, start_proxy
    ):
        coordinator = start_coordinator()
        proxy = start_proxy(
            coordinator.url, plan=FaultPlan([FaultRule("error", status=503)])
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(proxy.url + "/healthz", timeout=5)
        assert excinfo.value.code == 503
        assert coordinator_health(proxy.url)["workers"] == 0  # fault spent

    def test_refuse_fault_severs_the_connection(
        self, start_coordinator, start_proxy
    ):
        coordinator = start_coordinator()
        proxy = start_proxy(
            coordinator.url, plan=FaultPlan([FaultRule("refuse")])
        )
        with pytest.raises(TRANSPORT_ERRORS):
            urllib.request.urlopen(proxy.url + "/healthz", timeout=5)
        assert coordinator_health(proxy.url)["workers"] == 0

    def test_truncate_fault_tears_the_read_mid_body(
        self, start_coordinator, start_proxy
    ):
        coordinator = start_coordinator()
        proxy = start_proxy(
            coordinator.url,
            plan=FaultPlan([FaultRule("truncate", truncate_to=5)]),
        )
        with pytest.raises(http.client.HTTPException):
            with urllib.request.urlopen(
                proxy.url + "/healthz", timeout=5
            ) as response:
                response.read()

    def test_corrupt_fault_garbles_but_preserves_length(
        self, start_coordinator, start_proxy
    ):
        coordinator = start_coordinator()
        proxy = start_proxy(
            coordinator.url, plan=FaultPlan([FaultRule("corrupt")])
        )
        with urllib.request.urlopen(
            proxy.url + WORKERS_PATH, timeout=5
        ) as response:
            garbled = response.read()
        with urllib.request.urlopen(
            proxy.url + WORKERS_PATH, timeout=5
        ) as response:
            clean = response.read()
        assert garbled != clean
        assert bytes(byte ^ 0x5A for byte in garbled) == clean

    def test_latency_fault_delays_but_succeeds(
        self, start_coordinator, start_proxy
    ):
        coordinator = start_coordinator()
        proxy = start_proxy(
            coordinator.url,
            plan=FaultPlan([FaultRule("latency", latency=0.2)]),
        )
        started = time.monotonic()
        assert coordinator_health(proxy.url)["workers"] == 0
        assert time.monotonic() - started >= 0.15

    def test_kill_fault_invokes_callback_then_severs(
        self, start_coordinator, start_proxy
    ):
        events = []
        coordinator = start_coordinator()
        proxy = start_proxy(
            coordinator.url,
            plan=FaultPlan([FaultRule("kill")]),
            kill=lambda: events.append("killed"),
        )
        with pytest.raises(TRANSPORT_ERRORS):
            urllib.request.urlopen(proxy.url + "/healthz", timeout=5)
        assert events == ["killed"] and proxy.kills == 1
        assert [r["kind"] for r in proxy.plan.injections] == ["kill"]


# ----------------------------------------------------------------------
# Store hardening: PRAGMAs, quarantine-and-rebuild, cancellation
# ----------------------------------------------------------------------
class TestStoreHardening:
    def _submit(self, store, units=3):
        return store.submit(
            [
                UnitSpec(entries=[{"payload": f"p{i}"}], indices=[i])
                for i in range(units)
            ],
            label="t",
        )

    def test_store_runs_wal_with_busy_timeout(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        timeout = store._conn.execute("PRAGMA busy_timeout").fetchone()[0]
        assert mode == "wal"
        assert timeout == 10_000
        store.close()

    def test_healthy_database_is_not_quarantined(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        assert store.quarantined is None
        store.close()
        again = JobStore(tmp_path / "q.sqlite")
        assert again.quarantined is None
        again.close()

    def test_pre_cancellation_schema_is_migrated(self, tmp_path):
        path = tmp_path / "old.sqlite"
        JobStore(path).close()
        conn = sqlite3.connect(path)  # repro: ignore[raw-sqlite] test corrupts the store file directly to exercise recovery
        columns = {
            row[1] for row in conn.execute("PRAGMA table_info(jobs)")
        }
        if "cancelled_at" in columns:  # simulate the old schema
            conn.execute("ALTER TABLE jobs DROP COLUMN cancelled_at")
            conn.commit()
        conn.close()

        store = JobStore(path)
        job_id = self._submit(store)
        assert store.cancel(job_id)
        assert store.job(job_id).cancelled
        store.close()

    def test_queue_file_with_the_dropped_group_column_still_serves(
        self, tmp_path
    ):
        """Queue files written before units lost their scheduling-group
        column keep it; nothing reads or writes it, so such a file
        submits, leases and completes without a migration."""
        # The dropped column's name, spelled in parts: the tag it held
        # is gone from the code base and only old files still carry it.
        column = "_".join(("warm", "group"))
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)  # repro: ignore[raw-sqlite] test builds a queue file with the previous units schema
        conn.execute(
            "CREATE TABLE units ("
            "job_id TEXT NOT NULL, unit_index INTEGER NOT NULL, "
            f"state TEXT NOT NULL, {column} TEXT, entries TEXT NOT NULL, "
            "indices TEXT NOT NULL, fence INTEGER NOT NULL DEFAULT 0, "
            "lease_owner TEXT, lease_expiry REAL, result TEXT, "
            "PRIMARY KEY (job_id, unit_index))"
        )
        conn.commit()
        conn.close()

        store = JobStore(path)
        job_id = self._submit(store, units=1)
        fence, _, indices = store.lease(
            job_id, 0, "w1", time.monotonic() + 30
        )
        assert indices == [0]
        assert store.complete(job_id, 0, fence, [{"ok": True}])
        assert store.job(job_id).complete
        store.close()

    def test_cancel_fences_queued_and_leased_units(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        job_id = self._submit(store)
        fence0, _, _ = store.lease(job_id, 0, "w1", time.monotonic() + 30)
        store.complete(job_id, 0, fence0, [{"ok": True}])
        fence1, _, _ = store.lease(job_id, 1, "w1", time.monotonic() + 30)

        assert store.cancel(job_id)
        record = store.job(job_id)
        assert record.cancelled and record.finished and not record.complete
        assert record.done == 1 and record.cancelled_units == 2
        # The in-flight completion must not land: its fence is stale.
        assert not store.complete(job_id, 1, fence1, [{"ok": True}])
        # Cancelled units never return to the lease pool...
        assert store.oldest_queued_unit() is None
        # ...but the worker holding one learns about it on heartbeat.
        assert store.cancelled_jobs_for("w1") == [job_id]
        # Completed results survive the cancellation.
        after, units = store.results(job_id)
        assert after.cancelled and len(units) == 1
        # Idempotent for a known job; False for an unknown one.
        assert store.cancel(job_id)
        assert not store.cancel("deadbeef")
        store.close()

    def test_release_worker_requeues_only_its_leases(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        job_id = self._submit(store)
        fence0, _, _ = store.lease(job_id, 0, "bad", time.monotonic() + 30)
        store.lease(job_id, 1, "bad", time.monotonic() + 30)
        store.lease(job_id, 2, "good", time.monotonic() + 30)

        released = store.release_worker("bad")
        assert sorted(released) == [(job_id, 0), (job_id, 1)]
        states = {u.unit_index: u.state for u in store.units(job_id)}
        assert states == {0: QUEUED, 1: QUEUED, 2: LEASED}
        # The released units are fenced: the evicted worker's late
        # completion is refused even after a re-lease.
        assert not store.complete(job_id, 0, fence0, [{"ok": True}])
        store.close()

    def test_unit_job_count(self, tmp_path):
        store = JobStore(tmp_path / "q.sqlite")
        job_id = store.submit(
            [UnitSpec(entries=[{"payload": "a"}, {"payload": "b"}],
                      indices=[0, 1])]
        )
        assert store.unit_job_count(job_id, 0) == 2
        assert store.unit_job_count(job_id, 9) is None
        assert store.unit_job_count("missing", 0) is None
        store.close()


# ----------------------------------------------------------------------
# Completion validation (the quarantine trigger)
# ----------------------------------------------------------------------
class TestResultValidation:
    def _entry(self, ok=True):
        return {"ok": ok, "payload": base64.b64encode(b"x").decode()}

    def test_well_formed_entries_pass(self):
        assert validate_result_entries([self._entry()], 1) is None
        assert validate_result_entries(
            [{"ok": False, "payload": self._entry()["payload"]}], 1
        ) is None

    def test_defects_are_described(self):
        assert "2 result entries for 1" in validate_result_entries(
            [self._entry(), self._entry()], 1
        )
        assert validate_result_entries("nope", 1) is not None
        assert validate_result_entries(["nope"], 1) is not None
        assert validate_result_entries([{"ok": "yes"}], 1) is not None
        assert validate_result_entries([{"ok": True}], 1) is not None
        assert validate_result_entries(
            [{"ok": True, "payload": "!!not base64!!"}], 1
        ) is not None


# ----------------------------------------------------------------------
# Worker quarantine: malformed completions evict, work is reassigned
# ----------------------------------------------------------------------
class TestWorkerQuarantine:
    def test_three_malformed_completions_evict_the_worker(
        self, start_coordinator, start_pull, tmp_path
    ):
        log = tmp_path / "runs.log"
        coordinator = start_coordinator()
        saboteur = PullWorker(coordinator.url, name="saboteur")
        saboteur.register()
        job_id = submit_jobs(
            coordinator.url, slow_jobs(log, count=4), label="quarantine"
        )
        # Leasing again re-queues the unit a worker still holds, so the
        # three grants are one unit under three successive fences.
        grants = [saboteur._lease() for _ in range(3)]
        assert all(g and not g.get("unregistered") for g in grants)
        assert len({(g["job_id"], g["unit"]) for g in grants}) == 1

        # Upload a wrong-shaped completion for each grant: two result
        # entries for a one-job unit.
        for grant in grants:
            upload_malformed(saboteur, grant, grant["fence"])

        # Third strike: evicted, leases released, future leases refused.
        assert saboteur.worker_id in coordinator.quarantined_workers
        assert saboteur._lease() == {"unregistered": True}

        # An honest worker finishes the whole job exactly once.
        start_pull(coordinator.url, name="honest")
        wait_for_job(coordinator.url, job_id, poll=0.05, timeout=30)
        assert collect(coordinator.url, job_id, 4) == [
            f"unit{i}" for i in range(4)
        ]
        assert sorted(log.read_text().split()) == sorted(
            f"unit{i}" for i in range(4)
        )
        results = collect(coordinator.url, job_id, 4)
        assert "forged" not in results

    def _one_unit_job(self, coordinator, tmp_path):
        """A registered worker holding the lease of a fresh one-job job:
        ``(worker, grant, job_id)``."""
        worker = PullWorker(coordinator.url, name="mangler")
        worker.register()
        job_id = submit_jobs(
            coordinator.url,
            slow_jobs(tmp_path / "runs.log", count=1, delay=0.0),
            label="rejected",
        )
        grant = worker._lease()
        assert grant["job_id"] == job_id
        return worker, grant, job_id

    def test_rejected_completion_requeues_its_unit(
        self, start_coordinator, tmp_path
    ):
        """The uploader drops a unit whose completion was rejected, so
        the coordinator re-queues it at once instead of letting the
        uploader's heartbeats renew a lease nobody will complete."""
        coordinator = start_coordinator()
        mangler, grant, job_id = self._one_unit_job(coordinator, tmp_path)
        upload_malformed(mangler, grant, grant["fence"])

        [unit] = coordinator.store.units(job_id)
        assert unit.state == QUEUED
        assert unit.lease_owner is None and unit.lease_expiry is None
        assert mangler.worker_id not in coordinator.quarantined_workers
        assert coordinator.workers[mangler.worker_id].invalid_completions == 1

        honest = PullWorker(coordinator.url, name="honest")
        honest.register()
        regrant = honest._lease()
        assert (regrant["job_id"], regrant["unit"]) == (job_id, grant["unit"])
        # One fence bump for the re-queue, one for the new lease.
        assert regrant["fence"] == grant["fence"] + 2
        honest._execute_grant(regrant)
        assert collect(coordinator.url, job_id, 1) == ["unit0"]

    def test_stale_fence_rejection_leaves_the_current_lease(
        self, start_coordinator, tmp_path
    ):
        coordinator = start_coordinator()
        mangler, grant, job_id = self._one_unit_job(coordinator, tmp_path)
        upload_malformed(mangler, grant, grant["fence"])
        honest = PullWorker(coordinator.url, name="honest")
        honest.register()
        regrant = honest._lease()

        # A second mangled upload of the old grant carries a stale fence:
        # rejected, and the honest worker's lease is untouched.
        upload_malformed(mangler, grant, grant["fence"])
        [unit] = coordinator.store.units(job_id)
        assert unit.state == LEASED
        assert unit.lease_owner == honest.worker_id
        assert unit.fence == regrant["fence"]

        honest._execute_grant(regrant)
        assert collect(coordinator.url, job_id, 1) == ["unit0"]


# ----------------------------------------------------------------------
# Cancellation: fenced out everywhere within two lease periods
# ----------------------------------------------------------------------
class TestCancellation:
    LEASE = 0.9

    def test_cancel_stops_work_within_two_lease_periods(
        self, start_coordinator, start_pull, tmp_path
    ):
        log = tmp_path / "runs.log"
        coordinator = start_coordinator(lease_seconds=self.LEASE)
        start_pull(coordinator.url, name="steady")
        wait_workers(coordinator.url, 1)
        job_id = submit_jobs(
            coordinator.url,
            slow_jobs(log, count=6, delay=0.25, cacheable=False),
            label="doomed",
        )
        deadline = time.monotonic() + 20
        while job_status(coordinator.url, job_id)["done"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.02)  # repro: ignore[bare-sleep-loop] worker thread deliberately idles between polls

        answer = cancel_job(coordinator.url, job_id)
        assert answer["cancelled"] is True

        with pytest.raises(JobCancelledError, match=job_id):
            wait_for_job(coordinator.url, job_id, poll=0.05, timeout=30)
        complete, cancelled, _units = fetch_results(coordinator.url, job_id)
        assert cancelled and not complete
        status = job_status(coordinator.url, job_id)
        assert status["cancelled"] and status["cancelled_units"] >= 1

        # Two lease periods after the cancel, nothing is still running:
        # the log stops growing (one in-flight unit may drain first).
        time.sleep(2 * self.LEASE)  # repro: ignore[bare-sleep-loop] test waits out a real lease expiry
        settled = log.read_text()
        time.sleep(self.LEASE)  # repro: ignore[bare-sleep-loop] test waits out a real lease expiry
        assert log.read_text() == settled
        executed = settled.split()
        assert len(executed) == len(set(executed))  # exactly-once held

    def test_cancel_unknown_job_is_an_error(self, start_coordinator):
        coordinator = start_coordinator()
        with pytest.raises(EngineError, match="unknown job"):
            cancel_job(coordinator.url, "deadbeef")

    def test_cli_cancel_reports_and_lists_cancelled(
        self, capsys, start_coordinator, start_pull, tmp_path
    ):
        from repro.cli import main

        log = tmp_path / "runs.log"
        coordinator = start_coordinator(lease_seconds=self.LEASE)
        start_pull(coordinator.url, name="cli")
        wait_workers(coordinator.url, 1)
        job_id = submit_jobs(
            coordinator.url,
            slow_jobs(log, count=6, delay=0.3, cacheable=False),
            label="doomed",
        )
        assert main(
            ["jobs", "--coordinator", coordinator.url, "--cancel", job_id]
        ) == 0
        out = capsys.readouterr().out
        assert f"cancelled job {job_id}" in out

        assert main(["jobs", "--coordinator", coordinator.url]) == 0
        listing = capsys.readouterr().out
        assert job_id in listing and "cancelled" in listing

        assert main(
            ["status", job_id, "--coordinator", coordinator.url]
        ) == 0
        status_out = capsys.readouterr().out
        assert "cancelled" in status_out


# ----------------------------------------------------------------------
# End to end through the proxy: every fault class, same guarantees
# ----------------------------------------------------------------------
FAULT_PLANS = {
    # Latency spikes hit every endpoint; requests still succeed.
    "latency": [FaultRule("latency", latency=0.05, times=8)],
    # Connection resets on the lease loop (submission stays clean so
    # the engine proves the service path, not the serial fallback).
    "refuse": [FaultRule("refuse", path="/lease", times=3)],
    # A 503 burst from an "overloaded" coordinator.
    "error": [FaultRule("error", path="/lease", status=503, times=3)],
    # Torn responses: the client's poll and a worker's lease grant.
    "truncate": [
        FaultRule("truncate", path="/results", method="GET", times=2),
        FaultRule("truncate", path="/lease", times=1),
    ],
    # Garbled responses: must surface as protocol errors and be retried,
    # never decoded into wrong results.
    "corrupt": [
        FaultRule("corrupt", path="/results", method="GET", times=2),
        FaultRule("corrupt", path="/lease", times=1),
    ],
}


class TestChaosEndToEnd:
    @pytest.mark.parametrize("fault", sorted(FAULT_PLANS))
    def test_fault_class_preserves_parity_and_exactly_once(
        self, fault, start_coordinator, start_proxy, start_pull, tmp_path
    ):
        serial = figure4_paper_mode()
        coordinator = start_coordinator(lease_seconds=1.5)
        plan = FaultPlan(FAULT_PLANS[fault], seed=7)
        proxy = start_proxy(coordinator.url, plan=plan)
        start_pull(proxy.url, name="chaos-a")
        start_pull(proxy.url, name="chaos-b")
        wait_workers(coordinator.url, 2)

        engine = ExperimentEngine(mode="service", coordinator_url=proxy.url)
        rows = figure4_paper_mode(engine=engine)
        assert rows == serial
        assert render_figure4(rows) == render_figure4(serial)
        assert engine.stats.fallbacks == 0  # the service path, not serial

        # Exactly-once through the same proxy session, by the log file.
        log = tmp_path / f"runs-{fault}.log"
        job_id = submit_jobs(
            proxy.url,
            slow_jobs(log, count=4, delay=0.05),
            label=fault,
            retry=REQUEST_POLICY.with_deadline(10.0),
        )
        wait_for_job(proxy.url, job_id, poll=0.05, timeout=30)
        assert collect(proxy.url, job_id, 4) == [
            f"unit{i}" for i in range(4)
        ]
        assert sorted(log.read_text().split()) == sorted(
            f"unit{i}" for i in range(4)
        )
        assert plan.injections, "the fault plan never fired"
        assert any(r["kind"] == fault for r in plan.injections)

    def test_kill_fault_coordinator_restart_mid_job(
        self, request, monkeypatch, start_proxy, start_pull, tmp_path
    ):
        serial = figure4_paper_mode()
        store = JobStore(tmp_path / "queue.sqlite")
        coordinator = CoordinatorServer(store=store, lease_seconds=2.0).start()
        port = coordinator.server_address[1]
        state = {"server": coordinator}
        request.addfinalizer(lambda: state["server"].stop())
        request.addfinalizer(store.close)

        # The kill must land once both batches are queued: the engine's
        # figure-4 submission has no retry and would fall back in-process
        # (as documented) if it met the restart.  The slow batch's units
        # hold both workers until that submission has been answered, so
        # the only /lease requests before then are each worker's first,
        # waiting one; the fifth, the kill, follows two more completions.
        queued = threading.Event()
        monkeypatch.setitem(service_jobs.GATES, "kill", queued)

        def kill():
            # The mid-request crash: stop the coordinator and bring a
            # fresh one up on the same port over the same durable store
            # (the in-process equivalent of a supervisor restart loop).
            state["queued at kill"] = queued.is_set()
            state["server"].stop()
            state["server"] = CoordinatorServer(
                port=port, store=store, lease_seconds=2.0
            ).start()

        submit = client.submit_jobs

        def submit_then_open(*args, **kwargs):
            job_id = submit(*args, **kwargs)
            queued.set()
            return job_id

        monkeypatch.setattr(client, "submit_jobs", submit_then_open)
        plan = FaultPlan(
            [FaultRule("kill", path="/lease", after=4, times=1)], seed=3
        )
        proxy = start_proxy(coordinator.url, plan=plan, kill=kill)
        start_pull(proxy.url, name="kill-a")
        start_pull(proxy.url, name="kill-b")
        wait_workers(coordinator.url, 2)

        log = tmp_path / "runs.log"
        job_id = submit_jobs(
            proxy.url,
            slow_jobs(log, count=6, delay=0.1, gate="kill"),
            label="kill",
            retry=REQUEST_POLICY.with_deadline(10.0),
        )
        engine = ExperimentEngine(mode="service", coordinator_url=proxy.url)
        rows = figure4_paper_mode(engine=engine)
        assert rows == serial
        assert render_figure4(rows) == render_figure4(serial)
        assert engine.stats.fallbacks == 0

        wait_for_job(proxy.url, job_id, poll=0.05, timeout=60)
        assert collect(proxy.url, job_id, 6) == [
            f"unit{i}" for i in range(6)
        ]
        # The kill really happened, and despite it no unit ran twice.
        assert proxy.kills == 1
        assert state["queued at kill"]
        assert sorted(log.read_text().split()) == sorted(
            f"unit{i}" for i in range(6)
        )
