"""Shared fixtures: Table 2 profile, scenarios, paper readings, workloads,
and the in-process service fleet (coordinator + pull workers)."""

from __future__ import annotations

import pytest

from repro import paper
from repro.engine import temporary_scenarios
from repro.platform import (
    architectural_scenario,
    scenario_1,
    scenario_2,
    tc277,
    tc27x_latency_profile,
)
from repro.sim.timing import tc27x_sim_timing


@pytest.fixture(scope="session")
def profile():
    """Table 2 latency profile."""
    return tc27x_latency_profile()


@pytest.fixture(scope="session")
def platform():
    """The TC277 platform object."""
    return tc277()


@pytest.fixture(scope="session")
def sim_timing():
    """Simulator device timing (Table 2 consistent)."""
    return tc27x_sim_timing()


@pytest.fixture()
def scenario_sandbox():
    """Scope scenario registrations to one test.

    ``register_scenario`` / ``register_family_members`` mutate the
    process-wide default registry; tests that register specs directly
    must use this fixture (or ``temporary_scenarios`` themselves) so
    nothing leaks into later tests.
    """
    with temporary_scenarios() as registry:
        yield registry


@pytest.fixture
def start_coordinator(request, tmp_path):
    """Factory: a coordinator over a file-backed store in ``tmp_path``."""
    from repro.service.coordinator import CoordinatorServer
    from repro.service.store import JobStore

    def _start(port=0, lease_seconds=30.0, cache=None, results=None):
        store = JobStore(tmp_path / "queue.sqlite")
        server = CoordinatorServer(
            port=port,
            store=store,
            cache=cache,
            results=results,
            lease_seconds=lease_seconds,
        ).start()
        request.addfinalizer(server.stop)
        request.addfinalizer(store.close)
        return server

    return _start


@pytest.fixture
def start_pull(request):
    """Factory: an in-process pull worker, stopped on teardown."""
    from repro.service.pull import PullWorker

    def _start(url, name="", cache=None, idle_poll=0.02, cls=PullWorker):
        worker = cls(url, name=name, cache=cache, idle_poll=idle_poll).start()
        request.addfinalizer(worker.stop)
        return worker

    return _start


@pytest.fixture
def service_fleet(start_coordinator, start_pull):
    """Factory: a coordinator plus ``workers`` registered pull workers.

    Returns ``(coordinator, pull_workers)``; keyword options go to
    :func:`start_coordinator`.  Everything stops on teardown.
    """
    from service_jobs import wait_workers

    def _start(workers=2, **options):
        coordinator = start_coordinator(**options)
        pulls = [
            start_pull(coordinator.url, name=f"w{index}")
            for index in range(workers)
        ]
        wait_workers(coordinator.url, workers)
        return coordinator, pulls

    return _start


@pytest.fixture()
def sc1():
    return scenario_1()


@pytest.fixture()
def sc2():
    return scenario_2()


@pytest.fixture()
def arch_scenario():
    return architectural_scenario()


@pytest.fixture(scope="session")
def app_sc1():
    """Table 6, Scenario 1, application (core 1)."""
    return paper.table6("scenario1", "app")


@pytest.fixture(scope="session")
def hload_sc1():
    """Table 6, Scenario 1, H-Load (core 2)."""
    return paper.table6("scenario1", "H-Load")


@pytest.fixture(scope="session")
def app_sc2():
    return paper.table6("scenario2", "app")


@pytest.fixture(scope="session")
def hload_sc2():
    return paper.table6("scenario2", "H-Load")
