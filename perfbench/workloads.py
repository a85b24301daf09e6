"""The benchmark's three workloads, their service fleet and their checks.

Every workload is a list of named *artefacts*: one library call each,
timed together as the workload body.  Afterwards each artefact is
flattened with the library's own repr-exact export rows (one row = one
cell) and checked:

* against golden row digests captured with ``run.py --update-golden``
  (artefacts that do not depend on the seed are compared at every seed,
  seeded ones at :data:`DEFAULT_SEED` only), and
* against invariants that hold at any seed: declared-sound bounds cover
  the observed co-runs, sweep bounds never decrease with contender load
  and stay under the time-composable ceiling, paper-mode Figure 4 stays
  within ``RATIO_TOLERANCE`` of the published ratios.

``repro`` is imported inside the functions only, so ``run.py`` can import
this module without paying the library's import time.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(HERE, "golden")

#: The seed the golden files were captured at.
DEFAULT_SEED = 1

#: Pull workers in the service fleet (the reference machine's core count).
FLEET_WORKERS = 2

#: Seconds between the samples of the gauge sampler process that runs
#: beside each body (each sample takes ~5 ms of one vCPU).
SAMPLER_INTERVAL_S = 0.1

#: Random (task, contender) pairs checked for soundness per run.
SOUNDNESS_PAIRS = 4

#: Contender scales per reference scenario in the ILP sweep.
SWEEP_POINTS = 1500

#: Consecutive sweep calls each scenario's grid is split into, so the
#: sweep is timed in short segments (see :func:`run_body`).
SWEEP_SEGMENTS = 10

WORKLOADS = ("sim-artefacts", "ilp-explore", "service-matrix")


# ----------------------------------------------------------------------
# The service fleet
# ----------------------------------------------------------------------
class Fleet:
    """An in-process coordinator with pull-worker subprocesses.

    The coordinator listens on an ephemeral loopback port and keeps its
    file-backed job queue and disk result cache under ``state_dir``.
    Each worker is ``repro worker --coordinator URL`` in a fresh
    interpreter; with ``trace_dir`` it runs under ``worker.py`` instead,
    which writes the worker's spans there when it stops.
    """

    def __init__(self, state_dir: str, trace_dir: str | None = None) -> None:
        self.state_dir = state_dir
        self.trace_dir = trace_dir
        self.server = None
        self.jobs = None
        self.procs: list[subprocess.Popen] = []
        self.trace_files: list[str] = []

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "Fleet":
        from repro.engine import ResultCache
        from repro.service.coordinator import CoordinatorServer
        from repro.service.store import JobStore

        self.jobs = JobStore(os.path.join(self.state_dir, "queue.sqlite"))
        self.server = CoordinatorServer(
            port=0,
            store=self.jobs,
            cache=ResultCache(
                directory=os.path.join(self.state_dir, "coordinator-cache")
            ),
        ).start()
        env = dict(os.environ, PYTHONPATH=SRC)
        for index in range(FLEET_WORKERS):
            argv = ["worker", "--coordinator", self.url, "--name", f"w{index}"]
            if self.trace_dir is None:
                command = [sys.executable, "-m", "repro", *argv]
            else:
                trace_file = os.path.join(self.trace_dir, f"worker{index}.json")
                self.trace_files.append(trace_file)
                command = [
                    sys.executable, os.path.join(HERE, "worker.py"),
                    trace_file, *argv,
                ]
            log = open(os.path.join(self.state_dir, f"worker{index}.log"), "wb")
            with log:
                self.procs.append(
                    subprocess.Popen(
                        command, env=env, stdout=subprocess.DEVNULL, stderr=log
                    )
                )
        deadline = time.monotonic() + 60.0
        while True:
            # The coordinator is in-process: read its registry directly,
            # so waiting costs the starting workers no CPU.
            if len(self.server.workers) >= FLEET_WORKERS:
                return self
            if any(proc.poll() is not None for proc in self.procs):
                raise RuntimeError("a pull worker exited before registering")
            if time.monotonic() > deadline:
                raise RuntimeError("pull workers did not register within 60s")
            time.sleep(0.002)

    def completed_units(self) -> int:
        from repro.service.client import list_workers

        return sum(w.get("completed_units", 0) for w in list_workers(self.url))

    def stop(self) -> None:
        """Stop the workers (SIGINT, then SIGKILL) and the coordinator."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.jobs is not None:
            self.jobs.close()
            self.jobs = None


# ----------------------------------------------------------------------
# Workload bodies: name -> list of (artefact, thunk) segments
# ----------------------------------------------------------------------
#: One timed segment: (artefact, thunk).  An artefact made of several
#: segments gets the concatenation of their result lists.
Segment = tuple[str, Callable[[], Any]]


def _sim_artefacts(seed: int, context: dict) -> list[Segment]:
    from repro.analysis.experiments import (
        figure4_sim_mode,
        information_ablation,
        table6_sim_mode,
    )
    from repro.analysis.three_core import three_core_experiment
    from repro.analysis.validation import check_soundness
    from repro.platform.deployment import scenario_1
    from repro.workloads.synthetic import random_task_pair

    rng = random.Random(seed)
    pair_seeds = [rng.randrange(1 << 30) for _ in range(SOUNDNESS_PAIRS)]

    def soundness(pair_seed: int) -> Callable[[], list]:
        # Scenario 1, as `repro soundness` defaults to: about one random
        # scenario-2 pair in 40 makes a branch-and-bound-heavy ILP (~2.5 s
        # against ~15 ms), which would make the run's cost hinge on the seed.
        def pair() -> list:
            scenario = scenario_1()
            task, contender = random_task_pair(
                scenario, seed=pair_seed, max_requests=1_000
            )
            return [check_soundness(task, contender, scenario)]

        return pair

    return [
        ("table6", lambda: table6_sim_mode(scale=1 / 16)),
        ("figure4-sim", lambda: figure4_sim_mode(scale=1 / 32)),
        (
            "three-core",
            lambda: three_core_experiment("scenario1", scale=1 / 32),
        ),
        ("ablation", lambda: information_ablation(scale=1 / 32)),
        *(("soundness", soundness(pair_seed)) for pair_seed in pair_seeds),
    ]


def sweep_scales(seed: int, scenario_name: str) -> list[float]:
    """The seeded contender-scale grid of one scenario's sweep: one
    uniform draw in each of :data:`SWEEP_POINTS` equal strata of
    [0.05, 4.0), so every seed covers the range evenly and costs about
    the same to solve."""
    rng = random.Random(f"{seed}:{scenario_name}")
    width = (4.0 - 0.05) / SWEEP_POINTS
    return [0.05 + (i + rng.random()) * width for i in range(SWEEP_POINTS)]


def _ilp_explore(seed: int, context: dict) -> list[Segment]:
    from repro import paper
    from repro.analysis.experiments import figure4_paper_mode
    from repro.analysis.sweeps import (
        contender_scale_sweep,
        deployment_sweep,
        dirty_latency_sensitivity,
    )
    from repro.core.registry import counter_based_model_names
    from repro.platform.deployment import named_scenarios

    scenarios = named_scenarios()

    def sweep(name: str) -> list[Segment]:
        # Every sweep call solves its own ceiling first, so each segment
        # adds one solve; the points and their rows are those of one call.
        scales = sweep_scales(seed, name)
        size = -(-len(scales) // SWEEP_SEGMENTS)

        def segment(chunk: list[float]) -> Callable[[], list]:
            return lambda: contender_scale_sweep(
                paper.table6(name, "app"),
                paper.table6(name, "H-Load"),
                scenarios[name],
                scales=chunk,
                isolation_cycles=paper.ISOLATION_CYCLES[name],
            )

        return [
            (f"sweep-{name}", segment(scales[start : start + size]))
            for start in range(0, len(scales), size)
        ]

    return [
        (
            "figure4-paper",
            lambda: figure4_paper_mode(models=counter_based_model_names()),
        ),
        *sweep("scenario1"),
        *sweep("scenario2"),
        (
            "deployment",
            lambda: deployment_sweep(
                paper.table6("scenario1", "app"),
                paper.table6("scenario1", "H-Load"),
                scenarios,
                isolation_cycles=paper.ISOLATION_CYCLES["scenario1"],
            ),
        ),
        (
            "dirty",
            lambda: dirty_latency_sensitivity(
                paper.table6("scenario2", "app"),
                paper.table6("scenario2", "H-Load"),
                scenarios["scenario2"],
            ),
        ),
    ]


def _service_matrix(seed: int, context: dict) -> list[Segment]:
    from repro.analysis.experiments import model_scenario_matrix
    from repro.engine import ExperimentEngine, ResultCache, default_registry
    from repro.engine.families import run_family
    from repro.store import ResultStore

    engine = ExperimentEngine(
        mode="service",
        coordinator_url=context["fleet"].url,
        cache=ResultCache(),
        store=ResultStore(os.path.join(context["state_dir"], "results")),
    )
    context["engine"] = engine
    # No input here depends on the seed: submission order decides which
    # worker runs which cell, and a seeded order would add its schedule
    # to the run-to-run spread.
    specs = [spec.scaled(0.5) for spec in default_registry().specs()]
    return [
        (
            "matrix",
            lambda: model_scenario_matrix(
                models=("ftc-refined", "ilp-ptac"), specs=specs, engine=engine
            ),
        ),
        ("family", lambda: run_family("dma-pressure", engine=engine)),
    ]


BODIES = {
    "sim-artefacts": _sim_artefacts,
    "ilp-explore": _ilp_explore,
    "service-matrix": _service_matrix,
}

#: Artefacts whose cells depend on the seed (golden-checked at the
#: default seed only).
SEEDED = {"soundness", "sweep-scenario1", "sweep-scenario2"}


def run_body(
    workload: str, seed: int, context: dict
) -> tuple[list[tuple[float, float]], list[float], dict[str, Any]]:
    """Run one workload body; returns ((start, end) of each segment on the
    monotonic clock, in order, host gauge samples, artefact -> value).

    One gauge sample (``gauge.py``) is taken before each segment and one
    after the last, so segment ``i`` ran between samples ``i`` and
    ``i + 1``; no sample falls inside a segment's time.  A raising
    segment makes its artefact the exception: its cells count as failed,
    and the rest of the workload still runs.
    """
    import gauge

    steps = BODIES[workload](seed, context)
    parts = collections.Counter(name for name, _ in steps)
    outputs: dict[str, Any] = {}
    windows: list[tuple[float, float]] = []
    gauges: list[float] = []
    for name, thunk in steps:
        gauges.append(gauge.sample())
        start = time.perf_counter()
        try:
            value = thunk()
        except Exception as exc:  # a raising cell is a failed cell
            value = exc
        windows.append((start, time.perf_counter()))
        previous = outputs.get(name)
        if isinstance(previous, Exception):
            continue
        if parts[name] > 1 and not isinstance(value, Exception):
            value = (previous or []) + list(value)
        outputs[name] = value
    gauges.append(gauge.sample())
    return windows, gauges, outputs


def segment_gauges(
    windows: list[tuple[float, float]],
    gauges: list[float],
    sampled: list[tuple[float, float]],
) -> list[float]:
    """The host gauge of each segment: the mean of the samples taken in
    its window by a sampler process, with the two samples around it."""
    result = []
    for index, (start, end) in enumerate(windows):
        inside = [seconds for at, seconds in sampled if start <= at < end]
        edges = [gauges[index], gauges[index + 1]]
        result.append(statistics.fmean(inside + edges))
    return result


# ----------------------------------------------------------------------
# Exports and checks
# ----------------------------------------------------------------------
def export_rows(name: str, value: Any) -> list[dict]:
    """One artefact's repr-exact export rows (the library's own)."""
    from repro.analysis import export

    if name == "table6":
        return export.table6_rows(value)
    if name in ("figure4-sim", "figure4-paper"):
        return export.figure4_rows(value)
    if name == "three-core":
        return export.three_core_rows(value)
    if name == "ablation":
        return export.ablation_rows(value)
    if name == "soundness":
        return export.soundness_rows(value)
    if name.startswith("sweep-"):
        return export.sweep_rows(value)
    if name == "deployment":
        return export.deployment_rows(value)
    if name == "dirty":
        return [
            {
                "with_dirty_cycles": value.with_dirty_cycles,
                "without_dirty_cycles": value.without_dirty_cycles,
            }
        ]
    if name == "matrix":
        return export.scenario_run_rows(value)
    if name == "family":
        return export.family_rows(value)
    raise KeyError(name)


def row_digest(row: dict) -> str:
    text = json.dumps(row, sort_keys=True)  # floats print repr-exact
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _sweep_violations(name: str, rows: list[dict]) -> set[int]:
    """Rows breaking monotonicity in load or the ceiling cap."""
    from repro import paper
    from repro.core.ilp_ptac import IlpPtacOptions, ilp_ptac_bound
    from repro.platform.deployment import named_scenarios
    from repro.platform.latency import tc27x_latency_profile

    scenario_name = name.split("-", 1)[1]
    ceiling = ilp_ptac_bound(
        paper.table6(scenario_name, "app"),
        None,
        tc27x_latency_profile(),
        named_scenarios()[scenario_name],
        IlpPtacOptions(contender_constraints=False),
    ).bound.delta_cycles
    bad = set()
    previous = None
    for index, row in enumerate(rows):
        delta = row["delta_cycles"]
        if delta > ceiling or row["saturated"] != (delta >= ceiling):
            bad.add(index)
        if previous is not None and (
            row["scale"] < previous["scale"]
            or delta < previous["delta_cycles"]
        ):
            bad.add(index)
        previous = row
    return bad


def _ablation_violations(rows: list[dict]) -> set[int]:
    """Rows breaking the information ladder: more information never
    loosens the bound (ideal <= ilp-ptac <= ftc-refined <= ftc-baseline)."""
    blind = {
        (row["scenario"], row["model"]): row["delta_cycles"]
        for row in rows
        if row["load"] == "-"
    }
    aware = {
        (row["scenario"], row["load"], row["model"]): row["delta_cycles"]
        for row in rows
        if row["load"] != "-"
    }
    bad = set()
    for index, row in enumerate(rows):
        scenario, load = row["scenario"], row["load"]
        looser = {
            "ftc-refined": blind.get((scenario, "ftc-baseline")),
            "ilp-ptac": blind.get((scenario, "ftc-refined")),
            "ideal": aware.get((scenario, load, "ilp-ptac")),
        }.get(row["model"])
        if looser is not None and row["delta_cycles"] > looser:
            bad.add(index)
    return bad


def invariant_violations(name: str, rows: list[dict]) -> tuple[set[int], float]:
    """Row indices breaking a seed-free invariant, and the largest
    paper-ratio error among them (0 where the artefact has none)."""
    from repro import paper

    bad: set[int] = set()
    ratio_err = 0.0
    if name in ("figure4-sim", "soundness", "matrix", "family"):
        # Every model in these artefacts is declared sound.
        bad = {i for i, row in enumerate(rows) if row["sound"] is False}
    elif name == "figure4-paper":
        for index, row in enumerate(rows):
            if row["paper_value"] is None:
                continue
            err = abs(row["slowdown"] - row["paper_value"])
            ratio_err = max(ratio_err, err)
            if err > paper.RATIO_TOLERANCE:
                bad.add(index)
    elif name.startswith("sweep-"):
        bad = _sweep_violations(name, rows)
    elif name == "ablation":
        bad = _ablation_violations(rows)
    elif name == "dirty":
        row = rows[0]
        if row["without_dirty_cycles"] > row["with_dirty_cycles"]:
            bad = {0}
    return bad, ratio_err


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_golden(workload: str) -> dict:
    try:
        with open(golden_path(workload), "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {"artefacts": {}}


@dataclasses.dataclass
class Verdict:
    """Outcome of checking one repetition's outputs."""

    attempted: int = 0
    failed: int = 0
    unsound_cells: int = 0
    expected_unsound: int = 0
    paper_ratio_err: float = 0.0
    digest: str = ""
    problems: list[str] = dataclasses.field(default_factory=list)
    digests: dict[str, list[str]] = dataclasses.field(default_factory=dict)


def check(workload: str, seed: int, outputs: dict[str, Any]) -> Verdict:
    """Check every cell against the golden rows and the invariants."""
    golden = load_golden(workload)["artefacts"]
    verdict = Verdict()
    for name, value in outputs.items():
        expected = golden.get(name)
        compare = expected is not None and (
            name not in SEEDED or seed == DEFAULT_SEED
        )
        if expected is not None and name not in SEEDED:
            verdict.expected_unsound += expected["unsound"]
        if isinstance(value, Exception):
            cells = len(expected["rows"]) if expected else 1
            verdict.attempted += cells
            verdict.failed += cells
            verdict.problems.append(f"{name}: raised {value!r}")
            continue
        rows = export_rows(name, value)
        digests = [row_digest(row) for row in rows]
        verdict.digests[name] = sorted(digests)
        bad, ratio_err = invariant_violations(name, rows)
        verdict.paper_ratio_err = max(verdict.paper_ratio_err, ratio_err)
        if bad:
            verdict.problems.append(
                f"{name}: {len(bad)} cells break an invariant"
            )
        missing = 0
        if compare:
            remaining = collections.Counter(expected["rows"])
            unmatched = set()
            for index, digest in enumerate(digests):
                if remaining[digest] > 0:
                    remaining[digest] -= 1
                else:
                    unmatched.add(index)
            missing = max(0, sum(remaining.values()) - len(unmatched))
            if unmatched or missing:
                verdict.problems.append(
                    f"{name}: {len(unmatched)} cells differ from golden, "
                    f"{missing} missing"
                )
            bad |= unmatched
        verdict.attempted += len(rows) + missing
        verdict.failed += len(bad) + missing
        verdict.unsound_cells += sum(
            1 for row in rows if row.get("sound") is False
        )
    if verdict.unsound_cells != verdict.expected_unsound:
        verdict.problems.append(
            f"{verdict.unsound_cells} unsound cells, golden has "
            f"{verdict.expected_unsound}"
        )
    verdict.digest = hashlib.sha256(
        json.dumps(verdict.digests, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return verdict


def write_golden(workload: str, seed: int, outputs: dict[str, Any]) -> None:
    """Capture the golden rows of a known-good commit at ``seed``."""
    document = {"seed": seed, "artefacts": {}}
    for name, value in outputs.items():
        if isinstance(value, Exception):
            raise value
        rows = export_rows(name, value)
        document["artefacts"][name] = {
            "rows": sorted(row_digest(row) for row in rows),
            "unsound": sum(1 for row in rows if row.get("sound") is False),
        }
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(workload), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
