"""Simulator throughput: the cost of the hardware substitute.

Not a paper artefact — infrastructure health.  Measures event-engine
throughput (SRI transactions simulated per second) for isolation runs and
co-runs across workload sizes, so regressions in the hot loop show up in
benchmark history.

Since the compiled-program engine landed, this file also carries its
acceptance benchmark: run the same scenario-1 workloads through
:class:`SystemSimulator` and the step-generator oracle
(``tests/oracles/sim_reference.py``), assert the results are
**byte-identical** (pickled :class:`SimResult` bytes compare equal), and
assert the library engine delivers **at least 3x** the co-run
requests-per-second of the oracle.  The measured numbers land
in the session's JSON report (``.benchmarks/engine_report.json``) via
the shared ``report`` fixture and seed the repo's ``BENCH_SIM.json``.

The DMA back-pressure record does the same for one saturating
``dma-pressure`` member (a period-2, depth-8 agent above the app's
priority on the LMU) and also reports the library engine's event pushes
per kind, where parking a full agent and granting its issues inline
remove most of the tick and arbitration events.  The lone-survivor
record does it for a member whose period-24 agent outlives the app by
361,856 cycles, and asserts the pushes per kind: the agent finishes in
closed form at the first tick that finds it alone.

The compile record compiles both reference scenarios' application and
H/M/L loads at scale 1/16, the best of :data:`COMPILE_REPEATS` compiles
of a fresh program each, and asserts that every compile, and the
builder's own program, equals the step-walk compile of the spec's
per-request oracle steps (``tests/oracles/spec_steps.py``).
"""

import dataclasses
import pickle
import time

import numpy as np
import pytest

import repro.sim.system as system
from oracles.sim_reference import ReferenceSimulator
from oracles.spec_steps import oracle_spec_steps
from repro.analysis.report import render_table
from repro.engine.families import expand_family
from repro.platform.deployment import scenario_1, scenario_2
from repro.sim.program import compile_program, program_from_steps
from repro.sim.system import SystemSimulator
from repro.workloads.control_loop import _control_loop_spec, build_control_loop
from repro.workloads.loads import LOAD_LEVELS, _load_spec, build_load
from sim_events import counted_pushes

#: The library engine and its oracle, under the report's labels.
ENGINES = {"compiled": SystemSimulator, "reference": ReferenceSimulator}

#: Acceptance criterion: the library engine must simulate the co-run
#: case at least this many times faster than the step-generator oracle.
MIN_CORUN_SPEEDUP = 3.0

#: The back-pressure record's member: the app against a higher-priority
#: DMA agent that saturates the LMU (period 2) through a depth-8 queue.
DMA_MEMBER = "dma-pressure/scenario1-qd8-p2-c8000"

#: The lone-survivor record's member: the app (done at cycle 22,131)
#: against a higher-priority period-24, depth-1 LMU agent that runs to
#: cycle 383,987.
LONE_MEMBER = "dma-pressure/scenario2-qd1-p24-c16000"

#: The library engine's pushes per kind on the lone-survivor member.
#: They are deterministic, so they are asserted (walking the agent's
#: whole run would push 16,000 ticks and 16,031 completions).
LONE_PUSHES = {
    "step": 1,
    "issue": 17,
    "complete": 497,
    "dma_tick": 467,
    "grant": 1,
}

#: Compiles per workload in the compile record (the best one counts).
COMPILE_REPEATS = 5

#: Report names of the library engine's event kinds.
EVENT_KINDS = {
    system._STEP: "step",
    system._ISSUE: "issue",
    system._COMPLETE: "complete",
    system._DMA_TICK: "dma_tick",
    system._GRANT: "grant",
}


@pytest.mark.benchmark(group="sim-throughput")
@pytest.mark.parametrize("denominator", [256, 64, 16])
def test_isolation_throughput(benchmark, denominator):
    program, _ = build_control_loop(scenario_1(), scale=1 / denominator)
    requests = program.request_count()
    sim = SystemSimulator()

    result = benchmark(lambda: sim.run({1: program}))

    assert result.core(1).profile.total == requests
    benchmark.extra_info["sri_requests"] = requests


@pytest.mark.benchmark(group="sim-throughput")
def test_corun_throughput(benchmark):
    scale = 1 / 64
    app, _ = build_control_loop(scenario_1(), scale=scale)
    load = build_load("scenario1", "H", scale=scale)
    sim = SystemSimulator()

    result = benchmark(lambda: sim.run({1: app, 2: load}))

    assert result.core(1).total_wait_cycles > 0
    benchmark.extra_info["sri_requests"] = (
        app.request_count() + load.request_count()
    )


def _best_seconds(run, repeats=3):
    """Best-of-N wall time of ``run()`` (steady state, compile cached)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.benchmark(group="sim-throughput")
def test_engine_equivalence_and_speedup(benchmark, report):
    """Library engine = oracle, only >= 3x faster on co-runs."""
    scale = 1 / 16
    scenario = scenario_1()
    app, _ = build_control_loop(scenario, scale=scale)
    load = build_load("scenario1", "H", scale=scale)
    iso_requests = app.request_count()
    corun_requests = iso_requests + load.request_count()

    cases = {
        "isolation": {1: app},
        "corun": {1: app, 2: load},
    }
    rows = []
    payload = {"scenario": scenario.name, "scale": scale}
    speedups = {}
    for label, programs in cases.items():
        requests = iso_requests if label == "isolation" else corun_requests
        seconds = {}
        pickles = {}
        for engine, simulator in ENGINES.items():
            sim = simulator()
            # Warm once outside the timed region: the first compiled run
            # pays the one-off step-stream flattening that later runs
            # (and every sweep in practice) amortise away.
            sim.run(programs)
            if label == "corun" and engine == "compiled":
                # The headline number doubles as the tracked benchmark.
                result = benchmark.pedantic(
                    lambda: sim.run(programs), rounds=3, iterations=1
                )
                seconds[engine] = benchmark.stats.stats.min
            else:
                seconds[engine], result = _best_seconds(
                    lambda: sim.run(programs)
                )
            pickles[engine] = pickle.dumps(result)

        # The engines must be indistinguishable to every consumer:
        # identical pickled bytes covers counters, stats and artifacts.
        assert pickles["compiled"] == pickles["reference"], (
            f"{label}: the library engine and the oracle diverged"
        )

        rps = {
            engine: requests / seconds[engine] if seconds[engine] else 0.0
            for engine in ENGINES
        }
        speedup = seconds["reference"] / max(seconds["compiled"], 1e-12)
        speedups[label] = speedup
        rows.append(
            [
                label,
                requests,
                f"{rps['reference']:,.0f}",
                f"{rps['compiled']:,.0f}",
                f"{speedup:.2f}x",
            ]
        )
        payload[label] = {
            "sri_requests": requests,
            "reference_seconds": round(seconds["reference"], 4),
            "compiled_seconds": round(seconds["compiled"], 4),
            "reference_rps": round(rps["reference"], 1),
            "compiled_rps": round(rps["compiled"], 1),
            "speedup": round(speedup, 3),
            "byte_identical": True,
        }

    benchmark.extra_info["sri_requests"] = corun_requests
    assert speedups["corun"] >= MIN_CORUN_SPEEDUP, (
        f"library engine ran the co-run only {speedups['corun']:.2f}x "
        f"faster than the oracle; the compiled-program engine "
        f"promises >= {MIN_CORUN_SPEEDUP}x"
    )

    report.add(
        "P2 — compiled vs reference sim engine (scenario 1, scale 1/16)",
        render_table(
            ["case", "requests", "ref req/s", "compiled req/s", "speedup"],
            rows,
        ),
    )
    report.record("sim_engine_scaling", payload)


def _member_run(benchmark, name):
    """Run one ``dma-pressure`` member on both engines (the library's
    under ``benchmark``), assert byte-identical results, and count the
    library engine's heap pushes per kind."""
    (member,) = (m for m in expand_family("dma-pressure") if m.name == name)
    spec = member.spec
    programs = spec.programs()
    agents = spec.dma_agents()
    kwargs = {
        "arbitration": spec.arbitration,
        "priorities": spec.priority_map(),
    }
    seconds = {}
    pickles = {}
    for engine, simulator in ENGINES.items():
        sim = simulator(**kwargs)
        sim.run(programs, agents)  # warm: compile outside the timing
        if engine == "compiled":
            result = benchmark.pedantic(
                lambda: sim.run(programs, agents), rounds=3, iterations=1
            )
            seconds[engine] = benchmark.stats.stats.min
        else:
            seconds[engine], result = _best_seconds(
                lambda: sim.run(programs, agents)
            )
        pickles[engine] = pickle.dumps(result)
    assert pickles["compiled"] == pickles["reference"], (
        f"{name}: the library engine and the oracle diverged"
    )

    with counted_pushes() as counts:
        SystemSimulator(**kwargs).run(programs, agents)
    pushes = {EVENT_KINDS[kind]: counts[kind] for kind in sorted(counts)}
    transactions = sum(
        stats.count
        for core in result.cores.values()
        for stats in core.transactions.values()
    ) + sum(agent.served for agent in result.dma.values())
    benchmark.extra_info["sri_requests"] = transactions
    return result, {
        "member": name,
        "sri_requests": transactions,
        "reference_seconds": round(seconds["reference"], 4),
        "compiled_seconds": round(seconds["compiled"], 4),
        "speedup": round(
            seconds["reference"] / max(seconds["compiled"], 1e-12), 3
        ),
        "byte_identical": True,
        "pushes": pushes,
    }


def _member_table(payload):
    return render_table(
        ["transactions", "ref s", "compiled s", "speedup", "pushes"],
        [
            [
                payload["sri_requests"],
                f"{payload['reference_seconds']:.4f}",
                f"{payload['compiled_seconds']:.4f}",
                f"{payload['speedup']:.2f}x",
                " ".join(f"{k}={v}" for k, v in payload["pushes"].items()),
            ]
        ],
    )


@pytest.mark.benchmark(group="sim-throughput")
def test_dma_back_pressure(benchmark, report):
    """Library engine = oracle on a saturating DMA member; reports the
    speedup over the oracle and the library's event pushes per kind."""
    _, payload = _member_run(benchmark, DMA_MEMBER)
    report.add(
        f"P2b — DMA back-pressure ({DMA_MEMBER})", _member_table(payload)
    )
    report.record("sim_dma_back_pressure", payload)


@pytest.mark.benchmark(group="sim-throughput")
def test_lone_survivor(benchmark, report):
    """Library engine = oracle on a member whose DMA agent outlives the
    app by 361,856 cycles, with the library's pushes per kind pinned:
    the agent's tail after the app ends costs one tick."""
    result, payload = _member_run(benchmark, LONE_MEMBER)
    assert result.core(1).readings.ccnt == 22_131
    assert result.dma_result(9).finish_time == 383_987
    assert payload["pushes"] == LONE_PUSHES, payload["pushes"]
    report.add(
        f"P2c — lone survivor ({LONE_MEMBER})", _member_table(payload)
    )
    report.record("sim_lone_survivor", payload)


def _reference_workloads(scale):
    """Label -> (the builder's program, the spec behind it) for both
    reference scenarios' application and H/M/L loads."""
    workloads = {}
    for scenario in (scenario_1(), scenario_2()):
        program, layout = build_control_loop(scenario, scale=scale)
        spec, _ = _control_loop_spec(scenario.name, scale, "app")
        workloads[f"{scenario.name}/app"] = (
            program,
            dataclasses.replace(spec, epilogue_gap=layout.epilogue_gap),
        )
        for level in LOAD_LEVELS:
            workloads[f"{scenario.name}/{level}-Load"] = (
                build_load(scenario.name, level, scale=scale),
                _load_spec(scenario.name, level, scale),
            )
    return workloads


def _assert_same_compile(compiled, expected, label):
    assert np.array_equal(compiled.gaps, expected.gaps), label
    assert np.array_equal(compiled.request_ids, expected.request_ids), label
    assert compiled.requests == expected.requests, label
    assert compiled.final_gap == expected.final_gap, label


@pytest.mark.benchmark(group="sim-compile")
def test_compile(benchmark, report):
    """Every reference workload at 1/16 compiles to the arrays of its
    oracle step walk; reports the best-of-N compile per workload."""
    scale = 1 / 16
    workloads = _reference_workloads(scale)
    rows = []
    records = {}
    for label, (program, spec) in workloads.items():
        expected = compile_program(
            program_from_steps(spec.name, oracle_spec_steps(spec))
        )
        _assert_same_compile(program.compiled(), expected, label)
        best = float("inf")
        for _ in range(COMPILE_REPEATS):
            fresh = spec.program()
            start = time.perf_counter()
            compiled = compile_program(fresh)
            best = min(best, time.perf_counter() - start)
            _assert_same_compile(compiled, expected, label)
        rows.append(
            [label, len(spec.blocks), compiled.n_requests, f"{best * 1e3:.3f}"]
        )
        records[label] = {
            "blocks": len(spec.blocks),
            "sri_requests": compiled.n_requests,
            "compile_seconds": round(best, 6),
        }

    specs = [spec for _, spec in workloads.values()]
    benchmark.pedantic(
        lambda: [compile_program(spec.program()) for spec in specs],
        rounds=COMPILE_REPEATS,
        iterations=1,
    )
    benchmark.extra_info["sri_requests"] = sum(
        record["sri_requests"] for record in records.values()
    )
    report.add(
        "P2d — reference workload compiles (scale 1/16, best of "
        f"{COMPILE_REPEATS})",
        render_table(["workload", "blocks", "requests", "compile ms"], rows),
    )
    report.record(
        "sim_compile",
        {
            "scale": scale,
            "repeats": COMPILE_REPEATS,
            "workloads": records,
            "total_compile_seconds": round(
                sum(record["compile_seconds"] for record in records.values()),
                6,
            ),
        },
    )
