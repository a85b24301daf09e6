"""The repository's end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-artefacts --seed 1 --seconds 32 --trace 0

Each repetition runs in a fresh interpreter (``body.py``); repetitions
repeat until ``--seconds`` have passed (at least :data:`MIN_REPS`) and
medians over them are reported.  Times are counted against the host
gauge of ``gauge.py`` and reported at :data:`GAUGE_REFERENCE_S`, because
a shared host's speed swings too much for plain wall time.  With ``--trace 0`` the result carries the
end-to-end metrics, measured with no wrapper installed; with ``--trace
1`` it carries the per-layer metrics of traced repetitions, plus the
tracing overhead against one untraced repetition of the same run, and
writes a Chrome trace-event file under ``.perfbench/``.

``--update-golden`` re-captures the golden cell digests from the current
sources (do it only at a commit whose outputs are known good).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (neither module imports repro at load time)
import workloads  # noqa: E402

#: Fewest workload repetitions in a run.
MIN_REPS = 3

#: Fewest set-up samples behind the reported ``setup_s`` median.
MIN_SETUPS = 7

#: A gauge sample (``gauge.py``) on the host of the first baseline when
#: it was quiet; ``norm_wall_s`` is the body's time at that host speed.
GAUGE_REFERENCE_S = 0.005

#: Hard cap on one run, under the 180 s a run may take.
RUN_BUDGET_S = 170.0

#: Metric names and units, from the benchmark's declaration.
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _f:
    DECLARED = json.load(_f)


class RepFailed(Exception):
    """A repetition crashed, timed out or printed no result."""


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a repetition and everything it started, then reap it."""
    for sig, grace in ((signal.SIGTERM, 20.0), (signal.SIGKILL, None)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=grace)
            break
        except subprocess.TimeoutExpired:
            continue
    proc.wait()


def run_rep(
    workload: str,
    seed: int,
    deadline: float,
    *,
    trace: str | None = None,
    setup_only: bool = False,
    update_golden: bool = False,
) -> tuple[float, dict | None]:
    """One repetition: (set-up seconds at the reference host speed,
    result document or None)."""
    command = [
        sys.executable, os.path.join(HERE, "body.py"), workload, str(seed),
        "--state-root", OUT_DIR,
    ]
    if trace:
        command += ["--trace", trace]
    if setup_only:
        command.append("--setup-only")
    if update_golden:
        command.append("--update-golden")
    # str hashing orders some solver sets: a fixed hash seed makes the
    # simplex path, and so the effort counters, repeat exactly.
    env = dict(os.environ, PYTHONHASHSEED="0", REPRO_GIT_REV="perfbench")
    start = time.perf_counter()
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        env=env,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        words = ready.split()
        if len(words) != 3 or words[0] != "READY":
            raise RepFailed(f"set-up failed: {ready.strip()!r}")
        # Set-up at the reference host speed, without the gauge samples'
        # own time: the gauges were taken just before and after it.
        before, after = float(words[1]), float(words[2])
        setup_s = (
            (setup_s - before - after) * GAUGE_REFERENCE_S * 2 / (before + after)
        )
        remaining = max(1.0, deadline - time.perf_counter())
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed("repetition ran past the run budget") from exc
    finally:
        if proc.poll() is None:
            _kill_group(proc)
    if proc.returncode != 0:
        raise RepFailed(f"repetition exited with {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RepFailed("repetition printed no result")
    return setup_s, json.loads(lines[-1])


def norm_wall_s(results: list[dict]) -> float:
    """The body's time at the reference host speed.

    Each segment's wall time is divided by its gauge (the host gauge
    samples around it, see ``workloads.segment_gauges``), so it is
    counted in gauge units at the host speed of that moment; the median
    over the repetitions is taken per segment, and the sum is scaled back
    to seconds by :data:`GAUGE_REFERENCE_S`.
    """
    per_rep = [
        [seconds / g for seconds, g in zip(r["segments"], r["gauges"])]
        for r in results
    ]
    return GAUGE_REFERENCE_S * sum(
        statistics.median(units) for units in zip(*per_rep)
    )


def gauges(results: list[dict]) -> list[float]:
    return [g for r in results for g in r["gauges"]]


def _median(values):
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args: argparse.Namespace) -> tuple[dict, list[dict], list[str]]:
    """Run repetitions until the time is up; returns (metrics, results,
    problems)."""
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    measure_until = started + args.seconds
    setups: list[float] = []
    results: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    trace_file = os.path.join(
        OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
    )
    if args.trace:
        # One untraced repetition as the overhead baseline, then traced
        # ones until the time is up.
        setup_s, result = run_rep(args.workload, args.seed, deadline)
        setups.append(setup_s)
        results.append(result)
        while len(traced) < MIN_REPS or time.perf_counter() < measure_until:
            _, result = run_rep(
                args.workload, args.seed, deadline, trace=trace_file
            )
            traced.append(result)
    else:
        last = 0.0
        while len(results) < MIN_REPS or (
            time.perf_counter() + last / 2 < measure_until
        ):
            begun = time.perf_counter()
            setup_s, result = run_rep(
                args.workload, args.seed, deadline,
                update_golden=args.update_golden and not results,
            )
            last = time.perf_counter() - begun
            setups.append(setup_s)
            results.append(result)
        while len(setups) < MIN_SETUPS:
            setup_s, _ = run_rep(
                args.workload, args.seed, deadline, setup_only=True
            )
            setups.append(setup_s)

    everything = results + traced
    for index, result in enumerate(everything):
        print(
            f"rep {index}: wall {result['wall_s']:.3f}s "
            f"rss {result['peak_rss_mb']:.1f}MB "
            f"cells {result['attempted'] - result['failed']}/"
            f"{result['attempted']} digest {result['digest']}"
            + (" (traced)" if "layers" in result else "")
        )
        problems.extend(result["problems"])
    digests = {result["digest"] for result in everything}
    if len(digests) != 1:
        problems.append(f"outputs differ between repetitions: {digests}")
    print(f"setup samples: {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"output digest: {sorted(digests)[0]}")

    if not args.trace:
        print(
            f"wall median {_median([r['wall_s'] for r in results]):.3f}s, "
            f"gauge median {_median(gauges(results)) * 1e3:.3f}ms "
            f"(reference {GAUGE_REFERENCE_S * 1e3:.0f}ms)"
        )
        measured = {
            "norm_wall_s": norm_wall_s(results),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
        }
        metrics = {
            m["name"]: _metric(measured[m["name"]], m["unit"])
            for m in DECLARED["end_to_end"]
        }
        return metrics, everything, problems

    layers = [result["layers"] for result in traced]
    for name in workloads_deterministic(args.workload):
        values = {layer.get(name, 0) for layer in layers}
        if len(values) != 1:
            problems.append(f"counter {name} differs between runs: {values}")
    untraced_wall = results[0]["wall_s"]
    # Overhead and request rate at the reference host speed, as
    # norm_wall_s: plain wall times of single repetitions swing too much.
    untraced = norm_wall_s(results)
    traced_norm = norm_wall_s(traced)
    metrics = {}
    for declared in DECLARED["per_layer"]:
        values = [layer.get(declared["name"], 0) for layer in layers]
        # Counts that repeat are reported exactly, times as medians.
        value = values[0] if len(set(values)) == 1 else _median(values)
        metrics[declared["name"]] = _metric(value, declared["unit"])
    metrics["wall_s"]["value"] = untraced_wall
    metrics["trace.overhead_s"]["value"] = traced_norm - untraced
    metrics["sim.requests_per_s"]["value"] = (
        metrics["sim.requests"]["value"] / untraced
    )
    metrics["paper_ratio_err"]["value"] = max(
        r["paper_ratio_err"] for r in everything
    )
    metrics["unsound_cells"]["value"] = results[0]["unsound_cells"]
    print_layer_table(metrics, untraced, traced_norm)
    print(f"trace written to {os.path.relpath(trace_file, ROOT)}")
    return metrics, everything, problems


def workloads_deterministic(workload: str) -> tuple[str, ...]:
    """Counters that must repeat exactly on ``workload``."""
    if workload == "service-matrix":
        # Which worker's warm pool a cell lands on decides its simplex
        # path, so the service's ILP effort may vary between runs.
        return tuple(
            name
            for name in tracing.DETERMINISTIC
            if name not in ("ilp.simplex_iterations", "ilp.bnb_nodes")
        )
    return tracing.DETERMINISTIC


def print_layer_table(metrics: dict, untraced: float, traced: float) -> None:
    """Per-layer self time (summed over every process) and counts."""
    print(f"{'layer metric':<26} {'value':>16}  unit")
    for name, metric in metrics.items():
        print(f"{name:<26} {metric['value']:>16.6g}  {metric['unit']}")
    print(
        f"norm_wall_s untraced {untraced:.3f}s, traced {traced:.3f}s, "
        f"overhead {traced - untraced:+.3f}s"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(
            "perfbench: no repro sources under src/ — run from the root of "
            "a repository checkout",
            file=sys.stderr,
        )
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        metrics, results, problems = measure(args)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    for problem in sorted(set(problems)):
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
