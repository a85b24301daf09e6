"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so no process-global
memo (the weak-keyed compile cache, the thread-local warm ILP pool, the
``StandardForm`` memo) carries over between repetitions.  By hand::

    python3 perfbench/body.py sim-artefacts 1 [--trace PATH] [--setup-only]

Protocol on stdout: ``READY <before> <after>`` once set-up is done —
``repro.cli`` imported and its parser built, plus, for
``service-matrix``, the coordinator up and both workers registered; the
parent times set-up up to that line, and ``before`` and ``after`` are the
seconds of the host gauge samples (``gauge.py``) taken around it — then
one JSON line with the repetition's outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gauge  # noqa: E402  (the benchmark's own modules, beside this file)
import tracing  # noqa: E402


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", metavar="PATH", help="write spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--state-root", default=None)
    args = parser.parse_args()
    # SIGTERM from the parent unwinds through the finally blocks below,
    # so the worker subprocesses are reaped on every exit path.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    tracer = tracing.Tracer(args.workload) if args.trace else None
    before = gauge.sample()
    with tracer.span("setup.import") if tracer else contextlib.nullcontext():
        import repro.cli

        repro.cli.build_parser()
    if tracer is not None:
        tracing.install(tracer)

    import workloads

    state_dir = tempfile.mkdtemp(prefix="state-", dir=args.state_root)
    fleet = sampler = None
    context: dict = {"state_dir": state_dir}
    service = {}
    sampled: list[tuple[float, float]] = []
    try:
        if args.workload == "service-matrix":
            fleet = workloads.Fleet(
                state_dir, trace_dir=state_dir if tracer else None
            )
            context["fleet"] = fleet
            fleet.start()
        print(f"READY {before!r} {gauge.sample()!r}", flush=True)
        if args.setup_only:
            return 0
        if fleet is None:
            # A serial body and its sampler share one vCPU, so the
            # sampler gauges the vCPU the body runs on.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        sampler = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "gauge.py"),
                str(workloads.SAMPLER_INTERVAL_S),
            ],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        first = sampler.stdout.readline()  # the sampler has started up
        windows, gauges, outputs = workloads.run_body(
            args.workload, args.seed, context
        )
        sampler.terminate()
        lines = [first, *sampler.communicate()[0].splitlines()]
        sampled = [tuple(map(float, line.split())) for line in lines]
        engine = context.get("engine")
        if engine is not None:
            stats = engine.service_stats
            service = {
                "fallbacks": engine.stats.fallbacks,
                "abandoned": stats.abandoned if stats else 0,
                "units": fleet.completed_units(),
            }
    finally:
        if sampler is not None and sampler.poll() is None:
            sampler.kill()
            sampler.wait()
        if fleet is not None:
            fleet.stop()
        exports = [tracer.export()] if tracer else []
        for path in fleet.trace_files if fleet else ():
            if os.path.exists(path):  # a killed worker leaves no spans
                with open(path, "r", encoding="utf-8") as handle:
                    exports.append(json.load(handle))
        shutil.rmtree(state_dir, ignore_errors=True)

    if args.update_golden:
        workloads.write_golden(args.workload, args.seed, outputs)
    verdict = workloads.check(args.workload, args.seed, outputs)
    # A silent local fallback measures a different program: every cell
    # the engine finished in-process (an abandoned batch included) fails.
    fallbacks = service.get("fallbacks", 0)
    result = {
        "wall_s": sum(end - start for start, end in windows),
        "segments": [end - start for start, end in windows],
        "gauges": workloads.segment_gauges(windows, gauges, sampled),
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": verdict.attempted,
        "failed": verdict.failed + fallbacks,
        "unsound_cells": verdict.unsound_cells,
        "paper_ratio_err": verdict.paper_ratio_err,
        "digest": verdict.digest,
        "problems": verdict.problems
        + ([f"{fallbacks} cells fell back to local execution"] if fallbacks else []),
    }
    if tracer is not None:
        layers = tracing.layer_metrics(exports)
        layers["service.units"] = service.get("units", 0)
        layers["service.abandoned"] = service.get("abandoned", 0)
        result["layers"] = layers
        tracing.write_json(args.trace, tracing.chrome_trace(exports))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
