"""Command-line interface: regenerate any paper artefact from a shell.

Usage (after ``pip install -e .``, as ``repro`` or ``python -m repro``)::

    repro table2                 # Table 2 via characterisation
    repro table3                 # placement matrix
    repro table6 --scale 16      # counter readings at 1/16 scale
    repro figure4                # paper-counters mode
    repro figure4 --mode sim --scale 32 --jobs 4
    repro ablation               # information-degree ladder
    repro soundness --pairs 5    # randomized soundness sweep
    repro sweep                  # contender-load sweep curve
    repro three-core             # TC277 joint-contention evaluation
    repro scenarios              # registered deployment scenarios
    repro models                 # registered contention models
    repro families               # registered scenario families
    repro family dma-pressure --model dma-occupancy --jobs 4
    repro run scenario1-4core    # any registered spec, end to end
    repro matrix --jobs 4        # every model x every scenario spec
    repro platform               # Figure 1 block diagram
    repro serve --port 8751      # the analysis-service coordinator
    repro worker --coordinator http://127.0.0.1:8751   # dial-in worker
    repro matrix --coordinator http://127.0.0.1:8751   # run on the workers
    repro submit --coordinator http://127.0.0.1:8751 family dma-pressure
    repro watch JOB --coordinator http://127.0.0.1:8751
    repro jobs --workers --coordinator http://127.0.0.1:8751
    repro jobs --cancel JOB --coordinator http://127.0.0.1:8751
    repro --profile out.prof figure4   # cProfile any command
    repro store --cache-dir .cache    # recorded runs in the result store
    repro diff latest~1 latest --cache-dir .cache   # regression report
    repro cache --cache-dir .cache --prune          # drop stale versions

Every command prints the same rendering the benchmark suite produces, so
shell users and CI logs see identical artefacts.  Commands that fan out
over independent jobs accept ``--jobs N`` to execute on the experiment
engine's process pool; results are identical to serial runs, and a
shared per-invocation result cache deduplicates repeated work.  Passing
``--cache-dir PATH`` persists that cache to disk, making figure
regeneration incremental *across* invocations and CI runs — and records
every completed job into the result store beside it, so ``repro diff``
can compare any two invocations afterwards.  ``--coordinator URL``
queues the batch on a ``repro serve`` coordinator instead, whose
registered ``repro worker`` processes — on this host or any other —
execute it (``mode="service"``; see :mod:`repro.service` for the
three-terminal quickstart).  Commands that run contention models accept
``--model`` with any registered name (see ``repro models``).

``figure4`` (paper mode), ``matrix``, ``family`` and ``soundness`` run
as one engine batch each, so they can also be queued fire-and-forget:
``repro submit NAME ARGV...`` parses ``NAME ARGV...`` exactly as the
direct command does and queues the same jobs, and ``repro watch``
renders the results with the direct command's renderer.  Each of them
is defined once — its subparser, its job builder and its renderer.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
import threading
from typing import Any, Callable, Iterator, Sequence

from repro import paper
from repro.analysis.characterization import characterize
from repro.analysis.experiments import (
    figure4_paper_jobs,
    figure4_sim_mode,
    information_ablation,
    model_scenario_matrix_jobs,
    table6_sim_mode,
)
from repro.analysis.report import (
    render_ablation,
    render_artifact,
    render_figure4,
    render_latency_table,
    render_models,
    render_placement_table,
    render_soundness,
    render_table,
    render_table6,
)
from repro.analysis.sweeps import contender_scale_sweep
from repro.analysis.three_core import three_core_experiment
from repro.analysis.validation import SoundnessSweep, random_soundness_jobs
from repro.core.registry import default_model_registry
from repro.engine import (
    ExperimentArtifact,
    ExperimentEngine,
    ResultCache,
    default_family_registry,
    default_registry,
    expand_family,
    family_jobs,
    family_results,
    run_jobs,
    run_specs,
)
from repro.errors import ReproError
from repro.platform.deployment import scenario_1, scenario_2
from repro.platform.tc27x import tc277
from repro.store import ResultStore


def _engine(args: argparse.Namespace) -> ExperimentEngine | None:
    """Build the execution engine a command asked for (None = serial).

    ``--coordinator URL`` runs the batch on ``mode="service"`` (queued
    on a `repro serve` coordinator); otherwise ``--jobs N`` (N > 1)
    turns on the local process pool.
    ``--cache-dir`` turns on disk-persistent result caching in every
    case (serial execution unless combined with one of the others) and
    attaches the directory's result store, so the invocation is recorded
    as one diffable run.  The instance is remembered on ``args`` so
    :func:`main` can shut its worker pool down once the command returns.
    """
    jobs = getattr(args, "jobs", 1)
    cache_dir = getattr(args, "cache_dir", None)
    store = ResultStore(cache_dir) if cache_dir is not None else None
    coordinator = getattr(args, "coordinator", None)
    if coordinator:
        engine = ExperimentEngine(
            mode="service",
            coordinator_url=coordinator,
            cache=ResultCache(directory=cache_dir),
            store=store,
        )
    elif jobs > 1 or cache_dir is not None:
        engine = ExperimentEngine(
            mode="process" if jobs > 1 else "serial",
            workers=jobs if jobs > 1 else None,
            cache=ResultCache(directory=cache_dir),
            store=store,
        )
    else:
        return None
    args._engine_instance = engine
    return engine


def _positive_int(text: str) -> int:
    """argparse type of the count flags (``--scale``, ``--pairs``,
    ``--requests``, ``--jobs``): an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


#: Longest value a duration flag takes.  Half of ``threading.TIMEOUT_MAX``
#: leaves room for the poll backoff's jitter (a delay grows by up to 10%):
#: ``time.sleep`` refuses ``TIMEOUT_MAX`` itself and overflows above it.
_MAX_DURATION_S = threading.TIMEOUT_MAX / 2


def _positive_float(text: str) -> float:
    """argparse type of the duration flags (``watch --poll``/``--timeout``,
    ``serve --lease-seconds``/``--worker-ttl``): a finite number above 0
    and at most :data:`_MAX_DURATION_S`.  NaN is refused too: no deadline
    ever passes it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0, got {text}"
        )
    if value > _MAX_DURATION_S:
        raise argparse.ArgumentTypeError(
            f"must be at most {_MAX_DURATION_S:g} seconds, got {text}"
        )
    return value


#: The engine flags (dest → flag).  They stay unset unless given, which
#: is how `repro submit` spots and refuses them.
_ENGINE_FLAGS = {
    "jobs": "--jobs",
    "coordinator": "--coordinator",
    "cache_dir": "--cache-dir",
}


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="fan independent jobs out over N worker processes",
    )
    parser.add_argument(
        "--coordinator",
        default=argparse.SUPPRESS,
        metavar="URL",
        help=(
            "`repro serve` coordinator URL; queues the batch on the "
            "analysis service (mode='service', overrides --jobs)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        metavar="PATH",
        help=(
            "persist the result cache under PATH so repeated invocations "
            "skip already-computed jobs"
        ),
    )


def _render_or_write(
    args: argparse.Namespace,
    item: ExperimentArtifact,
    noun: str,
    render: Callable[[], str] | None = None,
) -> str:
    """Write ``item``'s records to ``--export PATH`` when given, else
    render it (``render_artifact`` unless the command has its own)."""
    if args.export:
        from repro.analysis.export import write_artifact

        write_artifact(item, args.export)
        return f"wrote {len(item)} {noun} to {args.export}"
    return render() if render is not None else render_artifact(item)


def _scenario(args: argparse.Namespace):
    return scenario_1() if args.scenario == 1 else scenario_2()


def _cmd_table2(args: argparse.Namespace) -> str:
    result = characterize()
    return render_latency_table(
        result.profile, title="Table 2 (measured on the simulator)"
    )


def _cmd_table3(args: argparse.Namespace) -> str:
    return render_placement_table(title="Table 3")


def _cmd_table6(args: argparse.Namespace) -> str:
    scale = 1 / args.scale
    return render_table6(
        table6_sim_mode(scale=scale, engine=_engine(args)), scale=scale
    )


# ----------------------------------------------------------------------
# Single-batch commands: `repro submit` queues them, `repro watch`
# renders them.  Each has one subparser, one job builder and one
# renderer, shared by all three ways of running it.
# ----------------------------------------------------------------------
def _figure4_models(args: argparse.Namespace) -> dict:
    return {"models": tuple(args.model)} if args.model else {}


def _figure4_jobs(args: argparse.Namespace) -> list:
    if args.mode == "sim":
        raise ReproError(
            "figure4 --mode sim runs in two phases (its measurements "
            "feed the models), so it cannot be queued as one job; run "
            "`repro figure4 --mode sim --coordinator URL` instead"
        )
    return figure4_paper_jobs(**_figure4_models(args))


def _figure4_render(rows: Sequence[Any], args: argparse.Namespace) -> str:
    from repro.analysis.export import figure4_artifact

    if args.mode == "paper":
        title = "Figure 4 (paper-counters mode)"
    else:
        title = f"Figure 4 (simulation mode, scale 1/{args.scale})"
    return _render_or_write(
        args,
        figure4_artifact(rows, title=title),
        "rows",
        lambda: render_figure4(rows, title=title),
    )


def _matrix_jobs(args: argparse.Namespace) -> list:
    return model_scenario_matrix_jobs(
        models=tuple(args.model) if args.model else None,
        specs=tuple(args.spec) if args.spec else None,
    )


def _matrix_render(results: Sequence[Any], args: argparse.Namespace) -> str:
    from repro.analysis.export import matrix_artifact

    item = matrix_artifact(
        results,
        title=(
            "Model × scenario matrix "
            f"({len({r.model for r in results})} models × "
            f"{len({r.spec_name for r in results})} specs)"
        ),
    )
    return _render_or_write(args, item, "matrix cells")


def _family_jobs(args: argparse.Namespace) -> list:
    return family_jobs(
        args.family,
        models=args.model,
        matrix=args.matrix,
        members=args.member,
    )


def _family_render(results: Sequence[Any], args: argparse.Namespace) -> str:
    from repro.analysis.export import family_artifact

    rows = family_results(args.family, results)
    # --matrix, or several counter-based models, ran the family matrix.
    if args.matrix or len({row.run.model for row in rows}) > 1:
        title = f"Family matrix ({args.family}, {len(rows)} cells)"
    else:
        title = f"Family run ({args.family}, {len(rows)} member runs)"
    return _render_or_write(
        args, family_artifact(rows, title=title), "member runs"
    )


def _soundness_jobs(args: argparse.Namespace) -> list:
    return random_soundness_jobs(
        _scenario(args),
        pairs=args.pairs,
        max_requests=args.requests,
    )


def _soundness_render(
    results: Sequence[Any], args: argparse.Namespace
) -> str:
    return render_soundness(
        SoundnessSweep(cases=tuple(results)), _scenario(args).name
    )


@dataclasses.dataclass(frozen=True)
class _Batch:
    """A command whose work is one engine batch.

    Attributes:
        help: the one-line description (``repro --help``, ``repro
            submit --list``).
        jobs: parsed namespace → engine job list.
        render: (results in job order, parsed namespace) → the output,
            honouring ``--export`` where the command has it.
    """

    help: str
    jobs: Callable[[argparse.Namespace], list]
    render: Callable[[Sequence[Any], argparse.Namespace], str]


_BATCHES = {
    "figure4": _Batch(
        "Figure 4 model predictions", _figure4_jobs, _figure4_render
    ),
    "matrix": _Batch(
        "every counter-based model × every registered scenario spec",
        _matrix_jobs,
        _matrix_render,
    ),
    "family": _Batch(
        "run one scenario family's grid end to end",
        _family_jobs,
        _family_render,
    ),
    "soundness": _Batch(
        "randomized soundness sweep (A4)", _soundness_jobs, _soundness_render
    ),
}


def _run_batch(args: argparse.Namespace) -> str:
    batch = _BATCHES[args.command]
    return batch.render(run_jobs(batch.jobs(args), _engine(args)), args)


def _cmd_figure4(args: argparse.Namespace) -> str:
    if args.mode == "paper":
        return _run_batch(args)
    rows = figure4_sim_mode(
        scale=1 / args.scale, engine=_engine(args), **_figure4_models(args)
    )
    return _figure4_render(rows, args)


def _cmd_ablation(args: argparse.Namespace) -> str:
    return render_ablation(
        information_ablation(scale=1 / args.scale, engine=_engine(args))
    )


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.analysis.export import sweep_artifact

    scenario = _scenario(args)
    readings_a = paper.table6(scenario.name, "app")
    contender = paper.table6(scenario.name, "H-Load")
    points = contender_scale_sweep(
        readings_a,
        contender,
        scenario,
        isolation_cycles=paper.ISOLATION_CYCLES[scenario.name],
        engine=_engine(args),
    )
    return _render_or_write(
        args,
        sweep_artifact(points),
        "points",
        lambda: render_table(
            ["contender scale", "Δcont (cyc)", "pred", "saturated"],
            [
                [p.scale, p.delta_cycles, p.slowdown, p.saturated]
                for p in points
            ],
            title=f"Contender-load sweep ({scenario.name}, x of H-Load)",
        ),
    )


def _cmd_three_core(args: argparse.Namespace) -> str:
    scenario_name = f"scenario{args.scenario}"
    rows = three_core_experiment(
        scenario_name, scale=1 / args.scale, engine=_engine(args)
    )
    from repro.analysis.export import three_core_artifact

    return render_artifact(
        three_core_artifact(
            rows,
            title=(
                f"Three-core evaluation ({scenario_name}, "
                f"scale 1/{args.scale})"
            ),
        )
    )


def _cmd_scenarios(args: argparse.Namespace) -> str:
    registry = default_registry()
    return render_table(
        ["name", "base", "cores", "description"],
        [
            [spec.name, spec.base, spec.core_count, spec.description]
            for spec in registry
        ],
        title=f"Registered scenarios ({len(registry)})",
    )


def _cmd_models(args: argparse.Namespace) -> str:
    from repro.analysis.export import models_artifact

    registry = default_model_registry()
    return _render_or_write(
        args,
        models_artifact(registry.specs()),
        "models",
        lambda: render_models(registry.specs()),
    )


def _cmd_run(args: argparse.Namespace) -> str:
    registry = default_registry()
    names = registry.names() if args.all else args.scenario
    if not names:
        return "nothing to run (name scenarios or pass --all)"
    results = run_specs(names, model=args.model, engine=_engine(args))
    from repro.analysis.export import scenario_run_artifact

    item = scenario_run_artifact(
        results, title=f"Scenario runs ({len(results)} specs)"
    )
    return _render_or_write(args, item, "runs")


def _cmd_families(args: argparse.Namespace) -> str:
    registry = default_family_registry()
    return render_table(
        ["name", "members", "axes", "description"],
        [
            [
                family.name,
                len(expand_family(family)),
                family.describe_axes(),
                family.description,
            ]
            for family in registry
        ],
        title=f"Registered scenario families ({len(registry)})",
    )


def _cmd_platform(args: argparse.Namespace) -> str:
    return tc277().block_diagram()


def _cmd_worker(args: argparse.Namespace) -> str:
    from repro.service.pull import serve_pull

    serve_pull(
        args.coordinator, name=args.name or "", cache_dir=args.cache_dir
    )
    return "worker stopped"


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.service.coordinator import serve

    serve(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        cache_dir=args.cache_dir,
        lease_seconds=args.lease_seconds,
        worker_ttl=args.worker_ttl,
    )
    return "coordinator stopped"


def _require_coordinator(args: argparse.Namespace) -> str:
    url = getattr(args, "coordinator", None)
    if not url:
        raise ReproError(
            "this command talks to the analysis service: pass "
            "--coordinator URL (and start one with `repro serve`)"
        )
    return url


@contextlib.contextmanager
def _reaching(url: str) -> Iterator[None]:
    """Report a coordinator that cannot be reached (or answers an HTTP
    error) as one error line naming its URL, not a traceback."""
    import urllib.error

    from repro.service.retry import TRANSPORT_ERRORS

    try:
        yield
    except urllib.error.HTTPError as exc:
        raise ReproError(f"coordinator {url} answered {exc}") from exc
    except TRANSPORT_ERRORS as exc:
        reason = getattr(exc, "reason", exc)
        raise ReproError(f"cannot reach coordinator {url}: {reason}") from exc


def _parse_batch(name: str, argv: Sequence[str]) -> argparse.Namespace:
    """Parse a queued command line exactly as the direct command would
    (at submit time, and again when ``repro watch`` renders it)."""
    if name not in _BATCHES:
        raise ReproError(
            f"{name!r} is not a single-batch command: repro submit "
            f"takes {', '.join(_BATCHES)}"
        )
    return build_parser().parse_args([name, *argv])


def _cmd_submit(args: argparse.Namespace) -> str:
    from repro.service import submit_jobs

    if args.list or not args.name:
        return render_table(
            ["name", "description"],
            [[name, batch.help] for name, batch in _BATCHES.items()],
            title="Submittable commands (repro submit NAME ARGV...)",
        )
    command = _parse_batch(args.name, args.argv)
    given = [
        flag for dest, flag in _ENGINE_FLAGS.items() if hasattr(command, dest)
    ]
    if given:
        raise ReproError(
            f"{', '.join(given)} cannot be queued: the coordinator's "
            "workers run the job (put --coordinator before the name)"
        )
    url = _require_coordinator(args)
    jobs = _BATCHES[args.name].jobs(command)
    from repro.service.retry import REQUEST_POLICY

    # Submission retries through transient faults: jobs are pure and
    # the coordinator cache dedupes, so a duplicate submit is harmless.
    job_id = submit_jobs(
        url,
        jobs,
        label=args.name,
        meta={"jobset": args.name, "argv": list(args.argv)},
        retry=REQUEST_POLICY.with_deadline(30.0),
    )
    return (
        f"submitted {len(jobs)} jobs as {job_id}\n"
        f"  repro status {job_id} --coordinator {url}\n"
        f"  repro watch  {job_id} --coordinator {url}"
    )


def _status_line(status: dict) -> str:
    label = status.get("label") or "-"
    if status.get("complete"):
        state = "complete"
    elif status.get("cancelled"):
        state = "cancelled"
    else:
        state = "running"
    return (
        f"job {status['job_id']} [{label}] {state}: "
        f"{status['done']}/{status['total_units']} units done "
        f"({status['queued']} queued, {status['leased']} leased; "
        f"{status['total_jobs']} jobs)"
    )


def _cmd_status(args: argparse.Namespace) -> str:
    from repro.service import job_status

    url = _require_coordinator(args)
    with _reaching(url):
        status = job_status(url, args.job_id)
    lines = [_status_line(status)]
    for unit in status.get("units", []):
        worker = unit.get("worker") or "-"
        lines.append(
            f"  unit {unit['unit']:>3}  {unit['state']:<7} "
            f"jobs={unit['jobs']:<4} worker={worker}"
        )
    return "\n".join(lines)


def _cmd_watch(args: argparse.Namespace) -> str:
    from repro.service import job_values, wait_for_results

    url = _require_coordinator(args)
    seen: list[str] = []

    def progress(status: dict) -> None:
        line = _status_line(status)
        if not seen or seen[-1] != line:
            seen.append(line)
            print(line, file=sys.stderr, flush=True)

    with _reaching(url):
        status, outcomes = wait_for_results(
            url,
            args.job_id,
            poll=args.poll,
            timeout=args.timeout,
            progress=progress,
        )
    results = job_values(outcomes)
    meta = status.get("meta") or {}
    name = meta.get("jobset")
    if not name:
        return (
            f"job {status['job_id']} complete "
            f"({status['total_jobs']} jobs); no submitted command to "
            "render — queued via mode='service'?"
        )
    command = _parse_batch(name, meta.get("argv") or [])
    if args.export is not None:
        if not hasattr(command, "export"):
            raise ReproError(
                f"`repro {name}` has no --export; watch job "
                f"{status['job_id']} without one"
            )
        command.export = args.export
    return _BATCHES[name].render(results, command)


def _cmd_jobs(args: argparse.Namespace) -> str:
    from repro.service import cancel_job, list_jobs, list_workers

    url = _require_coordinator(args)
    if args.cancel:
        with _reaching(url):
            status = cancel_job(url, args.cancel)
        return (
            f"cancelled job {args.cancel}: "
            f"{status.get('done', '?')}/{status.get('total_units', '?')} "
            f"units had finished, "
            f"{status.get('cancelled_units', '?')} cancelled"
        )
    if args.workers_table:
        with _reaching(url):
            workers = list_workers(url)
        rows = []
        for worker in workers:
            stats = worker.get("stats") or {}
            rows.append(
                [
                    worker["worker_id"],
                    worker["name"],
                    worker["live"],
                    worker["completed_units"],
                    stats.get("batches", 0),
                    stats.get("executed", 0),
                    stats.get("cached", 0),
                ]
            )
        return render_table(
            [
                "worker", "name", "live", "units",
                "batches", "executed", "cached",
            ],
            rows,
            title=f"Registered workers ({len(rows)})",
        )

    def _state(job: dict) -> str:
        if job["complete"]:
            return "complete"
        if job.get("cancelled"):
            return "cancelled"
        return "running"

    with _reaching(url):
        jobs = list_jobs(url)
    rows = [
        [
            job["job_id"],
            job.get("label") or "-",
            f"{job['done']}/{job['total_units']}",
            job["total_jobs"],
            _state(job),
        ]
        for job in jobs
    ]
    return render_table(
        ["job", "label", "units", "jobs", "state"],
        rows,
        title=f"Coordinator jobs ({len(rows)})",
    )


def _result_store(args: argparse.Namespace) -> ResultStore:
    if not getattr(args, "cache_dir", None):
        raise ReproError(
            "this command reads the result store: pass --cache-dir PATH "
            "(the store lives beside the cache's version namespaces)"
        )
    return ResultStore(args.cache_dir)


def _cmd_diff(args: argparse.Namespace) -> str:
    """Compare two recorded runs; exit 1 when anything regressed.

    Exit-code contract (for CI): 0 — every shared cell identical and
    none missing; 1 — a changed cell, a soundness flip or a missing
    cell; 2 — usage error (unknown selector, no store, bad export path).
    New cells alone exit 0: growing the matrix is not a regression.
    """
    from repro.store import diff_artifact, diff_runs

    store = _result_store(args)
    report = diff_runs(store, args.before, args.after)
    args._exit_code = 1 if report.regression else 0
    counts = report.counts()
    summary = (
        f"diff {report.before} -> {report.after}: "
        f"{report.cells_before} -> {report.cells_after} cells, "
        f"{report.unchanged} unchanged, {counts['changed']} changed, "
        f"{counts['sound-flip']} sound flips, "
        f"{counts['missing']} missing, {counts['new']} new"
    )
    if not report.diffs and not args.export:
        return f"{summary}\nno differences"
    rendered = _render_or_write(args, diff_artifact(report), "diff rows")
    return f"{rendered}\n{summary}"


def _cmd_lint(args: argparse.Namespace) -> str:
    """Run the invariant checker; exit 1 on any finding.

    Exit-code contract (for CI): 0 — clean; 1 — at least one finding;
    2 — usage error (unknown rule, unreadable path, unparsable file).
    """
    from repro.lint import (
        default_rule_registry,
        json_report,
        lint_paths,
        text_report,
    )

    if args.list:
        registry = default_rule_registry()
        width = max(len(name) for name in registry.names())
        return "\n".join(
            f"{rule.name:<{width}}  [{rule.scope}] {rule.description}"
            for rule in registry
        )
    run = lint_paths(
        args.paths or ["src", "tests"],
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else None,
    )
    args._exit_code = run.exit_code
    if args.format == "json":
        return json_report(run.findings, run.checked_files, run.rules)
    return text_report(run.findings, run.checked_files)


def _cmd_store(args: argparse.Namespace) -> str:
    """List the result store's recorded runs (or maintain it)."""
    store = _result_store(args)
    lines: list[str] = []
    if store.quarantined:
        lines.append(
            f"note: a corrupt store was quarantined to {store.quarantined}"
        )
    if args.backfill:
        recorded = store.backfill(args.cache_dir)
        total = sum(recorded.values())
        versions = ", ".join(sorted(recorded)) or "none"
        lines.append(
            f"backfilled {total} rows from cache namespaces: {versions}"
        )
    if args.vacuum:
        store.vacuum()
        lines.append("vacuumed the store database")
    runs = store.runs()
    lines.append(
        render_table(
            ["run", "started (UTC)", "mode", "label", "version", "rev", "cells"],
            [
                [
                    run["run_id"],
                    run["started_utc"][:19],
                    run["engine_mode"] or "-",
                    run["label"] or "-",
                    run["library_version"],
                    (run["git_rev"] or "-")[:12],
                    run["cells"],
                ]
                for run in runs
            ],
            title=f"Recorded runs ({len(runs)})",
        )
    )
    return "\n".join(lines)


def _cmd_cache(args: argparse.Namespace) -> str:
    """Inspect the disk cache's version namespaces (or prune stale ones)."""
    from repro.engine.cache import cache_namespaces, prune_stale_versions
    from repro.store.resultstore import STORE_FILENAME

    import os as _os

    if not args.cache_dir:
        raise ReproError("pass --cache-dir PATH to inspect a disk cache")
    if args.prune:
        pruned = prune_stale_versions(args.cache_dir)
        # The pruned namespaces' backfill runs (and any dead weight) are
        # worth compacting away while we are here.
        store_path = _os.path.join(args.cache_dir, STORE_FILENAME)
        if _os.path.exists(store_path):
            store = ResultStore(args.cache_dir)
            store.delete_runs([f"backfill-v{version}" for version in pruned])
            store.vacuum()
        if not pruned:
            return "nothing to prune: only the active namespace exists"
        return "pruned stale cache namespaces: " + ", ".join(
            f"v{version}" for version in pruned
        )
    from repro import __version__

    rows = []
    for version, path in cache_namespaces(args.cache_dir):
        entries = len(list(path.glob("*.pkl")))
        active = "yes" if version == __version__ else ""
        rows.append([f"v{version}", entries, active])
    return render_table(
        ["namespace", "entries", "active"],
        rows,
        title=f"Cache namespaces under {args.cache_dir}",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Modelling Multicore Contention on the AURIX "
            "TC27x' (DAC 2018): regenerate the paper's tables and figures."
        ),
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help=(
            "profile the command under cProfile and write pstats data to "
            "PATH (inspect with 'python -m pstats PATH'); a one-line "
            "hot-spot summary goes to stderr"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="Table 2 via microbenchmark characterisation")
    sub.add_parser("table3", help="Table 3 placement matrix")

    p = sub.add_parser("table6", help="Table 6 counter readings (simulated)")
    p.add_argument(
        "--scale", type=_positive_int, default=16, help="scale denominator"
    )
    _add_jobs_flag(p)

    p = sub.add_parser("figure4", help=_BATCHES["figure4"].help)
    p.add_argument("--mode", choices=("paper", "sim"), default="paper")
    p.add_argument(
        "--scale",
        type=_positive_int,
        default=32,
        help="sim-mode scale denominator",
    )
    p.add_argument(
        "--model",
        action="append",
        metavar="NAME",
        help=(
            "registered model to plot (repeatable; see 'repro models'); "
            "default: ftc-refined + ilp-ptac"
        ),
    )
    p.add_argument(
        "--export", metavar="PATH.{json,csv}", help="write rows instead of rendering"
    )
    _add_jobs_flag(p)

    p = sub.add_parser("ablation", help="information-degree ablation (A1)")
    p.add_argument("--scale", type=_positive_int, default=32)
    _add_jobs_flag(p)

    p = sub.add_parser("soundness", help=_BATCHES["soundness"].help)
    p.add_argument("--pairs", type=_positive_int, default=5)
    p.add_argument("--requests", type=_positive_int, default=1_000)
    p.add_argument("--scenario", type=int, choices=(1, 2), default=1)
    _add_jobs_flag(p)

    p = sub.add_parser("sweep", help="contender-load sweep (Section 4.2)")
    p.add_argument("--scenario", type=int, choices=(1, 2), default=1)
    p.add_argument(
        "--export", metavar="PATH.{json,csv}", help="write rows instead of rendering"
    )
    _add_jobs_flag(p)

    p = sub.add_parser(
        "three-core", help="TC277 three-core joint-contention evaluation"
    )
    p.add_argument("--scenario", type=int, choices=(1, 2), default=1)
    p.add_argument(
        "--scale", type=_positive_int, default=32, help="scale denominator"
    )
    _add_jobs_flag(p)

    sub.add_parser("scenarios", help="list registered scenario specs")

    sub.add_parser("families", help="list registered scenario families")

    p = sub.add_parser("family", help=_BATCHES["family"].help)
    p.add_argument("family", help="registered family name (see 'families')")
    p.add_argument(
        "--model",
        action="append",
        metavar="NAME",
        help=(
            "contention model for the member bounds (repeatable; a "
            "DMA-descriptor model such as 'dma-occupancy' or "
            "'dma-rr-alignment' bounds the members' DMA traffic "
            "instead, several descriptor models run the grid once per "
            "bound; several counter-based models run the family matrix)"
        ),
    )
    p.add_argument(
        "--member",
        action="append",
        metavar="NAME",
        help="restrict to a member spec (repeatable; default: full grid)",
    )
    p.add_argument(
        "--matrix",
        action="store_true",
        help="run every counter-based model over every member",
    )
    p.add_argument(
        "--export", metavar="PATH.{json,csv}", help="write rows instead of rendering"
    )
    _add_jobs_flag(p)

    p = sub.add_parser("models", help="list registered contention models")
    p.add_argument(
        "--export", metavar="PATH.{json,csv}", help="write rows instead of rendering"
    )

    p = sub.add_parser(
        "run", help="run registered scenario specs end to end"
    )
    p.add_argument(
        "scenario", nargs="*", help="registered spec names (see 'scenarios')"
    )
    p.add_argument("--all", action="store_true", help="run every spec")
    p.add_argument(
        "--model",
        default="ilp-ptac",
        metavar="NAME",
        help="registered contention model for the bounds (see 'repro models')",
    )
    p.add_argument(
        "--export", metavar="PATH.{json,csv}", help="write rows instead of rendering"
    )
    _add_jobs_flag(p)

    p = sub.add_parser("matrix", help=_BATCHES["matrix"].help)
    p.add_argument(
        "--model",
        action="append",
        metavar="NAME",
        help=(
            "restrict to a registered counter-based model (repeatable; "
            "default: all of them)"
        ),
    )
    p.add_argument(
        "--spec",
        action="append",
        metavar="NAME",
        help="restrict to a registered spec (repeatable; default: all)",
    )
    p.add_argument(
        "--export", metavar="PATH.{json,csv}", help="write cells instead of rendering"
    )
    _add_jobs_flag(p)

    p = sub.add_parser(
        "worker",
        help="execute engine jobs leased from an analysis-service coordinator",
    )
    p.add_argument(
        "--coordinator",
        metavar="URL",
        required=True,
        help="the `repro serve` coordinator to register with and lease from",
    )
    p.add_argument(
        "--name",
        metavar="NAME",
        help="registration name shown by `repro jobs --workers`",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help=(
            "shared disk result cache; workers pointed at the same PATH "
            "dedupe each other's completed jobs"
        ),
    )

    p = sub.add_parser(
        "serve",
        help="run the analysis-service coordinator (durable job queue)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8751,
        help="TCP port (0 binds an ephemeral one; default 8751)",
    )
    p.add_argument(
        "--state-dir",
        default=".repro-service",
        metavar="PATH",
        help=(
            "queue database directory; restart the coordinator on the "
            "same PATH and every job resumes (default .repro-service)"
        ),
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help=(
            "coordinator-side result cache: units whose jobs were all "
            "computed before are answered without reaching a worker"
        ),
    )
    p.add_argument(
        "--lease-seconds",
        type=_positive_float,
        default=60.0,
        metavar="S",
        help="lease duration; silent workers lose their units after S",
    )
    p.add_argument(
        "--worker-ttl",
        type=_positive_float,
        default=30.0,
        metavar="S",
        help="how long a silent worker still counts as live",
    )

    p = sub.add_parser(
        "submit",
        help=(
            "queue a single-batch command (see --list) on the "
            "coordinator, fire-and-forget"
        ),
    )
    p.add_argument(
        "name",
        nargs="?",
        metavar="NAME",
        help="command to queue (omit or --list to see them)",
    )
    p.add_argument(
        "argv",
        nargs=argparse.REMAINDER,
        metavar="ARGV",
        help=(
            "the command's own arguments, as for `repro NAME` (put "
            "--coordinator BEFORE the name)"
        ),
    )
    p.add_argument(
        "--list", action="store_true", help="list the submittable commands"
    )
    p.add_argument("--coordinator", metavar="URL")

    p = sub.add_parser("status", help="one queued job's progress")
    p.add_argument("job_id")
    p.add_argument("--coordinator", metavar="URL")

    p = sub.add_parser(
        "watch",
        help="poll a job to completion, then render its artefact",
    )
    p.add_argument("job_id")
    p.add_argument("--coordinator", metavar="URL")
    p.add_argument(
        "--poll", type=_positive_float, default=0.5, metavar="S",
        help="seconds between progress polls",
    )
    p.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="S",
        help="give up after S seconds (default: wait forever)",
    )
    p.add_argument(
        "--export",
        metavar="PATH.{json,csv}",
        help="override the queued command's --export destination",
    )

    p = sub.add_parser(
        "jobs", help="list the coordinator's jobs (or --workers, --cancel)"
    )
    p.add_argument("--coordinator", metavar="URL")
    p.add_argument(
        "--workers",
        dest="workers_table",
        action="store_true",
        help="list registered workers and their execution counters",
    )
    p.add_argument(
        "--cancel",
        metavar="JOB_ID",
        help=(
            "cancel one job: queued and leased units are fenced out "
            "immediately, workers abandon it on their next heartbeat"
        ),
    )

    sub.add_parser("platform", help="Figure 1 block diagram")

    p = sub.add_parser(
        "diff",
        help=(
            "compare two recorded runs cell by cell; exits 1 on any "
            "changed/missing cell or soundness flip (CI guardrail)"
        ),
    )
    p.add_argument(
        "before",
        help="run selector: a run id, latest[~N], rev:<prefix>, version:<v>",
    )
    p.add_argument("after", help="run selector (same forms)")
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory whose result store to query",
    )
    p.add_argument(
        "--export",
        metavar="PATH.{json,csv}",
        help="write the diff rows instead of rendering",
    )

    p = sub.add_parser(
        "store",
        help="list the result store's recorded runs (--backfill, --vacuum)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory whose result store to open",
    )
    p.add_argument(
        "--backfill",
        action="store_true",
        help=(
            "describe existing disk-cache pickles into store rows (one "
            "run per v<version>/ namespace; idempotent)"
        ),
    )
    p.add_argument(
        "--vacuum", action="store_true", help="compact the store database"
    )

    p = sub.add_parser(
        "lint",
        help=(
            "AST-check the codebase's own invariants (provenance "
            "timestamps, backoff sleeps, exact exports, hardened "
            "sqlite, ...); exits 1 on any finding (CI guardrail)"
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src tests)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is schema-versioned, for CI)",
    )
    p.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list the registered rules and exit",
    )

    p = sub.add_parser(
        "cache",
        help="inspect the disk cache's version namespaces (--prune)",
    )
    p.add_argument(
        "--cache-dir", metavar="PATH", help="cache directory to inspect"
    )
    p.add_argument(
        "--prune",
        action="store_true",
        help=(
            "delete stale v<version>/ namespaces (never the active "
            "one) and compact the result store"
        ),
    )
    return parser


_COMMANDS = {
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table6": _cmd_table6,
    "figure4": _cmd_figure4,
    "ablation": _cmd_ablation,
    "soundness": _run_batch,
    "sweep": _cmd_sweep,
    "three-core": _cmd_three_core,
    "scenarios": _cmd_scenarios,
    "models": _cmd_models,
    "families": _cmd_families,
    "family": _run_batch,
    "run": _cmd_run,
    "matrix": _run_batch,
    "platform": _cmd_platform,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "watch": _cmd_watch,
    "jobs": _cmd_jobs,
    "diff": _cmd_diff,
    "lint": _cmd_lint,
    "store": _cmd_store,
    "cache": _cmd_cache,
}


def _run_profiled(command, args, path: str):
    """Run ``command(args)`` under cProfile, dumping pstats to ``path``."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(command, args)
    finally:
        profiler.dump_stats(path)
        stats = pstats.Stats(profiler)
        seconds = getattr(stats, "total_tt", 0.0)
        print(
            f"repro: profile written to {path} "
            f"({stats.total_calls} calls, {seconds:.3f}s); "
            f"inspect with 'python -m pstats {path}'",
            file=sys.stderr,
        )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 — success; 2 — usage or library error; commands may
    set their own code via ``args._exit_code`` (``repro diff`` exits 1
    on a regression so CI pipelines can gate on it).
    """
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        if args.profile:
            output = _run_profiled(command, args, args.profile)
        else:
            output = command(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        engine = getattr(args, "_engine_instance", None)
        if engine is not None:
            engine.close()
    print(output)
    return getattr(args, "_exit_code", 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
