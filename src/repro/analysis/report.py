"""Plain-text rendering of tables and the Figure 4 chart.

Everything the paper reports is either a table or a bar chart; this module
renders both as fixed-width text so benchmarks and examples can print
artefacts that are directly comparable with the paper's.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.experiments import AblationRow, Figure4Row, Table6Row
from repro.core.model import ContentionModel
from repro.core.registry import default_model_registry
from repro.engine.artifact import ExperimentArtifact
from repro.platform.cacheability import placement_matrix
from repro.platform.latency import LatencyProfile


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render a fixed-width table with right-aligned numeric columns."""
    materialised = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in materialised)
    return "\n".join(parts)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if cell is None:
        return "-"
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    return str(cell)


def render_latency_table(profile: LatencyProfile, *, title: str = "Table 2") -> str:
    """Render a latency profile in the paper's Table 2 layout."""
    table = profile.as_table()
    columns = ["lmu", "pf", "dfl"]

    def fetch(row: str, column: str) -> object:
        source = table["pf0"] if column == "pf" else table[column]
        return source[row]

    lmu_lmax = table["lmu"]["l_max"]
    lmu_dirty = table["lmu"]["l_max_dirty"]
    lmax_row = [
        f"{lmu_lmax}({lmu_dirty})" if lmu_dirty else str(lmu_lmax),
        fetch("l_max", "pf"),
        fetch("l_max", "dfl"),
    ]
    rows = [
        ["l_max"] + lmax_row,
        ["l_min"] + [fetch("l_min", c) for c in columns],
        ["cs(t,co)"] + [fetch("cs_code", c) for c in columns],
        ["cs(t,da)"] + [fetch("cs_data", c) for c in columns],
    ]
    return render_table(["quantity"] + columns, rows, title=title)


def render_placement_table(*, title: str = "Table 3") -> str:
    """Render the Table 3 placement matrix."""
    matrix = placement_matrix()
    columns = ["pf0", "pf1", "dfl", "lmu"]
    rows = [
        [kind] + ["ok" if allowed[c] else "x" for c in columns]
        for kind, allowed in matrix.items()
    ]
    return render_table(["section"] + columns, rows, title=title)


def render_table6(rows: Sequence[Table6Row], *, scale: float) -> str:
    """Render simulated-vs-paper Table 6 rows."""
    body = []
    for row in rows:
        sim, ref = row.simulated.as_row(), row.reference.as_row()
        body.append(
            [
                row.scenario,
                f"{row.core}/{row.task}",
                "sim",
                sim["PM"],
                sim["DMC"],
                sim["DMD"],
                sim["PS"],
                sim["DS"],
            ]
        )
        body.append(
            [
                "",
                "",
                "paper",
                ref["PM"],
                ref["DMC"],
                ref["DMD"],
                ref["PS"],
                ref["DS"],
            ]
        )
    return render_table(
        ["scenario", "core/task", "source", "PM", "DMC", "DMD", "PS", "DS"],
        body,
        title=f"Table 6 (scale {scale:g}; 'paper' rows scaled accordingly)",
    )


def render_figure4(rows: Sequence[Figure4Row], *, title: str = "Figure 4") -> str:
    """Render Figure 4 as a labelled horizontal bar chart plus a table."""
    table = render_table(
        ["scenario", "model", "load", "Δcont (cyc)", "pred", "paper", "observed"],
        [
            [
                row.scenario,
                row.model,
                row.load,
                row.delta_cycles,
                row.slowdown,
                row.paper_value,
                row.observed_slowdown,
            ]
            for row in rows
        ],
        title=title,
    )
    peak = max(row.slowdown for row in rows)
    scale = 48 / peak
    bars = []
    for row in rows:
        bar = "#" * max(1, int(round(row.slowdown * scale)))
        reference = f" (paper {row.paper_value:.2f})" if row.paper_value else ""
        bars.append(
            f"{row.scenario:<10} {row.model:<12} {row.load:<2} "
            f"{bar} {row.slowdown:.2f}{reference}"
        )
    return table + "\n\n" + "\n".join(bars)


def render_models(
    models: Sequence[ContentionModel] | None = None,
    *,
    title: str | None = None,
) -> str:
    """Render the contention-model registry (the ``repro models`` output).

    One row per registered model: name, whether the bound is fully
    time-composable, the contender arity it consumes, whether it solves
    an ILP / covers higher-priority DMA masters, and its description.
    Rides the same artifact builder as ``repro models --export``, so the
    rendered and exported rows cannot diverge.
    """
    from repro.analysis.export import models_artifact

    listed = (
        list(models) if models is not None else list(default_model_registry())
    )
    return render_artifact(
        models_artifact(
            listed,
            title=title or f"Registered contention models ({len(listed)})",
        )
    )


def render_artifact(artifact: ExperimentArtifact) -> str:
    """Render any engine artifact as a fixed-width table.

    The generic counterpart of the ``render_*`` functions above: every
    experiment that flattens into an
    :class:`~repro.engine.artifact.ExperimentArtifact` (see the
    ``*_artifact`` builders in :mod:`repro.analysis.export`) renders
    through this single entry point.
    """
    return render_table(
        artifact.columns, artifact.rows(), title=artifact.title
    )


def render_ablation(rows: Sequence[AblationRow]) -> str:
    """Render the information-degree ablation (A1)."""
    return render_table(
        ["scenario", "load", "model", "Δcont (cyc)", "pred"],
        [
            [row.scenario, row.load, row.model, row.delta_cycles, row.slowdown]
            for row in rows
        ],
        title="Information-degree ablation (lower is tighter; all sound)",
    )


def render_soundness(sweep, scenario_name: str) -> str:
    """Render a soundness sweep (A4) with its per-case verdicts.

    ``repro soundness`` renders through it whether the sweep ran
    directly or was queued with ``repro submit``.  ``sweep`` is
    a :class:`~repro.analysis.validation.SoundnessSweep` (typed loosely
    to keep this rendering module import-light).
    """
    rows = [
        [
            case.name,
            case.isolation_cycles,
            case.observed_cycles,
            case.predictions["ilp-ptac"],
            "ok" if case.sound else "VIOLATION",
        ]
        for case in sweep.cases
    ]
    verdict = (
        "all sound"
        if sweep.all_sound
        else f"VIOLATIONS: {sweep.violations}"
    )
    return render_table(
        ["pair", "isolation", "observed", "ilp-ptac WCET", "check"],
        rows,
        title=f"Soundness sweep ({scenario_name}) — {verdict}",
    )
