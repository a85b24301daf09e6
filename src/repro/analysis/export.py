"""Machine-readable export of experiment results (CSV / JSON).

The report module renders for humans; downstream tooling (plotting
scripts, CI dashboards, regression trackers) wants rows.  This module
flattens every experiment result type into plain dictionaries and writes
CSV or JSON, with stable column orders so diffs stay readable.

It is also where driver rows are lifted into the engine's common
:class:`~repro.engine.artifact.ExperimentArtifact` record (the
``*_artifact`` builders): one artifact type that
:func:`repro.analysis.report.render_artifact` renders and
:func:`write_artifact` serialises, whatever experiment produced it.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.experiments import AblationRow, Figure4Row, Table6Row
from repro.analysis.sweeps import DeploymentComparison, SweepPoint
from repro.analysis.three_core import ThreeCoreRow
from repro.analysis.validation import SoundnessCase
from repro.core.model import ContentionModel
from repro.core.registry import default_model_registry
from repro.engine.artifact import ExperimentArtifact, artifact
from repro.engine.experiment import ScenarioRunResult
from repro.store.diff import DIFF_COLUMNS
from repro.engine.families import FamilyRunResult
from repro.errors import ReproError


def exact_float(value: Any) -> float | None:
    """A float's round-trip-exact export form.

    Exports used to pass slowdowns and tightness through ``round(x, 6)``,
    which silently loses the low bits — a diff between an export and the
    result store could then disagree on a value that never actually
    moved.  Exported floats go through this helper instead: a plain
    Python ``float`` (numpy scalars coerced), which both the CSV writer
    (``str``) and the JSON encoder format with ``repr``-shortest digits,
    guaranteed by the language to round-trip bit-exactly — including
    negative zero, values above 2**53 and subnormals.
    """
    if value is None:
        return None
    return float(value)


def figure4_rows(rows: Sequence[Figure4Row]) -> list[dict[str, Any]]:
    """Flatten Figure 4 rows (both modes)."""
    return [
        {
            "scenario": row.scenario,
            "model": row.model,
            "load": row.load,
            "delta_cycles": row.delta_cycles,
            "slowdown": exact_float(row.slowdown),
            "paper_value": row.paper_value,
            "observed_slowdown": exact_float(row.observed_slowdown),
            "sound": row.sound,
        }
        for row in rows
    ]


def table6_rows(rows: Sequence[Table6Row]) -> list[dict[str, Any]]:
    """Flatten Table 6 comparisons (one record per counter per row)."""
    flat = []
    for row in rows:
        sim, ref = row.simulated.as_row(), row.reference.as_row()
        for counter in sim:
            flat.append(
                {
                    "scenario": row.scenario,
                    "core": row.core,
                    "task": row.task,
                    "counter": counter,
                    "simulated": sim[counter],
                    "reference": ref[counter],
                }
            )
    return flat


def ablation_rows(rows: Sequence[AblationRow]) -> list[dict[str, Any]]:
    """Flatten the information-degree ablation."""
    return [
        {
            "scenario": row.scenario,
            "load": row.load,
            "model": row.model,
            "delta_cycles": row.delta_cycles,
            "slowdown": exact_float(row.slowdown),
        }
        for row in rows
    ]


def sweep_rows(points: Sequence[SweepPoint]) -> list[dict[str, Any]]:
    """Flatten a contender-load sweep."""
    return [
        {
            "scale": point.scale,
            "delta_cycles": point.delta_cycles,
            "slowdown": exact_float(point.slowdown),
            "saturated": point.saturated,
        }
        for point in points
    ]


def deployment_rows(
    rows: Sequence[DeploymentComparison],
) -> list[dict[str, Any]]:
    """Flatten a deployment sweep."""
    return [
        {
            "scenario": row.scenario,
            "delta_cycles": row.delta_cycles,
            "slowdown": exact_float(row.slowdown),
        }
        for row in rows
    ]


def soundness_rows(cases: Sequence[SoundnessCase]) -> list[dict[str, Any]]:
    """Flatten a soundness sweep (one record per case per model)."""
    flat = []
    for case in cases:
        for model, predicted in case.predictions.items():
            flat.append(
                {
                    "case": case.name,
                    "model": model,
                    "isolation_cycles": case.isolation_cycles,
                    "observed_cycles": case.observed_cycles,
                    "predicted_wcet": predicted,
                    "sound": model not in case.violations,
                    "tightness": exact_float(case.tightness(model)),
                }
            )
    return flat


def three_core_rows(rows: Sequence[ThreeCoreRow]) -> list[dict[str, Any]]:
    """Flatten the three-core evaluation."""
    return [
        {
            "scenario": row.scenario,
            "loads": "+".join(row.loads),
            "isolation_cycles": row.isolation_cycles,
            "joint_delta": row.joint_delta,
            "pairwise_sum_delta": row.pairwise_sum_delta,
            "joint_saving": row.joint_saving,
            "observed_cycles": row.observed_cycles,
            "observed_slowdown": exact_float(row.observed_slowdown),
            "sound": row.sound,
        }
        for row in rows
    ]


def model_registry_rows(
    models: Sequence[ContentionModel] | None = None,
) -> list[dict[str, Any]]:
    """Flatten the contention-model registry (defaults to the default
    registry's contents, in registration order)."""
    listed = (
        list(models) if models is not None else list(default_model_registry())
    )
    return [
        {
            "model": model.name,
            "time_composable": model.capabilities.time_composable,
            "contenders": model.capabilities.contender_summary(),
            "needs_ilp": model.capabilities.needs_ilp,
            "dma_aware": model.capabilities.dma_aware,
            "description": model.description,
        }
        for model in listed
    ]


def family_rows(results: Sequence[FamilyRunResult]) -> list[dict[str, Any]]:
    """Flatten family member runs (grid coordinates + run outcome).

    The ``point`` column renders the member's axis assignment
    (``queue_depth=4 period=2 ...``) so one fixed column set covers
    families with arbitrary axes.
    """
    return [
        {
            "family": result.member.family,
            "member": result.member.name,
            "point": result.member.describe_point(),
            "base": result.run.base,
            "model": result.run.model,
            "dma_model": result.run.dma_model,
            "cores": result.run.core_count,
            "isolation_cycles": result.run.isolation_cycles,
            "joint_delta": result.run.joint_delta,
            "dma_delta": result.run.dma_delta,
            "observed_cycles": result.run.observed_cycles,
            "predicted_slowdown": exact_float(result.run.predicted_slowdown),
            "observed_slowdown": exact_float(result.run.observed_slowdown),
            "sound": result.run.sound,
        }
        for result in results
    ]


def scenario_run_rows(
    results: Sequence[ScenarioRunResult],
) -> list[dict[str, Any]]:
    """Flatten generic N-core scenario-spec runs.

    ``dma_delta``/``dma_model`` record the DMA bound's provenance — the
    same spec run under two DMA models must stay distinguishable in an
    export, exactly as the ``model`` column distinguishes contender
    bounds.
    """
    return [
        {
            "spec": result.spec_name,
            "base": result.base,
            "model": result.model,
            "cores": result.core_count,
            "isolation_cycles": result.isolation_cycles,
            "joint_delta": result.joint_delta,
            "pairwise_sum_delta": result.pairwise_sum_delta,
            "dma_delta": result.dma_delta,
            "dma_model": result.dma_model,
            "observed_cycles": result.observed_cycles,
            "predicted_slowdown": exact_float(result.predicted_slowdown),
            "observed_slowdown": exact_float(result.observed_slowdown),
            "sound": result.sound,
        }
        for result in results
    ]


# ----------------------------------------------------------------------
# Artifact builders: driver rows → the engine's common record
# ----------------------------------------------------------------------
_ARTIFACT_COLUMNS = {
    "figure4": (
        "scenario",
        "model",
        "load",
        "delta_cycles",
        "slowdown",
        "paper_value",
        "observed_slowdown",
        "sound",
    ),
    "table6": ("scenario", "core", "task", "counter", "simulated", "reference"),
    "ablation": ("scenario", "load", "model", "delta_cycles", "slowdown"),
    "sweep": ("scale", "delta_cycles", "slowdown", "saturated"),
    "deployment": ("scenario", "delta_cycles", "slowdown"),
    "soundness": (
        "case",
        "model",
        "isolation_cycles",
        "observed_cycles",
        "predicted_wcet",
        "sound",
        "tightness",
    ),
    "three-core": (
        "scenario",
        "loads",
        "isolation_cycles",
        "joint_delta",
        "pairwise_sum_delta",
        "joint_saving",
        "observed_cycles",
        "observed_slowdown",
        "sound",
    ),
    "models": (
        "model",
        "time_composable",
        "contenders",
        "needs_ilp",
        "dma_aware",
        "description",
    ),
    "scenario-run": (
        "spec",
        "base",
        "model",
        "cores",
        "isolation_cycles",
        "joint_delta",
        "pairwise_sum_delta",
        "dma_delta",
        "dma_model",
        "observed_cycles",
        "predicted_slowdown",
        "observed_slowdown",
        "sound",
    ),
}
# Matrix cells *are* scenario runs (same flattening), so the column
# tuples must never drift apart.
_ARTIFACT_COLUMNS["matrix"] = _ARTIFACT_COLUMNS["scenario-run"]
# Regression diffs are built by repro.store.diff (the store layer owns
# the comparison); registering the kind here keeps the artifact-column
# registry the one complete listing of export shapes.
_ARTIFACT_COLUMNS["diff"] = DIFF_COLUMNS
_ARTIFACT_COLUMNS["family"] = (
    "family",
    "member",
    "point",
    "base",
    "model",
    "dma_model",
    "cores",
    "isolation_cycles",
    "joint_delta",
    "dma_delta",
    "observed_cycles",
    "predicted_slowdown",
    "observed_slowdown",
    "sound",
)


def _build_artifact(
    kind: str, title: str, records: list[dict[str, Any]], **meta: Any
) -> ExperimentArtifact:
    return artifact(kind, title, _ARTIFACT_COLUMNS[kind], records, **meta)


def figure4_artifact(
    rows: Sequence[Figure4Row], *, title: str = "Figure 4", **meta: Any
) -> ExperimentArtifact:
    return _build_artifact("figure4", title, figure4_rows(rows), **meta)


def table6_artifact(
    rows: Sequence[Table6Row], *, title: str = "Table 6", **meta: Any
) -> ExperimentArtifact:
    return _build_artifact("table6", title, table6_rows(rows), **meta)


def ablation_artifact(
    rows: Sequence[AblationRow],
    *,
    title: str = "Information-degree ablation",
    **meta: Any,
) -> ExperimentArtifact:
    return _build_artifact("ablation", title, ablation_rows(rows), **meta)


def sweep_artifact(
    points: Sequence[SweepPoint],
    *,
    title: str = "Contender-load sweep",
    **meta: Any,
) -> ExperimentArtifact:
    return _build_artifact("sweep", title, sweep_rows(points), **meta)


def deployment_artifact(
    rows: Sequence[DeploymentComparison],
    *,
    title: str = "Deployment sweep",
    **meta: Any,
) -> ExperimentArtifact:
    return _build_artifact("deployment", title, deployment_rows(rows), **meta)


def soundness_artifact(
    cases: Sequence[SoundnessCase],
    *,
    title: str = "Soundness sweep",
    **meta: Any,
) -> ExperimentArtifact:
    return _build_artifact("soundness", title, soundness_rows(cases), **meta)


def three_core_artifact(
    rows: Sequence[ThreeCoreRow],
    *,
    title: str = "Three-core evaluation",
    **meta: Any,
) -> ExperimentArtifact:
    return _build_artifact("three-core", title, three_core_rows(rows), **meta)


def scenario_run_artifact(
    results: Sequence[ScenarioRunResult],
    *,
    title: str = "Scenario runs",
    **meta: Any,
) -> ExperimentArtifact:
    return _build_artifact(
        "scenario-run", title, scenario_run_rows(results), **meta
    )


def family_artifact(
    results: Sequence[FamilyRunResult],
    *,
    title: str = "Scenario-family run",
    **meta: Any,
) -> ExperimentArtifact:
    """One record per family member run, grid coordinates included."""
    return _build_artifact("family", title, family_rows(results), **meta)


def matrix_artifact(
    results: Sequence[ScenarioRunResult],
    *,
    title: str = "Model × scenario matrix",
    **meta: Any,
) -> ExperimentArtifact:
    """The full model × scenario comparison, one record per cell.

    Rows share the scenario-run flattening (the cells *are* scenario
    runs) under their own artifact kind, so downstream tooling can tell
    a full matrix export from a hand-picked run list.
    """
    return _build_artifact(
        "matrix", title, scenario_run_rows(results), **meta
    )


def models_artifact(
    models: Sequence[ContentionModel] | None = None,
    *,
    title: str = "Registered contention models",
    **meta: Any,
) -> ExperimentArtifact:
    return _build_artifact("models", title, model_registry_rows(models), **meta)


def to_json(records: Iterable[Mapping[str, Any]], *, indent: int = 2) -> str:
    """Serialise flattened records to a JSON array."""
    return json.dumps(list(records), indent=indent)


def to_csv(
    records: Sequence[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
) -> str:
    """Serialise flattened records to CSV.

    ``columns`` fixes the header order explicitly (and permits an empty
    record set — a clean ``repro diff`` export is a header-only file);
    without it the columns come from the first record, so at least one
    is required.
    """
    records = list(records)
    if columns is None:
        if not records:
            raise ReproError("no records to export")
        columns = list(records[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns))
    writer.writeheader()
    writer.writerows(records)
    return buffer.getvalue()


def write(
    records: Sequence[Mapping[str, Any]],
    path: str,
    *,
    format: str | None = None,
    columns: Sequence[str] | None = None,
) -> None:
    """Write records to ``path`` (format inferred from the extension).

    A path that cannot be opened for writing raises :class:`ReproError`
    naming it, so ``repro ... --export`` exits 2 instead of tracing back.
    """
    if format is None:
        if path.endswith(".json"):
            format = "json"
        elif path.endswith(".csv"):
            format = "csv"
        else:
            raise ReproError(
                f"cannot infer export format from {path!r}; pass format="
            )
    if format == "json":
        payload = to_json(records)
    elif format == "csv":
        payload = to_csv(records, columns=columns)
    else:
        raise ReproError(f"unknown export format {format!r}")
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ReproError(
            f"cannot write export {path!r}: {exc.strerror or exc}"
        ) from exc
    with handle:
        handle.write(payload)


def write_artifact(
    item: ExperimentArtifact, path: str, *, format: str | None = None
) -> None:
    """Write an engine artifact's records to ``path`` (CSV or JSON)."""
    write(item.record_dicts(), path, format=format, columns=item.columns)
