"""Flatten heterogeneous job results into result-store cells.

Engine jobs return whatever their driver defined — ``Figure4Row``,
``ScenarioRunResult``, ``FamilyRunResult``, ``SoundnessCase``, lists of
``AblationRow``, raw measurement records — and the result store must
turn each of them into *cells*: flat rows carrying the identity columns
the differ compares on (kind / scenario / model / load / dma_model /
member) plus the numbers (bound / predicted / observed / tightness /
sound).

Extraction is duck-typed on attribute names rather than imported types,
for two reasons: the store package must stay import-light (the engine
runner loads it, and the analysis drivers import the runner — a type
import here would be a cycle), and backfilled pickles from older library
versions should keep describing as long as their field names survive.

Anything unrecognised still produces one generic cell keyed by the job's
label, so a run's cell set always covers its whole batch — "new/missing
cells" in a diff means new/missing *jobs*, never silently skipped ones.
"""

from __future__ import annotations

from typing import Any

#: The one platform every experiment runs (the TC27x of the paper's Table 2);
#: stored per cell so a run records the platform its numbers belong to.
DEFAULT_PLATFORM = "tc27x"

#: Identity + value keys of one described cell.  ``cell`` is the
#: diff key: unique within a run, stable across runs of the same batch.
CELL_FIELDS = (
    "cell",
    "kind",
    "scenario",
    "model",
    "load",
    "dma_model",
    "member",
    "platform",
    "bound",
    "predicted",
    "observed",
    "tightness",
    "sound",
)


def _has(value: Any, *names: str) -> bool:
    return all(hasattr(value, name) for name in names)


def _tightness(predicted: float | None, observed: float | None) -> float | None:
    """Prediction over observation (1.0 = perfectly tight)."""
    if predicted is None or not observed:
        return None
    return predicted / observed


def _kind(label: str, fallback: str) -> str:
    """Job-family tag: the label prefix before the first ``:``."""
    if label:
        head = label.split(":", 1)[0]
        if head:
            return head
    return fallback


def _cell(
    kind: str,
    scenario: str | None,
    model: str | None,
    load: str | None,
    dma_model: str | None,
    member: str | None,
) -> str:
    parts = [kind]
    for part in (scenario, member, model, load, dma_model):
        if part:
            parts.append(str(part))
    return "/".join(parts)


def _row(
    *,
    kind: str,
    scenario: str | None = None,
    model: str | None = None,
    load: str | None = None,
    dma_model: str | None = None,
    member: str | None = None,
    bound: float | None = None,
    predicted: float | None = None,
    observed: float | None = None,
    tightness: float | None = None,
    sound: bool | None = None,
) -> dict[str, Any]:
    return {
        "cell": _cell(kind, scenario, model, load, dma_model, member),
        "kind": kind,
        "scenario": scenario,
        "model": model,
        "load": load,
        "dma_model": dma_model,
        "member": member,
        "platform": DEFAULT_PLATFORM,
        "bound": float(bound) if bound is not None else None,
        "predicted": float(predicted) if predicted is not None else None,
        "observed": float(observed) if observed is not None else None,
        "tightness": tightness,
        "sound": None if sound is None else bool(sound),
    }


def _describe_figure4(value: Any, label: str) -> list[dict[str, Any]]:
    observed = value.observed_slowdown
    return [
        _row(
            kind=_kind(label, "figure4"),
            scenario=value.scenario,
            model=value.model,
            load=value.load,
            bound=value.delta_cycles,
            predicted=value.slowdown,
            observed=observed,
            tightness=_tightness(value.slowdown, observed),
            sound=value.sound,
        )
    ]


def _describe_scenario_run(value: Any, label: str) -> list[dict[str, Any]]:
    return [
        _row(
            kind=_kind(label, "scenario-run"),
            scenario=value.spec_name,
            model=value.model,
            dma_model=value.dma_model,
            bound=value.joint_delta + value.dma_delta,
            predicted=value.predicted_slowdown,
            observed=value.observed_slowdown,
            tightness=_tightness(
                value.predicted_slowdown, value.observed_slowdown
            ),
            sound=value.sound,
        )
    ]


def _describe_family_run(value: Any, label: str) -> list[dict[str, Any]]:
    run = value.run
    return [
        _row(
            kind=_kind(label, "family"),
            scenario=value.member.family,
            member=value.member.name,
            model=run.model,
            dma_model=run.dma_model,
            bound=run.joint_delta + run.dma_delta,
            predicted=run.predicted_slowdown,
            observed=run.observed_slowdown,
            tightness=_tightness(
                run.predicted_slowdown, run.observed_slowdown
            ),
            sound=run.sound,
        )
    ]


def _describe_soundness(value: Any, label: str) -> list[dict[str, Any]]:
    rows = []
    for model, predicted in sorted(value.predictions.items()):
        rows.append(
            _row(
                kind=_kind(label, "soundness"),
                scenario=value.name,
                model=model,
                bound=predicted,
                predicted=predicted / value.isolation_cycles,
                observed=value.observed_slowdown,
                tightness=value.tightness(model),
                sound=model not in value.violations,
            )
        )
    return rows


def _describe_ablation(value: Any, label: str) -> list[dict[str, Any]]:
    return [
        _row(
            kind=_kind(label, "ablation"),
            scenario=value.scenario,
            model=value.model,
            load=value.load,
            bound=value.delta_cycles,
            predicted=value.slowdown,
        )
    ]


def _describe_one(value: Any, label: str) -> list[dict[str, Any]] | None:
    """Describe one recognisable result object, or ``None``."""
    if _has(value, "scenario", "load", "model", "delta_cycles", "slowdown"):
        if _has(value, "observed_slowdown", "sound"):
            return _describe_figure4(value, label)
        return _describe_ablation(value, label)
    if _has(value, "spec_name", "joint_delta", "predicted_slowdown"):
        return _describe_scenario_run(value, label)
    if _has(value, "member", "run") and _has(value.member, "family", "name"):
        return _describe_family_run(value, label)
    if _has(value, "predictions", "violations", "isolation_cycles"):
        return _describe_soundness(value, label)
    return None


def describe_result(label: str, value: Any) -> list[dict[str, Any]]:
    """Flatten one job result into its result-store cells.

    Returns at least one row.  Lists/tuples of recognisable results
    expand one cell per element; anything unrecognised becomes a single
    generic cell keyed by the job label (bound columns null), so runs
    remain diffable job-for-job even for measurement-only stages.
    """
    rows = _describe_one(value, label)
    if rows is not None:
        return _disambiguate(rows)
    if isinstance(value, (list, tuple)) and value:
        expanded: list[dict[str, Any]] = []
        for element in value:
            described = _describe_one(element, label)
            if described is None:
                expanded = []
                break
            expanded.extend(described)
        if expanded:
            return _disambiguate(expanded)
    kind = _kind(label, type(value).__qualname__)
    row = _row(kind=kind)
    row["cell"] = label or kind
    return [row]


def _disambiguate(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Suffix duplicate cell keys so one job's rows stay distinct."""
    seen: dict[str, int] = {}
    for row in rows:
        key = row["cell"]
        count = seen.get(key, 0)
        seen[key] = count + 1
        if count:
            row["cell"] = f"{key}#{count}"
    return rows
