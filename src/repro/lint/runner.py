"""The lint runner: walk paths, run the selected rules, report.

Exit-code contract (the same 0/1/2 shape as ``repro diff``):

* **0** — every checked file is clean;
* **1** — at least one finding;
* **2** — the run itself failed (unknown rule, unreadable path,
  syntax error in a checked file) — surfaced as :class:`LintError`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.core import Finding, LintError, LintRule, SourceFile, run_rules
from repro.lint.registry import default_rule_registry, select_rules
from repro.registry import Registry

#: Directory names never descended into.  ``lint_fixtures`` holds the
#: deliberate-violation fixtures the framework's own tests lint in
#: isolation — sweeping them would fail every HEAD run by design.
EXCLUDED_DIRS = frozenset({"__pycache__", "lint_fixtures", ".git"})


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Python files under ``paths``, deduplicated, deterministic order."""
    seen: set[Path] = set()
    ordered: list[Path] = []

    def admit(candidate: Path) -> None:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            ordered.append(candidate)

    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if not any(
                    part in EXCLUDED_DIRS or part.startswith(".")
                    for part in found.relative_to(path).parts
                ):
                    admit(found)
        elif path.is_file():
            admit(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    return ordered


@dataclasses.dataclass(frozen=True)
class LintRun:
    """The outcome of one lint pass."""

    findings: tuple[Finding, ...]
    checked_files: int
    rules: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    registry: Registry[type[LintRule]] | None = None,
) -> LintRun:
    """Lint every Python file under ``paths`` with the selected rules."""
    registry = (
        registry if registry is not None else default_rule_registry()
    )
    rules = select_rules(registry, select, ignore)
    files = collect_files(paths)
    sources = [SourceFile.parse(path) for path in files]
    findings = run_rules(rules, sources)
    return LintRun(
        findings=tuple(findings),
        checked_files=len(sources),
        rules=tuple(rule.name for rule in rules),
    )
