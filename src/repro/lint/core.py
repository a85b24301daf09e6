"""The lint framework core: rules, findings, suppression, one file pass.

The moving parts mirror the rest of the library.  A rule is a small
class implementing :class:`LintRule` (name, description, scope, an AST
``check``), registered by name exactly like contention models and
scenarios are (:mod:`repro.lint.registry`: ``register_rule`` /
``default_rule_registry`` / ``temporary_rules``).  The engine parses
each file once into a :class:`SourceFile` — AST, line table, test-ness,
dotted module name, suppression comments — and hands it to every
in-scope rule; a cross-file rule accumulates state per run and reports
from :meth:`LintRule.finish` after the last file.

Suppression is per line and per rule: a finding on a line carrying
``# repro: ignore[rule-id]`` (optionally ``ignore[a,b] reason``) is
dropped.  There is deliberately no file- or project-wide suppression —
every accepted violation is annotated where it lives, with its reason
next to it.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path, PurePath
from typing import Iterable, Iterator

from repro.errors import ReproError


class LintError(ReproError):
    """A lint-framework failure (bad rule selection, unreadable path)."""


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


#: Suppression comment: ``# repro: ignore[rule-id]`` or
#: ``# repro: ignore[a,b] optional reason``.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s-]+)\]")


def parse_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Per-line suppressed rule ids (1-based line numbers)."""
    table: dict[int, frozenset[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is not None:
            rules = frozenset(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
            if rules:
                table[number] = rules
    return table


def is_test_path(path: PurePath) -> bool:
    """Whether a file is test code (``tests/`` tree or ``test_*.py``)."""
    if any(part == "tests" for part in path.parts):
        return True
    return path.name.startswith("test_") or path.name == "conftest.py"


def module_name(path: PurePath) -> str:
    """The dotted module a file defines, best-effort.

    Resolved relative to the nearest ``src`` directory component when
    one is present (the repo layout), else from the bare filename —
    enough for rule allowlists, which match on suffixes.
    """
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src") :]
    name = ".".join(parts)
    if name.endswith(".py"):
        name = name[: -len(".py")]
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


@dataclasses.dataclass(frozen=True)
class SourceFile:
    """One parsed file, shared by every rule in a run."""

    path: str
    text: str
    tree: ast.Module
    is_test: bool
    module: str
    suppressions: dict[int, frozenset[str]]

    @classmethod
    def parse(cls, path: str | Path, text: str | None = None) -> "SourceFile":
        where = Path(path)
        if text is None:
            text = where.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(where))
        except SyntaxError as exc:
            raise LintError(f"cannot parse {where}: {exc}") from exc
        return cls(
            path=str(where),
            text=text,
            tree=tree,
            is_test=is_test_path(where),
            module=module_name(where),
            suppressions=parse_suppressions(text),
        )

    def suppressed(self, rule: str, line: int) -> bool:
        return rule in self.suppressions.get(line, frozenset())


class LintRule:
    """One invariant checker.

    Subclasses set :attr:`name` (the id used in ``--select`` and
    suppression comments), :attr:`description` (one line, shown by
    ``repro lint --list`` and the README table) and :attr:`scope` —
    ``"library"`` (src only), ``"tests"`` (test files only) or ``"all"``
    — then implement :meth:`check`.  A rule instance lives for one run,
    so cross-file rules accumulate state in ``check`` and report it
    from :meth:`finish`.
    """

    name: str = ""
    description: str = ""
    scope: str = "all"

    def applies_to(self, source: SourceFile) -> bool:
        if self.scope == "library":
            return not source.is_test
        if self.scope == "tests":
            return source.is_test
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finish(self) -> Iterator[Finding]:
        """Project-level findings, after every file has been checked."""
        return iter(())


def run_rules(
    rules: Iterable[type[LintRule]],
    sources: Iterable[SourceFile],
) -> list[Finding]:
    """Run rule classes over parsed files; sorted, suppression-applied."""
    instances = [rule() for rule in rules]
    findings: list[Finding] = []

    def admit(rule: LintRule, batch: Iterable[Finding], source=None) -> None:
        for finding in batch:
            at = source
            if at is None or finding.path != at.path:
                at = parsed.get(finding.path)
            if at is not None and at.suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)

    parsed: dict[str, SourceFile] = {}
    for source in sources:
        parsed[source.path] = source
        for rule in instances:
            if rule.applies_to(source):
                admit(rule, rule.check(source), source)
    for rule in instances:
        admit(rule, rule.finish())
    return sorted(findings)
