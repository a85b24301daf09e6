"""``repro.lint`` — the codebase's invariants, machine-checked.

Nine PRs of conventions — timestamps through :mod:`repro.provenance`,
networked waits through :class:`~repro.service.retry.RetryPolicy`,
repr-exact exports, hardened sqlite access, picklable boundary objects,
two-sided wire envelopes — lived in review discipline until this
package.  ``repro lint`` runs a small AST-based framework over ``src``
and ``tests`` and fails on any violation, so the invariants hold by
construction instead of by memory.

Architecture (each piece mirrors an existing library idiom):

* :class:`~repro.lint.core.LintRule` — one invariant: a name, a
  description, a scope (``library``/``tests``/``all``) and an AST
  ``check``; cross-file rules accumulate and report from ``finish()``;
* ``register_rule`` / ``default_rule_registry`` / ``temporary_rules``
  — rules are registered data in a :class:`~repro.registry.Registry`,
  exactly like contention models and scenarios;
* suppression — a deliberate violation is annotated where it lives:
  ``# repro: ignore[rule-id] reason`` on the offending line;
* reporters — human text or schema-versioned JSON, with the
  0 (clean) / 1 (findings) / 2 (error) exit contract ``repro diff``
  established.

Write a new rule by subclassing ``LintRule`` and decorating it with
``@register_rule``; see :mod:`repro.lint.rules` for the builtins and
the README's "Code quality" section for a walkthrough.
"""

from repro.lint.core import (
    Finding,
    LintError,
    LintRule,
    SourceFile,
    run_rules,
)
from repro.lint.registry import (
    default_rule_registry,
    register_rule,
    rule_names,
    select_rules,
    temporary_rules,
)
from repro.lint.report import REPORT_VERSION, json_report, text_report
from repro.lint.runner import LintRun, collect_files, lint_paths

__all__ = [
    "Finding",
    "LintError",
    "LintRule",
    "LintRun",
    "REPORT_VERSION",
    "SourceFile",
    "collect_files",
    "default_rule_registry",
    "json_report",
    "lint_paths",
    "register_rule",
    "rule_names",
    "run_rules",
    "select_rules",
    "temporary_rules",
    "text_report",
]
