"""The rule registry: rules are registered data, like models and
scenarios.

A process-wide default :class:`~repro.registry.Registry` populated
with the builtin rules, a ``register_rule`` decorator for new ones, a
``temporary_rules`` scope so tests (and downstream extensions) can add
rules without leaking them, and :func:`select_rules`, the rule set one
run instantiates.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Iterable

from repro.lint.core import LintError, LintRule
from repro.lint.rules import builtin_rules
from repro.registry import Registry


def _rule_problem(rule: object) -> str | None:
    if not (isinstance(rule, type) and issubclass(rule, LintRule)):
        return f"expected a LintRule subclass, got {rule!r}"
    if not rule.name or not rule.description:
        return f"rule {rule.__qualname__} must set name and description"
    if rule.scope not in ("library", "tests", "all"):
        return (
            f"rule {rule.name!r} scope must be library/tests/all, "
            f"got {rule.scope!r}"
        )
    return None


@functools.cache
def default_rule_registry() -> Registry[type[LintRule]]:
    """The process-wide registry, created with the builtin rules.

    It stores rule classes, not instances: every run instantiates fresh
    rules, so cross-file accumulator state never leaks between runs.
    """
    return Registry("lint rule", LintError, _rule_problem, builtin_rules())


def register_rule(
    rule: type[LintRule], *, replace: bool = False
) -> type[LintRule]:
    """Register a rule class in the default registry (decorator-friendly)::

        @register_rule
        class MyRule(LintRule):
            name = "my-rule"
            ...
    """
    return default_rule_registry().register(rule, replace=replace)


def rule_names() -> tuple[str, ...]:
    """Names registered in the default registry."""
    return default_rule_registry().names()


def temporary_rules(
    *rules: type[LintRule], replace: bool = False
) -> contextlib.AbstractContextManager[Registry[type[LintRule]]]:
    """Scope rule registrations to a ``with`` block (tests, examples)."""
    return default_rule_registry().temporary(*rules, replace=replace)


def select_rules(
    registry: Registry[type[LintRule]],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> tuple[type[LintRule], ...]:
    """The rule classes a run should instantiate.

    Unknown names in either list raise — a typo silently selecting
    nothing would read as a clean run.
    """
    chosen = list(select) if select is not None else list(registry.names())
    ignored = list(ignore or ())
    for name in chosen + ignored:
        registry.get(name)
    return tuple(
        registry.get(name) for name in chosen if name not in ignored
    )
