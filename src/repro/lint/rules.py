"""The builtin rules: this codebase's invariants, machine-checked.

Each rule encodes a convention earlier PRs established by review
discipline alone — timestamps through :mod:`repro.provenance`, sleeps
through :class:`~repro.service.retry.Backoff`, repr-exact exports,
hardened sqlite access, fenced wire envelopes.  The rule docstrings say
*why*; the messages say what to do instead.  Suppress a deliberate
exception where it lives: ``# repro: ignore[rule-id] reason``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, LintRule, SourceFile


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _module_allowed(source: SourceFile, allowed: tuple[str, ...]) -> bool:
    return any(
        source.module == name or source.module.endswith("." + name)
        for name in allowed
    )


class NaiveTimeRule(LintRule):
    """Persisted or wire-visible timestamps must be provenance-stamped.

    A bare ``time.time()`` float or naive ``datetime.now()`` is
    meaningless next to a row written on another host (PR 9's
    provenance sweep); duration arithmetic on a wall clock breaks when
    NTP steps it.  Library code takes wall-clock stamps from
    :func:`repro.provenance.epoch_now` / ``utc_now_iso`` and measures
    durations with ``time.monotonic()``.
    """

    name = "naive-time"
    description = (
        "time.time()/datetime.now()/utcnow outside repro.provenance: "
        "stamps go through provenance, durations through time.monotonic()"
    )
    scope = "library"

    #: The one module allowed to read the wall clock directly.
    allowed_modules = ("repro.provenance",)

    banned = frozenset(
        {
            "time.time",
            "datetime.now",
            "datetime.utcnow",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
        }
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if _module_allowed(source, self.allowed_modules):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name in self.banned or (
                name is not None and name.endswith(".utcnow")
            ):
                yield Finding(
                    path=source.path,
                    line=node.lineno,
                    rule=self.name,
                    message=(
                        f"{name}() is a naive clock reading: use "
                        "repro.provenance (epoch_now/utc_now_iso) for "
                        "persisted stamps, time.monotonic() for durations"
                    ),
                )


class BareSleepLoopRule(LintRule):
    """Retry waits go through the shared backoff, not raw sleeps.

    PR 8 unified every networked loop under
    :class:`~repro.service.retry.RetryPolicy` — jittered, deadline-
    clipped, fleet-decorrelated.  A raw ``time.sleep`` reintroduces the
    fixed-interval hammering that policy exists to end; loops call
    :meth:`~repro.service.retry.Backoff.sleep` instead.
    """

    name = "bare-sleep-loop"
    description = (
        "time.sleep outside service/retry.py: retrying code waits via "
        "RetryPolicy/Backoff.sleep"
    )
    scope = "all"

    #: retry.py owns the one real sleep; a deliberate sleep elsewhere
    #: (a test job's runtime, the chaos proxy's latency fault) carries
    #: an inline ignore with its reason.
    allowed_modules = ("repro.service.retry",)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if _module_allowed(source, self.allowed_modules):
            return
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and dotted(node.func) == "time.sleep"
            ):
                yield Finding(
                    path=source.path,
                    line=node.lineno,
                    rule=self.name,
                    message=(
                        "raw time.sleep: wait through "
                        "repro.service.retry Backoff.sleep() (or an "
                        "Event.wait) so delays stay jittered and "
                        "deadline-bounded"
                    ),
                )


class RoundedExportRule(LintRule):
    """Recorded floats are repr-exact; digit-truncating round() is banned.

    PR 9 removed the ``round(x, 6)`` export truncation: two recorded
    bounds that differ below the rounding digit would compare equal in
    a regression diff.  Two-argument ``round`` in library code is that
    regression's signature — integer rounding (one-arg ``round``,
    ``np.round``) is ordinary math and stays allowed.
    """

    name = "rounded-export"
    description = (
        "two-argument round() in library code: recorded/exported floats "
        "must stay repr-exact (see repro.analysis.export.exact_float)"
    )
    scope = "library"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "round"
                and len(node.args) >= 2
            ):
                yield Finding(
                    path=source.path,
                    line=node.lineno,
                    rule=self.name,
                    message=(
                        "round(x, ndigits) truncates precision: values "
                        "that flow into exports or the result store must "
                        "stay repr-exact (exact_float)"
                    ),
                )


class RawSqliteRule(LintRule):
    """sqlite is opened only through the one hardened opener.

    :func:`repro.sqlitedb.open_database` opens every store's connection
    with the WAL + busy-timeout + ``quick_check`` quarantine discipline
    (PR 8); a raw ``sqlite3.connect`` elsewhere bypasses all three and
    reintroduces ``database is locked`` and crash-torn files.
    """

    name = "raw-sqlite"
    description = (
        "sqlite3.connect outside the hardened opener (repro.sqlitedb)"
    )
    scope = "all"

    allowed_modules = ("repro.sqlitedb",)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if _module_allowed(source, self.allowed_modules):
            return
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and dotted(node.func) == "sqlite3.connect"
            ):
                yield Finding(
                    path=source.path,
                    line=node.lineno,
                    rule=self.name,
                    message=(
                        "raw sqlite3.connect bypasses the WAL/busy-"
                        "timeout/quarantine discipline: open through "
                        "repro.sqlitedb.open_database"
                    ),
                )


class BroadExceptRule(LintRule):
    """``except Exception`` must re-raise or be annotated with a reason.

    A broad handler that swallows silently also swallows programming
    errors — the chaos suite exists because "ignore and continue" hid
    real faults.  A handler that *re-raises* (wrapped or not) is fine;
    a deliberate best-effort boundary carries its reason in a
    ``# repro: ignore[broad-except] why`` annotation.
    """

    name = "broad-except"
    description = (
        "except Exception/BaseException (or bare except) without a "
        "re-raise or an annotated reason"
    )
    scope = "all"

    broad = frozenset({"Exception", "BaseException"})

    def _is_broad(self, node: ast.ExceptHandler) -> bool:
        kind = node.type
        if kind is None:
            return True
        if isinstance(kind, ast.Name):
            return kind.id in self.broad
        if isinstance(kind, ast.Tuple):
            return any(
                isinstance(el, ast.Name) and el.id in self.broad
                for el in kind.elts
            )
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if any(
                isinstance(inner, ast.Raise)
                for stmt in node.body
                for inner in ast.walk(stmt)
            ):
                continue
            yield Finding(
                path=source.path,
                line=node.lineno,
                rule=self.name,
                message=(
                    "broad except swallows programming errors: narrow "
                    "the exception types, re-raise, or annotate with "
                    "`# repro: ignore[broad-except] <reason>`"
                ),
            )


class RegistryLeakRule(LintRule):
    """Tests must not leak registrations into the process-wide registries.

    ``register_scenario``/``register_model``/``register_family`` mutate
    process-global state; a test that registers without a
    ``temporary_*`` scope (or the ``scenario_sandbox`` fixture) poisons
    every test that runs after it, in whatever order the runner picks.
    """

    name = "registry-leak"
    description = (
        "test mutates a default registry outside temporary_scenarios/"
        "temporary_families/temporary_models/scenario_sandbox"
    )
    scope = "tests"

    mutators = frozenset(
        {
            "register_scenario",
            "register_model",
            "register_family",
            "register_family_members",
        }
    )
    scopes = frozenset(
        {"temporary_scenarios", "temporary_families", "temporary_models"}
    )
    defaults = frozenset(
        {"default_registry", "default_model_registry",
         "default_family_registry"}
    )
    fixtures = frozenset({"scenario_sandbox"})

    def _mutation(self, node: ast.Call) -> str | None:
        """The mutating call's display name, or ``None``."""
        name = dotted(node.func)
        if name is not None and name.split(".")[-1] in self.mutators:
            return name
        # <default_*registry>(...).register(...) / .unregister(...)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("register", "unregister")
            and isinstance(node.func.value, ast.Call)
        ):
            inner = dotted(node.func.value.func)
            if inner is not None and inner.split(".")[-1] in self.defaults:
                return f"{inner}().{node.func.attr}"
        return None

    def _scoping_with(self, node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                name = dotted(expr.func)
                if name is not None and name.split(".")[-1] in self.scopes:
                    return True
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, scoped: bool) -> None:
            if isinstance(node, ast.With) and self._scoping_with(node):
                scoped = True
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and any(
                arg.arg in self.fixtures
                for arg in node.args.args + node.args.kwonlyargs
            ):
                scoped = True
            elif isinstance(node, ast.Call) and not scoped:
                name = self._mutation(node)
                if name is not None:
                    findings.append(
                        Finding(
                            path=source.path,
                            line=node.lineno,
                            rule=self.name,
                            message=(
                                f"{name} mutates a process-wide registry:"
                                " wrap in temporary_scenarios/"
                                "temporary_families/temporary_models or "
                                "use the scenario_sandbox fixture"
                            ),
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, scoped)

        visit(source.tree, False)
        yield from findings


class UnpicklableDefaultRule(LintRule):
    """Dataclass fields must not default to lambdas.

    Everything crossing a pool or wire boundary is pickled; a spec
    whose field *stores* a lambda default breaks process-mode fan-out
    at submit time.  ``default_factory=lambda: ...`` is fine (the
    factory's *result* is stored), ``default=lambda ...`` and
    class-level ``field = lambda ...`` are not.
    """

    name = "unpicklable-default"
    description = (
        "dataclass field defaulting to a lambda: the stored value "
        "cannot cross a pool or wire boundary"
    )
    scope = "library"

    def _is_dataclass(self, node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator
            if isinstance(target, ast.Call):
                target = target.func
            name = dotted(target)
            if name is not None and name.split(".")[-1] == "dataclass":
                return True
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.ClassDef) and self._is_dataclass(node)
            ):
                continue
            for stmt in node.body:
                value = None
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    value = stmt.value
                if value is None:
                    continue
                bad: ast.AST | None = None
                if isinstance(value, ast.Lambda):
                    bad = value
                elif isinstance(value, ast.Call) and (
                    (dotted(value.func) or "").split(".")[-1] == "field"
                ):
                    for keyword in value.keywords:
                        if keyword.arg == "default" and isinstance(
                            keyword.value, ast.Lambda
                        ):
                            bad = keyword.value
                if bad is not None:
                    yield Finding(
                        path=source.path,
                        line=bad.lineno,
                        rule=self.name,
                        message=(
                            f"field default in dataclass {node.name} is "
                            "a lambda and would be stored on instances: "
                            "use default_factory or a module-level "
                            "function"
                        ),
                    )


class WireVersionRule(LintRule):
    """Every wire envelope kind is handled on both sides.

    A ``*_KIND`` constant that is encoded but never decoded (or the
    reverse) means one side of the protocol silently ignores — or can
    never produce — that envelope; exactly how the cancel body and the
    completion ack went unchecked before this rule existed.  Evidence
    is a use of the constant in an ``encode_*`` call (encode side) and
    a ``decode_*`` / ``_envelope`` call (decode side), anywhere in the
    library.
    """

    name = "wire-version"
    description = (
        "a *_KIND envelope constant missing from the encode or the "
        "decode side of the wire protocol"
    )
    scope = "library"

    def __init__(self) -> None:
        #: kind name -> (path, line) of its defining assignment.
        self.defined: dict[str, tuple[str, int]] = {}
        self.encoded: set[str] = set()
        self.decoded: set[str] = set()

    @staticmethod
    def _is_kind_name(name: str) -> bool:
        return name.endswith("_KIND") and name.lstrip("_").isupper()

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and self._is_kind_name(target.id)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)
                    ):
                        self.defined.setdefault(
                            target.id, (source.path, node.lineno)
                        )
            elif isinstance(node, ast.Call):
                func = dotted(node.func)
                if func is None:
                    continue
                tail = func.split(".")[-1]
                used = {
                    arg.id
                    for arg in node.args
                    if isinstance(arg, ast.Name)
                    and self._is_kind_name(arg.id)
                } | {
                    arg.attr
                    for arg in node.args
                    if isinstance(arg, ast.Attribute)
                    and self._is_kind_name(arg.attr)
                }
                if not used:
                    continue
                if tail.startswith("encode_"):
                    self.encoded |= used
                elif tail.startswith("decode_") or tail == "_envelope":
                    self.decoded |= used
        return iter(())

    def finish(self) -> Iterator[Finding]:
        for name, (path, line) in sorted(self.defined.items()):
            missing = []
            if name not in self.encoded:
                missing.append("encode")
            if name not in self.decoded:
                missing.append("decode")
            if missing:
                yield Finding(
                    path=path,
                    line=line,
                    rule=self.name,
                    message=(
                        f"envelope kind {name} has no "
                        f"{' or '.join(missing)} handling: one protocol "
                        "side ignores (or can never produce) it"
                    ),
                )


def builtin_rules() -> tuple[type[LintRule], ...]:
    """The rules every registry starts from, in ``repro lint --list``
    order."""
    return (
        NaiveTimeRule,
        BareSleepLoopRule,
        RoundedExportRule,
        RawSqliteRule,
        BroadExceptRule,
        RegistryLeakRule,
        UnpicklableDefaultRule,
        WireVersionRule,
    )
