"""The lint framework under test: rules, suppression, reporters, CLI.

Every builtin rule is exercised against a pair of fixtures under
``tests/lint_fixtures/`` — one file it must flag, one it must leave
alone.  The fixtures are parsed under *synthetic* paths (``src/repro/``
or ``tests/``) so scope handling is what's tested, not where the
fixture happens to live; the runner itself never descends into
``lint_fixtures``.  The meta-test at the bottom is the repo's own
guardrail: ``repro lint src tests`` must be clean at HEAD.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from repro import cli
from repro.lint import (
    REPORT_VERSION,
    Finding,
    LintError,
    LintRule,
    SourceFile,
    collect_files,
    default_rule_registry,
    json_report,
    lint_paths,
    rule_names,
    run_rules,
    select_rules,
    temporary_rules,
)
from repro.lint.core import is_test_path, module_name, parse_suppressions

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "lint_fixtures"

#: A plausible library-module path fixtures are parsed under.
LIBRARY_PATH = "src/repro/_lint_fixture.py"
#: A plausible test-module path for tests-scoped rules.
TEST_PATH = "tests/test_lint_fixture.py"


def parse_fixture(name: str, *, as_test: bool = False) -> SourceFile:
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return SourceFile.parse(
        TEST_PATH if as_test else LIBRARY_PATH, text=text
    )


def findings_for(rule_name: str, source: SourceFile) -> list[Finding]:
    rule = default_rule_registry().get(rule_name)
    return run_rules([rule], [source])


# ----------------------------------------------------------------------
# Every rule: one catching fixture, one non-flagging fixture
# ----------------------------------------------------------------------

#: (rule id, fixture it must flag, fixture it must not, parsed-as-test)
RULE_CASES = [
    ("naive-time", "naive_time_bad.py", "naive_time_ok.py", False),
    ("bare-sleep-loop", "sleep_bad.py", "sleep_ok.py", False),
    ("rounded-export", "round_bad.py", "round_ok.py", False),
    ("raw-sqlite", "sqlite_bad.py", "sqlite_ok.py", False),
    ("broad-except", "broad_except_bad.py", "broad_except_ok.py", False),
    ("registry-leak", "registry_leak_bad.py", "registry_leak_ok.py", True),
    ("unpicklable-default", "unpicklable_bad.py", "unpicklable_ok.py", False),
    ("wire-version", "wire_version_bad.py", "wire_version_ok.py", False),
]


class TestBuiltinRules:
    def test_every_registered_rule_has_a_case(self):
        assert sorted(case[0] for case in RULE_CASES) == sorted(rule_names())

    @pytest.mark.parametrize(
        "rule,bad,ok,as_test", RULE_CASES, ids=[c[0] for c in RULE_CASES]
    )
    def test_rule_flags_bad_fixture(self, rule, bad, ok, as_test):
        found = findings_for(rule, parse_fixture(bad, as_test=as_test))
        assert found, f"{rule} missed {bad}"
        assert all(item.rule == rule for item in found)
        assert all(item.line > 0 for item in found)

    @pytest.mark.parametrize(
        "rule,bad,ok,as_test", RULE_CASES, ids=[c[0] for c in RULE_CASES]
    )
    def test_rule_passes_ok_fixture(self, rule, bad, ok, as_test):
        found = findings_for(rule, parse_fixture(ok, as_test=as_test))
        assert found == [], f"{rule} false-positives on {ok}"

    def test_naive_time_flags_each_call_site(self):
        found = findings_for("naive-time", parse_fixture("naive_time_bad.py"))
        assert len(found) == 2  # time.time() and datetime.utcnow()

    def test_registry_leak_names_both_mutation_forms(self):
        found = findings_for(
            "registry-leak",
            parse_fixture("registry_leak_bad.py", as_test=True),
        )
        messages = " ".join(item.message for item in found)
        assert "register_scenario" in messages
        assert "default_registry().register" in messages

    @pytest.mark.parametrize(
        "module, flagged",
        [
            ("src/repro/service/store.py", True),
            ("src/repro/store/resultstore.py", True),
            ("src/repro/sqlitedb.py", False),
        ],
    )
    def test_raw_sqlite_allows_only_the_opener(self, module, flagged):
        text = (FIXTURES / "sqlite_bad.py").read_text(encoding="utf-8")
        found = findings_for("raw-sqlite", SourceFile.parse(module, text=text))
        assert bool(found) is flagged
        if flagged:
            assert "repro.sqlitedb.open_database" in found[0].message

    def test_wire_version_names_the_missing_side(self):
        found = findings_for(
            "wire-version", parse_fixture("wire_version_bad.py")
        )
        assert len(found) == 1
        assert "ORPHAN_KIND" in found[0].message
        assert "decode" in found[0].message

    def test_library_rules_skip_test_files(self):
        # The same violating text parsed under a tests/ path is out of
        # scope for a library rule.
        source = parse_fixture("naive_time_bad.py", as_test=True)
        assert findings_for("naive-time", source) == []

    def test_tests_rules_skip_library_files(self):
        source = parse_fixture("registry_leak_bad.py", as_test=False)
        assert findings_for("registry-leak", source) == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    def _sleep_source(self, comment: str) -> SourceFile:
        text = (
            "import time\n"
            "def wait():\n"
            f"    time.sleep(0.1){comment}\n"
        )
        return SourceFile.parse(LIBRARY_PATH, text=text)

    def test_matching_rule_id_suppresses(self):
        source = self._sleep_source(
            "  # repro: ignore[bare-sleep-loop] deliberate"
        )
        assert findings_for("bare-sleep-loop", source) == []

    def test_other_rule_id_does_not_suppress(self):
        source = self._sleep_source("  # repro: ignore[naive-time] wrong id")
        assert len(findings_for("bare-sleep-loop", source)) == 1

    def test_multiple_ids_in_one_annotation(self):
        source = self._sleep_source(
            "  # repro: ignore[naive-time, bare-sleep-loop] both"
        )
        assert findings_for("bare-sleep-loop", source) == []

    def test_suppression_is_per_line(self):
        text = (
            "import time\n"
            "def wait():\n"
            "    time.sleep(0.1)  # repro: ignore[bare-sleep-loop] here\n"
            "    time.sleep(0.2)\n"
        )
        source = SourceFile.parse(LIBRARY_PATH, text=text)
        found = findings_for("bare-sleep-loop", source)
        assert [item.line for item in found] == [4]

    def test_parse_suppressions_table(self):
        table = parse_suppressions(
            "x = 1\ny = 2  # repro: ignore[a, b] reason\n"
        )
        assert table == {2: frozenset({"a", "b"})}


# ----------------------------------------------------------------------
# Framework plumbing: SourceFile, registry, selection
# ----------------------------------------------------------------------
class TestFramework:
    def test_is_test_path(self):
        assert is_test_path(pathlib.PurePath("tests/test_x.py"))
        assert is_test_path(pathlib.PurePath("pkg/conftest.py"))
        assert is_test_path(pathlib.PurePath("test_standalone.py"))
        assert not is_test_path(pathlib.PurePath("src/repro/cli.py"))

    def test_module_name_resolves_relative_to_src(self):
        assert module_name(
            pathlib.PurePath("/root/repo/src/repro/service/store.py")
        ) == "repro.service.store"
        assert module_name(
            pathlib.PurePath("src/repro/__init__.py")
        ) == "repro"

    def test_syntax_error_is_a_lint_error(self):
        with pytest.raises(LintError, match="cannot parse"):
            SourceFile.parse("src/broken.py", text="def broken(:\n")

    def test_register_requires_name_and_description(self):
        class Nameless(LintRule):
            pass

        with pytest.raises(LintError, match="must set name"):
            with temporary_rules(Nameless):
                pass

    def test_register_validates_scope(self):
        class BadScope(LintRule):
            name = "bad-scope"
            description = "x"
            scope = "everywhere"

        with pytest.raises(LintError, match="scope"):
            with temporary_rules(BadScope):
                pass

    def test_select_unknown_rule_raises(self):
        with pytest.raises(LintError, match="unknown lint rule"):
            select_rules(default_rule_registry(), ["no-such-rule"])
        with pytest.raises(LintError, match="unknown lint rule"):
            select_rules(default_rule_registry(), None, ["no-such-rule"])

    def test_select_and_ignore_compose(self):
        chosen = select_rules(
            default_rule_registry(), ["naive-time", "raw-sqlite"],
            ["raw-sqlite"],
        )
        assert [rule.name for rule in chosen] == ["naive-time"]

    def test_fresh_instances_per_run(self):
        # wire-version accumulates cross-file state; two runs over the
        # same registry must not bleed evidence into each other.
        bad = parse_fixture("wire_version_bad.py")
        ok = parse_fixture("wire_version_ok.py")
        assert len(findings_for("wire-version", bad)) == 1
        assert findings_for("wire-version", ok) == []
        assert len(findings_for("wire-version", bad)) == 1

    def test_collect_files_skips_fixture_dirs(self):
        collected = collect_files([str(REPO_ROOT / "tests")])
        assert collected, "tests tree yielded no files"
        assert not any("lint_fixtures" in str(path) for path in collected)

    def test_collect_files_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            collect_files([str(REPO_ROOT / "no-such-dir")])


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    def test_json_report_schema(self):
        findings = [
            Finding(path="a.py", line=3, rule="naive-time", message="m")
        ]
        document = json.loads(json_report(findings, 7, ["naive-time"]))
        assert document == {
            "version": REPORT_VERSION,
            "checked_files": 7,
            "rules": ["naive-time"],
            "findings": [
                {
                    "path": "a.py",
                    "line": 3,
                    "rule": "naive-time",
                    "message": "m",
                }
            ],
        }

    def test_finding_format_is_clickable(self):
        finding = Finding(path="a.py", line=3, rule="r", message="m")
        assert finding.format() == "a.py:3: [r] m"


# ----------------------------------------------------------------------
# The CLI gate (exit-code contract) and the HEAD meta-test
# ----------------------------------------------------------------------
class TestCliLint:
    def test_clean_file_exits_zero(self, capsys):
        code = cli.main(["lint", str(FIXTURES / "sleep_ok.py")])
        assert code == 0
        assert "clean: 1 file checked" in capsys.readouterr().out

    def test_violation_exits_one(self, capsys):
        code = cli.main(["lint", str(FIXTURES / "sleep_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "[bare-sleep-loop]" in out
        assert "1 finding in 1 file" in out

    def test_unknown_rule_exits_two(self, capsys):
        code = cli.main(
            ["lint", "--select", "no-such-rule", str(FIXTURES)]
        )
        assert code == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        code = cli.main(["lint", str(REPO_ROOT / "no-such-dir")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_json_format_round_trips(self, capsys):
        code = cli.main(
            ["lint", "--format", "json", str(FIXTURES / "sleep_bad.py")]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == REPORT_VERSION
        assert document["checked_files"] == 1
        assert document["findings"][0]["rule"] == "bare-sleep-loop"

    def test_ignore_silences_the_rule(self, capsys):
        code = cli.main(
            [
                "lint",
                "--ignore",
                "bare-sleep-loop",
                str(FIXTURES / "sleep_bad.py"),
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_list_names_every_rule(self, capsys):
        assert cli.main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for name in rule_names():
            assert name in out


class TestHeadIsClean:
    """The repo's own guardrail: the sweep must be clean at HEAD."""

    def test_src_and_tests_lint_clean(self):
        run = lint_paths(
            [str(REPO_ROOT / name) for name in ("src", "tests", "examples")]
        )
        assert run.findings == (), "\n".join(
            finding.format() for finding in run.findings
        )
        assert run.exit_code == 0
        assert run.checked_files > 100
        assert set(run.rules) == set(rule_names())


# ----------------------------------------------------------------------
# The typed-API gate (runs only where mypy is installed, e.g. CI)
# ----------------------------------------------------------------------
class TestTypedApi:
    def test_py_typed_marker_ships(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
        assert "py.typed" in (REPO_ROOT / "setup.py").read_text()

    @pytest.mark.skipif(
        importlib.util.find_spec("mypy") is None,
        reason="mypy is not installed in this environment",
    )
    def test_mypy_pinned_module_set_is_clean(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mypy",
                "--config-file",
                str(REPO_ROOT / "mypy.ini"),
                "src",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# README: the Code quality rule table must not drift from the registry
# ----------------------------------------------------------------------
class TestReadmeCodeQualitySection:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO_ROOT / "README.md").read_text(encoding="utf-8")

    def test_section_exists(self, readme):
        assert "## Code quality" in readme

    def test_every_rule_is_documented(self, readme):
        for rule in default_rule_registry():
            assert f"`{rule.name}`" in readme, rule.name
