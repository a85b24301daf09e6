"""The one registry contract, checked on every default registry.

Models, scenarios, scenario families and lint rules all register
against :class:`repro.registry.Registry`; each kind differs only in its
error class, the word its messages use and its item check.  Every case
here runs once per kind through the kind's module-level functions, so
a kind whose delegation drifts fails the same test as the others.
Kind-specific checks (builtin contents, the lint rules' name/scope
validation, family member registration) stay in each kind's own test
module.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import pytest

from repro.core import ModelCapabilities, ModelSpec
from repro.core import registry as models
from repro.engine import ScenarioFamily, ScenarioSpec
from repro.engine import families, registry as scenarios
from repro.errors import EngineError, ModelError, ReproError
from repro.lint import LintError, LintRule
from repro.lint import registry as rules


def _no_bound(context: Any) -> None:
    return None


def _one_member(x: int) -> ScenarioSpec:
    return ScenarioSpec(name=f"contract-family/x{x}")


def _model(name: str) -> ModelSpec:
    return ModelSpec(
        name=name,
        description="registry contract model",
        capabilities=ModelCapabilities(
            needs_profile=False, needs_scenario=False
        ),
        fn=_no_bound,
    )


def _family(name: str) -> ScenarioFamily:
    return ScenarioFamily(
        name=name,
        description="registry contract family",
        axes={"x": (1,)},
        build=_one_member,
    )


def _rule(name: str) -> type[LintRule]:
    return type(
        "ContractRule",
        (LintRule,),
        {"name": name, "description": "registry contract rule"},
    )


@dataclasses.dataclass(frozen=True)
class Kind:
    """One registry kind and its module-level functions."""

    word: str
    error: type[ReproError]
    make: Callable[[str], Any]
    default: Callable[[], Any]
    register: Callable[..., Any]
    temporary: Callable[..., Any]
    names: Callable[[], tuple[str, ...]]


KINDS = [
    Kind(
        "model", ModelError, _model, models.default_model_registry,
        models.register_model, models.temporary_models, models.model_names,
    ),
    Kind(
        "scenario", EngineError, ScenarioSpec, scenarios.default_registry,
        scenarios.register_scenario, scenarios.temporary_scenarios,
        scenarios.scenario_names,
    ),
    Kind(
        "family", EngineError, _family, families.default_family_registry,
        families.register_family, families.temporary_families,
        families.family_names,
    ),
    Kind(
        "lint rule", LintError, _rule, rules.default_rule_registry,
        rules.register_rule, rules.temporary_rules, rules.rule_names,
    ),
]


@pytest.fixture(params=KINDS, ids=[kind.word for kind in KINDS])
def kind(request) -> Kind:
    return request.param


def test_duplicate_registration_rejected(kind):
    item = kind.make("contract-item")
    with kind.temporary(item):
        with pytest.raises(
            kind.error,
            match=(
                f"{kind.word} 'contract-item' is already registered "
                r"\(pass replace=True to overwrite\)"
            ),
        ):
            kind.register(kind.make("contract-item"))
        assert kind.default().get("contract-item") is item


def test_replace_overwrites_and_the_scope_restores(kind):
    builtin = kind.names()[0]
    original = kind.default().get(builtin)
    shadow, again = kind.make(builtin), kind.make(builtin)
    with kind.temporary(shadow, replace=True):
        assert kind.default().get(builtin) is shadow
        assert kind.register(again, replace=True) is again
        assert kind.default().get(builtin) is again
    assert kind.default().get(builtin) is original


def test_unregister_removes_the_entry(kind):
    with kind.temporary(kind.make("contract-item")) as registry:
        registry.unregister("contract-item")
        assert "contract-item" not in registry
        assert "contract-item" not in kind.names()
        with pytest.raises(
            kind.error, match=f"{kind.word} 'contract-item' is not registered"
        ):
            registry.unregister("contract-item")


def test_unknown_name_lists_the_registered_ones(kind):
    with pytest.raises(kind.error) as excinfo:
        kind.default().get("no-such-item")
    message = str(excinfo.value)
    assert message.startswith(f"unknown {kind.word} 'no-such-item'; ")
    registered = message.split("registered: ", 1)[1].split(", ")
    assert tuple(registered) == kind.names()


def test_wrong_item_type_rejected(kind):
    before = kind.names()
    with kind.temporary():
        with pytest.raises(kind.error, match="expected a"):
            kind.register(object())
    assert kind.names() == before


def test_temporary_scope_restores_after_an_exception(kind):
    before = kind.names()
    with pytest.raises(RuntimeError, match="boom"):
        with kind.temporary(kind.make("contract-item")) as registry:
            assert "contract-item" in kind.names()
            registry.register(kind.make("contract-other"))
            raise RuntimeError("boom")
    assert kind.names() == before
