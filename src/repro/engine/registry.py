"""Named scenario registry: deployments as data, not code.

Adding an experiment deployment used to mean writing a driver; now it
means registering a :class:`~repro.engine.scenario.ScenarioSpec`::

    from repro.engine import ScenarioSpec, WorkloadRef, register_scenario

    register_scenario(ScenarioSpec(
        name="sc1-quad",
        base="scenario1",
        description="app + three staggered loads (4-core derivative)",
        contenders=(
            (0, WorkloadRef.load("H", scale=1 / 64)),
            (2, WorkloadRef.load("M", scale=1 / 64)),
            (3, WorkloadRef.load("L", scale=1 / 64)),
        ),
        app=WorkloadRef.control_loop(scale=1 / 64),
    ))

after which ``repro run sc1-quad`` (or
:func:`repro.engine.experiment.run_spec`) executes it end to end.

The default registry ships the paper's pairings, the three-core TC277
layouts and a four-core derivative per reference deployment, so scenario
diversity is no longer capped at the paper's two figures.
"""

from __future__ import annotations

import contextlib
import functools

from repro.engine.scenario import ScenarioSpec, WorkloadRef
from repro.errors import EngineError
from repro.registry import Registry

#: Workload scale of the bundled multi-core specs (keeps them fast).
_BUILTIN_SCALE = 1 / 32


def builtin_specs() -> tuple[ScenarioSpec, ...]:
    """The specs every registry starts from.

    Per reference deployment: the paper's three two-core pairings
    (Figure 4's bars), the three-core TC277 layout (application plus two
    loads) and a four-core derivative demonstrating that specs are not
    capped at the TC27x's core count.
    """
    specs: list[ScenarioSpec] = []
    for base in ("scenario1", "scenario2"):
        for level in ("H", "M", "L"):
            specs.append(
                ScenarioSpec(
                    name=f"{base}-pair-{level}",
                    base=base,
                    description=(
                        f"paper pairing: app on core 1 vs {level}-Load "
                        "on core 2"
                    ),
                    app=WorkloadRef.control_loop(scale=_BUILTIN_SCALE),
                    contenders=(
                        (2, WorkloadRef.load(level, scale=_BUILTIN_SCALE)),
                    ),
                )
            )
        specs.append(
            ScenarioSpec(
                name=f"{base}-3core",
                base=base,
                description=(
                    "full TC277: app on core 1, H-Load on core 0, "
                    "L-Load on core 2"
                ),
                app=WorkloadRef.control_loop(scale=_BUILTIN_SCALE),
                contenders=(
                    (0, WorkloadRef.load("H", scale=_BUILTIN_SCALE)),
                    (2, WorkloadRef.load("L", scale=_BUILTIN_SCALE)),
                ),
            )
        )
        specs.append(
            ScenarioSpec(
                name=f"{base}-4core",
                base=base,
                description=(
                    "four-core derivative: app on core 1, H/M/L loads "
                    "on cores 0, 2, 3"
                ),
                app=WorkloadRef.control_loop(scale=_BUILTIN_SCALE),
                contenders=(
                    (0, WorkloadRef.load("H", scale=_BUILTIN_SCALE)),
                    (2, WorkloadRef.load("M", scale=_BUILTIN_SCALE)),
                    (3, WorkloadRef.load("L", scale=_BUILTIN_SCALE)),
                ),
            )
        )
    return tuple(specs)


def _scenario_problem(spec: object) -> str | None:
    if isinstance(spec, ScenarioSpec):
        return None
    return f"expected a ScenarioSpec, got {type(spec).__qualname__}"


@functools.cache
def default_registry() -> Registry[ScenarioSpec]:
    """The process-wide registry, created with the builtin specs."""
    return Registry(
        "scenario", EngineError, _scenario_problem, builtin_specs()
    )


def register_scenario(
    spec: ScenarioSpec, *, replace: bool = False
) -> ScenarioSpec:
    """Register a spec in the default registry."""
    return default_registry().register(spec, replace=replace)


def temporary_scenarios(
    *specs: ScenarioSpec, replace: bool = False
) -> contextlib.AbstractContextManager[Registry[ScenarioSpec]]:
    """Scope registrations to a ``with`` block.

    ``register_scenario`` and :func:`~repro.engine.families.
    register_family_members` both target the default registry, so specs
    registered inside the block are dropped again on exit, exception or
    not (:meth:`repro.registry.Registry.temporary`)::

        with temporary_scenarios(my_spec) as registry:
            run_spec(my_spec.name)
        # my_spec is gone again

    The accompanying pytest fixture (``scenario_sandbox`` in
    ``tests/conftest.py``) wraps whole tests in one.
    """
    return default_registry().temporary(*specs, replace=replace)


def get_scenario(name: str) -> ScenarioSpec:
    """Look a spec up in the default registry."""
    return default_registry().get(name)


def scenario_names() -> tuple[str, ...]:
    """Names registered in the default registry."""
    return default_registry().names()
