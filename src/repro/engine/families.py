"""Scenario families: parameter grids expanded into scenario specs.

The registry made deployments *data*; this module makes whole sweeps
data.  A :class:`ScenarioFamily` names an ordered set of axes and a
build function mapping one grid point to a
:class:`~repro.engine.scenario.ScenarioSpec` (or ``None`` to skip an
illegal point — the cacheability family filters Table 3 violations that
way).  ``expand_family`` materialises the grid, ``register_family``
registers it by name, and :func:`run_family` batches every member
through the experiment engine (:func:`family_jobs` builds that batch for
it and for the CLI, whose ``--matrix`` runs every member under every
counter-based model), so "add a sweep" is three lines of axes instead of
a new driver::

    from repro.engine import ScenarioFamily, register_family, run_family

    register_family(ScenarioFamily(
        name="my-sweep",
        description="app vs H-Load at three footprint scales",
        axes={"scale_den": (32, 64, 128)},
        build=lambda scale_den: ScenarioSpec(
            name=f"my-sweep/s{scale_den}",
            app=WorkloadRef.control_loop(scale=1 / scale_den),
            contenders=((2, WorkloadRef.load("H", scale=1 / scale_den)),),
        ),
    ))
    results = run_family("my-sweep", engine=engine)

Three builtin families probe the territory the paper scopes out (its
models cover contenders "mapped to the same SRI priority class"):

* **dma-pressure** — ``DmaSpec`` grids over queue depth × period ×
  count against a higher-priority DMA master on both reference bases.
  Paced single-outstanding agents keep the round-robin alignment
  assumption; saturating periods and deep queues starve the victim, so
  ``dma-rr-alignment`` under-predicts there while ``dma-occupancy``
  stays sound on every member.
* **priority-arbitration** — the same contender mixes co-run under
  round-robin and fixed-priority SRI arbitration.  TriCore cores are
  single-outstanding masters: core pairs observe identical victim
  times under both policies (three-master interleavings may shift, but
  every request is still delayed at most once per other master per
  round), so the counter-based bounds remain sound under both — the
  measured justification for the paper's same-class scoping.
* **cacheability** — every Table 3-legal custom placement of code and
  (cacheable or not) data, with dirty-eviction targets derived per
  member; sweeps the deployment dimension the reference scenarios fix.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.registry import (
    counter_based_model_names,
    get_model,
    require_counter_based,
)
from repro.engine.experiment import ScenarioRunResult, spec_job
from repro.engine.registry import default_registry
from repro.engine.runner import ExperimentEngine, run_jobs
from repro.engine.scenario import DmaSpec, ScenarioSpec, WorkloadRef
from repro.errors import EngineError, ModelError
from repro.platform.cacheability import (
    SectionKind,
    dirty_eviction_targets,
    placement_matrix,
)
from repro.platform.targets import Operation, Target
from repro.registry import Registry

#: Workload scale of the builtin families (keeps full expansions fast).
_FAMILY_SCALE = 1 / 256


@dataclasses.dataclass(frozen=True)
class ScenarioFamily:
    """A declarative scenario generator: axes × build function.

    Attributes:
        name: registry key; every member spec's name must start with
            ``"<name>/"`` so members stay addressable per family.
        description: one-line summary for ``repro families`` and the
            README's generated section.
        axes: ordered mapping of axis name → value tuple.  The grid is
            the cartesian product, expanded row-major in declaration
            order (stable member order in every process).
        build: callable taking one keyword argument per axis and
            returning the member :class:`ScenarioSpec`, or ``None`` to
            skip the point (e.g. a placement Table 3 forbids).  Must be
            deterministic: expansion happens in every process that needs
            the family, and member specs are engine cache keys.
        default_model: counter-based contention model driving
            :func:`run_family` when the caller names none.
        default_dma_model: descriptor model bounding members' DMA
            traffic when the caller names none.
    """

    name: str
    description: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    build: Callable[..., ScenarioSpec | None]
    default_model: str = "ilp-ptac"
    default_dma_model: str = "dma-occupancy"

    def __post_init__(self) -> None:
        if not self.name:
            raise EngineError("a scenario family needs a name")
        if isinstance(self.axes, Mapping):
            object.__setattr__(
                self,
                "axes",
                tuple((k, tuple(v)) for k, v in self.axes.items()),
            )
        else:
            object.__setattr__(
                self,
                "axes",
                tuple((k, tuple(v)) for k, v in self.axes),
            )
        if not self.axes:
            raise EngineError(
                f"family {self.name!r} needs at least one axis"
            )
        names = [axis for axis, _ in self.axes]
        if len(set(names)) != len(names):
            raise EngineError(f"family {self.name!r} has duplicate axes")
        for axis, values in self.axes:
            if not axis.isidentifier():
                raise EngineError(
                    f"family {self.name!r}: axis {axis!r} must be a "
                    "valid identifier (it becomes a build() keyword)"
                )
            if not values:
                raise EngineError(
                    f"family {self.name!r}: axis {axis!r} has no values"
                )
        if not callable(self.build):
            raise EngineError(
                f"family {self.name!r}: build must be callable"
            )

    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(axis for axis, _ in self.axes)

    @property
    def grid_size(self) -> int:
        """Number of grid points *before* legality filtering."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def points(self) -> Iterator[tuple[tuple[str, Any], ...]]:
        """Grid points in row-major declaration order."""
        names = self.axis_names
        for combo in itertools.product(*(values for _, values in self.axes)):
            yield tuple(zip(names, combo))

    def describe_axes(self) -> str:
        """Compact axes rendering for listings, e.g. ``qd=1|4|8``."""
        return " ".join(
            f"{axis}={'|'.join(str(v) for v in values)}"
            for axis, values in self.axes
        )


@dataclasses.dataclass(frozen=True)
class FamilyMember:
    """One expanded grid point: the axis assignment plus its spec."""

    family: str
    point: tuple[tuple[str, Any], ...]
    spec: ScenarioSpec

    @property
    def name(self) -> str:
        return self.spec.name

    def describe_point(self) -> str:
        """``axis=value`` rendering of the member's grid coordinates."""
        return " ".join(f"{axis}={value}" for axis, value in self.point)


@dataclasses.dataclass(frozen=True)
class FamilyRunResult:
    """One member's end-to-end run, tagged with its grid coordinates."""

    member: FamilyMember
    run: ScenarioRunResult

    @property
    def sound(self) -> bool:
        return self.run.sound


def expand_family(
    family: "ScenarioFamily | str",
) -> tuple[FamilyMember, ...]:
    """Materialise a family's grid into validated members.

    Every surviving point's spec is validated by
    :class:`ScenarioSpec`'s own ``__post_init__`` (build functions
    cannot smuggle ill-formed deployments past registration), must be
    named ``"<family>/..."`` and must not collide with another member.
    """
    if isinstance(family, str):
        family = get_family(family)
    members: list[FamilyMember] = []
    seen: set[str] = set()
    prefix = f"{family.name}/"
    for point in family.points():
        spec = family.build(**dict(point))
        if spec is None:
            continue
        if not isinstance(spec, ScenarioSpec):
            raise EngineError(
                f"family {family.name!r}: build() returned "
                f"{type(spec).__qualname__} for point {dict(point)!r}; "
                "expected a ScenarioSpec or None"
            )
        if not spec.name.startswith(prefix):
            raise EngineError(
                f"family {family.name!r}: member {spec.name!r} must be "
                f"named {prefix!r}<member>"
            )
        if spec.name in seen:
            raise EngineError(
                f"family {family.name!r}: duplicate member name "
                f"{spec.name!r}"
            )
        seen.add(spec.name)
        members.append(
            FamilyMember(family=family.name, point=point, spec=spec)
        )
    if not members:
        raise EngineError(
            f"family {family.name!r} expanded to zero members"
        )
    return tuple(members)


# ----------------------------------------------------------------------
# Builtin families
# ----------------------------------------------------------------------
def _build_dma_pressure(
    base: str, queue_depth: int, period: int, count: int
) -> ScenarioSpec:
    # The DMA master sits in a *higher* SRI priority class than the
    # application core — precisely the contender the paper scopes out.
    # Period 2 saturates the LMU (the agent always has a transaction
    # pending, at any queue depth); period 24 exceeds the service time,
    # so the agent goes idle between transactions and depth never
    # accumulates — the regime where the alignment assumption survives.
    return ScenarioSpec(
        name=f"dma-pressure/{base}-qd{queue_depth}-p{period}-c{count}",
        base=base,
        description=(
            f"app vs higher-priority DMA on the LMU (depth {queue_depth}, "
            f"period {period}, {count} transactions)"
        ),
        app=WorkloadRef.control_loop(scale=_FAMILY_SCALE),
        dma=(
            DmaSpec(
                master_id=9,
                target=Target.LMU,
                count=count,
                period=period,
                queue_depth=queue_depth,
            ),
        ),
        arbitration="priority",
        priorities=((1, 5), (9, 0)),
    )


#: Contender cores of the priority-arbitration mixes (app stays on 1).
_MIX_CORES = (2, 0, 3)


def _build_priority_mix(
    base: str, arbitration: str, mix: str
) -> ScenarioSpec:
    contenders = tuple(
        (core, WorkloadRef.load(level, scale=_FAMILY_SCALE))
        for core, level in zip(_MIX_CORES, mix)
    )
    priorities: tuple[tuple[int, int], ...] = ()
    if arbitration == "priority":
        # Worst case for the application: every contender core wins.
        priorities = ((1, 1),) + tuple(
            (core, 0) for core, _ in contenders
        )
    return ScenarioSpec(
        name=f"priority-arbitration/{base}-{arbitration}-{mix}",
        base=base,
        description=(
            f"app vs {'+'.join(mix)}-Load under {arbitration} SRI "
            "arbitration"
        ),
        app=WorkloadRef.control_loop(scale=_FAMILY_SCALE),
        contenders=contenders,
        arbitration=arbitration,
        priorities=priorities,
    )


def _build_cacheability(
    code_target: str, data_target: str, data_cacheable: bool
) -> ScenarioSpec | None:
    code_kind = SectionKind(Operation.CODE, True)
    data_kind = SectionKind(Operation.DATA, data_cacheable)
    matrix = placement_matrix()
    if not matrix[data_kind.label()][data_target]:
        return None  # Table 3 forbids the placement: skip the point
    if not matrix[code_kind.label()][code_target]:
        return None
    code, data = Target(code_target), Target(data_target)
    placements = ((code_kind, code), (data_kind, data))
    suffix = "c" if data_cacheable else "nc"
    return ScenarioSpec(
        name=f"cacheability/co-{code_target}-da-{data_target}-{suffix}",
        base="custom",
        description=(
            f"code on {code_target}, "
            f"{'cacheable' if data_cacheable else 'non-cacheable'} data "
            f"on {data_target}"
        ),
        app=WorkloadRef.synthetic(11, max_requests=400, name="probe-app"),
        contenders=(
            (2, WorkloadRef.synthetic(23, max_requests=400, name="rival")),
        ),
        code_targets=(code,),
        data_targets=(data,),
        dirty_targets=tuple(dirty_eviction_targets(placements)),
    )


def builtin_families() -> tuple[ScenarioFamily, ...]:
    """The families every registry starts from (see the module docstring)."""
    return (
        ScenarioFamily(
            name="dma-pressure",
            description=(
                "higher-priority DMA grids (queue depth × period × "
                "count) on both reference bases: dma-occupancy stays "
                "sound on every member while the round-robin alignment "
                "bound (dma-rr-alignment) under-predicts once the agent "
                "saturates its slave or queues a deep burst"
            ),
            axes={
                "base": ("scenario1", "scenario2"),
                "queue_depth": (1, 4, 8),
                "period": (2, 24),
                "count": (8000, 16000),
            },
            build=_build_dma_pressure,
        ),
        ScenarioFamily(
            name="priority-arbitration",
            description=(
                "fixed-priority vs round-robin contender mixes: "
                "single-outstanding TriCore pairs observe identical "
                "victim times under both policies and the same-class "
                "counter bounds stay sound throughout — the measured "
                "justification for the paper's priority-class scoping"
            ),
            axes={
                "base": ("scenario1", "scenario2"),
                "arbitration": ("round-robin", "priority"),
                "mix": ("H", "L", "HL"),
            },
            build=_build_priority_mix,
        ),
        ScenarioFamily(
            name="cacheability",
            description=(
                "every Table 3-legal custom placement of code and "
                "(non-)cacheable data across the SRI slaves, with "
                "dirty-eviction targets derived per member; illegal "
                "grid points are filtered by the placement matrix"
            ),
            axes={
                "code_target": ("pf0", "pf1", "lmu"),
                "data_target": ("pf0", "pf1", "dfl", "lmu"),
                "data_cacheable": (True, False),
            },
            build=_build_cacheability,
        ),
    )


def _family_problem(family: object) -> str | None:
    if isinstance(family, ScenarioFamily):
        return None
    return f"expected a ScenarioFamily, got {type(family).__qualname__}"


@functools.cache
def default_family_registry() -> Registry[ScenarioFamily]:
    """The process-wide registry, created with the builtin families."""
    return Registry(
        "family", EngineError, _family_problem, builtin_families()
    )


def register_family(
    family: ScenarioFamily, *, replace: bool = False
) -> ScenarioFamily:
    """Register a family in the default registry."""
    return default_family_registry().register(family, replace=replace)


def temporary_families(
    *families: ScenarioFamily, replace: bool = False
) -> contextlib.AbstractContextManager[Registry[ScenarioFamily]]:
    """Scope family registrations to a ``with`` block
    (:meth:`repro.registry.Registry.temporary` on the default registry)."""
    return default_family_registry().temporary(*families, replace=replace)


def get_family(name: str) -> ScenarioFamily:
    """Look a family up in the default registry."""
    return default_family_registry().get(name)


def family_names() -> tuple[str, ...]:
    """Names registered in the default registry."""
    return default_family_registry().names()


def register_family_members(
    family: "ScenarioFamily | str",
    *,
    registry: Registry[ScenarioSpec] | None = None,
    replace: bool = False,
) -> tuple[ScenarioSpec, ...]:
    """Expand a family and register every member spec en masse.

    After this, members are ordinary registered scenarios: ``repro run
    dma-pressure/scenario1-qd8-p2-c16000`` and the model × scenario
    matrix see them like any hand-written spec.  Use
    :func:`repro.engine.registry.temporary_scenarios` around it in tests
    to keep the process-wide registry clean.
    """
    registry = registry if registry is not None else default_registry()
    specs = tuple(
        member.spec for member in expand_family(family)
    )
    for spec in specs:
        registry.register(spec, replace=replace)
    return specs


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _member_subset(
    members: tuple[FamilyMember, ...], names: Sequence[str] | None
) -> tuple[FamilyMember, ...]:
    if names is None:
        return members
    by_name = {member.name: member for member in members}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise EngineError(
            f"unknown family members {missing}; "
            f"members: {', '.join(by_name)}"
        )
    return tuple(by_name[name] for name in names)


def _resolve_models(
    family: ScenarioFamily,
    models: Sequence[str] | None,
    matrix: bool,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a caller's model names into (counter models, DMA models).

    ``repro family dma-pressure --model dma-occupancy`` names a
    *descriptor* model; routing it to the DMA side (with the family's
    default driving the core contenders) keeps the CLI surface a single
    ``--model`` flag for both kinds.
    """
    names = tuple(models or ())
    descriptor = tuple(
        name for name in names if get_model(name).capabilities.needs_dma_agents
    )
    counter = tuple(name for name in names if name not in descriptor)
    dma_models = descriptor or (family.default_dma_model,)
    if matrix or len(counter) > 1:
        counter = counter or counter_based_model_names()
    elif not counter:
        counter = (family.default_model,)
        if get_model(family.default_model).capabilities.needs_dma_agents:
            raise ModelError(
                f"family {family.name!r}: default model "
                f"{family.default_model!r} consumes DMA descriptors; "
                "families need a counter-based default for the core "
                "contenders"
            )
    require_counter_based(counter)
    return counter, dma_models


def family_jobs(
    family: "ScenarioFamily | str",
    *,
    models: Sequence[str] | None = None,
    matrix: bool = False,
    members: Sequence[str] | None = None,
) -> list:
    """The one family batch: behind :func:`run_family` and
    ``repro family`` (direct or queued).

    One :func:`~repro.engine.experiment.spec_job` per (DMA model,
    member, counter model), in that order, members in grid order;
    :func:`family_results` pairs the results back with their members.

    Args:
        family: a :class:`ScenarioFamily` or registered name.
        models: registered names of either kind.  DMA-descriptor models
            (``dma-occupancy``, ``dma-rr-alignment``) bound the members'
            DMA traffic, the grid running once per bound (default: the
            family's); the others bound the core contenders (default:
            the family's model).
        matrix: run the family matrix — every counter-based model in
            ``models`` (all registered ones if it names none) over every
            member.  Naming several counter-based models implies it.
        members: restrict to these member names (default: the full
            grid) — the CLI's ``--member`` and CI's tiny-grid hook.
    """
    if isinstance(family, str):
        family = get_family(family)
    counter, dma_models = _resolve_models(family, models, matrix)
    selected = _member_subset(expand_family(family), members)
    return [
        spec_job(member.spec, model, dma_model=dma)
        for dma in dma_models
        for member in selected
        for model in counter
    ]


def family_results(
    family: "ScenarioFamily | str", runs: Sequence[ScenarioRunResult]
) -> list[FamilyRunResult]:
    """Pair a :func:`family_jobs` batch's runs with their members, by
    spec name (so results collected later, elsewhere, pair back too)."""
    by_name = {member.name: member for member in expand_family(family)}
    return [
        FamilyRunResult(member=by_name[run.spec_name], run=run) for run in runs
    ]


def run_family(
    family: "ScenarioFamily | str",
    *,
    model: str | None = None,
    members: Sequence[str] | None = None,
    engine: ExperimentEngine | None = None,
) -> list[FamilyRunResult]:
    """Run every member of a family as one engine batch.

    ``model`` is one registered name of either kind: a DMA-descriptor
    model is routed to the DMA side, with the family default driving
    the cores.  The other arguments are :func:`family_jobs`'s;
    ``engine=None`` runs serially.
    """
    jobs = family_jobs(
        family, models=(model,) if model else None, members=members
    )
    return family_results(family, run_jobs(jobs, engine))
