"""The pluggable contention-model protocol.

The paper's artefact is a *family* of contention models sharing one shape:
consume whatever is known about a deployment (counter readings, latency
constants, scenario, contender set, ground-truth access profiles, DMA
descriptors) and produce a :class:`~repro.core.results.ContentionBound`.
This module defines that shape as data, mirroring how
:mod:`repro.engine.scenario` turned deployments into data:

* :class:`AnalysisContext` — the uniform input record.  It is a superset
  of what any one model needs: each model reads the fields its
  capabilities declare and ignores the rest, so one context can be
  threaded through a whole model ladder (the ablation driver does
  exactly that).  Contexts are plain picklable data, which makes
  ``(model name, context)`` an engine job and lets model choice
  participate in the content-addressed result cache.
* :class:`ModelCapabilities` — the declared input requirements and
  informational traits of one model (contender arity, DMA awareness,
  ILP backend use, time-composability).
* :class:`ContentionModel` — the protocol: a named, described object
  with capabilities and a ``bound(context)`` entry point.
* :class:`ModelSpec` — the standard implementation wrapping a plain
  ``context -> bound`` function, with capability validation up front so
  a missing input fails with a message naming what to pass.

Models register by name in :mod:`repro.core.registry`; the
:func:`~repro.core.wcet.contention_bound` facade, the experiment
drivers and the CLI all resolve them from there.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Protocol, runtime_checkable

from repro.core.fsb import FsbTiming
from repro.core.ptac import AccessProfile
from repro.core.results import ContentionBound
from repro.counters.readings import TaskReadings
from repro.errors import ModelError
from repro.platform.deployment import DeploymentScenario
from repro.platform.latency import LatencyProfile
from repro.sim.dma import DmaAgent


@dataclasses.dataclass(frozen=True)
class ModelCapabilities:
    """Declared input requirements and traits of one contention model.

    The ``needs_*`` flags drive :meth:`ModelSpec.validate`; the trailing
    informational traits drive reports (``repro models``) and driver
    decisions (e.g. whether a Figure 4 bar exists per contender load or
    once per scenario).

    Attributes:
        needs_readings: requires the analysed task's counter readings.
        needs_profile: requires Table 2 latency constants (FSB models
            derive a degenerate profile from the bus timing instead).
        needs_scenario: requires a deployment scenario.
        min_contenders: minimum number of contender readings consumed.
        max_contenders: maximum number of contender readings consumed;
            ``0`` for contender-blind models, ``None`` for unbounded.
            Passing *more* readings than a single-contender model
            consumes is a validation error (the surplus would be
            silently ignored, making the bound unsound for the full
            contender set).  Contender-blind models stay permissive:
            their bound already holds against any single co-runner, so
            extra readings are documentation, not input.
        joint_counterpart: registered name of this model's
            multi-contender generalisation, if one exists (``ilp-ptac``
            names ``ilp-ptac-multi``); drivers use it to bound whole
            contender sets jointly instead of summing pairwise bounds.
        needs_access_profile: requires the analysed task's ground-truth
            per-target access profile (simulator-only information).
        needs_contender_profiles: requires at least one contender /
            higher-priority-master access profile.
        needs_dma_agents: requires DMA transfer descriptors.
        needs_fsb_timing: requires front-side-bus timing constants.
        needs_ilp: solves an ILP (informational; each such model fixes
            its :class:`~repro.core.ilp_ptac.IlpPtacOptions`).
        time_composable: the bound holds against *any* co-runner.
        dma_aware: the bound covers multi-outstanding, higher-priority
            masters (which break the round-robin alignment assumption).
    """

    needs_readings: bool = True
    needs_profile: bool = True
    needs_scenario: bool = True
    min_contenders: int = 0
    max_contenders: int | None = 0
    joint_counterpart: str | None = None
    needs_access_profile: bool = False
    needs_contender_profiles: bool = False
    needs_dma_agents: bool = False
    needs_fsb_timing: bool = False
    needs_ilp: bool = False
    time_composable: bool = False
    dma_aware: bool = False

    def contender_summary(self) -> str:
        """Compact contender-arity rendering for listings.

        ``-`` (contender-blind), ``1``, ``1+``; models fed by contender
        *access profiles* rather than counter readings (ideal, the
        occupancy bounds) render as ``1+ (profiles)`` so listings agree
        with :attr:`uses_contender_information`.
        """
        if self.needs_contender_profiles:
            return "1+ (profiles)"
        if self.max_contenders == 0:
            return "-"
        if self.max_contenders is None:
            return f"{self.min_contenders}+"
        if self.min_contenders == self.max_contenders:
            return str(self.min_contenders)
        return f"{self.min_contenders}-{self.max_contenders}"

    @property
    def uses_contender_information(self) -> bool:
        """Whether per-contender inputs shape the bound at all."""
        return self.min_contenders > 0 or self.needs_contender_profiles

    @property
    def counter_based(self) -> bool:
        """Whether the model runs on counter measurements alone.

        True when the model consumes the analysed task's (and possibly
        contenders') debug-counter readings and nothing a scenario run
        cannot measure — no simulator-only access profiles, no DMA
        descriptors, no bus timing.  Exactly these models can drive
        :func:`~repro.engine.experiment.run_spec` and populate the
        model × scenario matrix.
        """
        return (
            self.needs_readings
            and not self.needs_fsb_timing
            and not self.needs_access_profile
            and not self.needs_contender_profiles
            and not self.needs_dma_agents
        )


@dataclasses.dataclass(frozen=True)
class AnalysisContext:
    """Everything a contention analysis may know, in one picklable record.

    A context is deliberately a *superset* of any single model's inputs:
    build it once from what you have and run any registered model over
    it — validation rejects models whose declared needs are not met.

    Attributes:
        profile: Table 2 latency constants.
        scenario: deployment scenario of the analysed task.
        readings: isolation counter readings of the analysed task (τa).
        contenders: isolation counter readings of each co-runner (τb…).
        access_profile: τa's ground-truth per-target access counts
            (simulator-only; the ideal model's input).
        contender_profiles: ground-truth / statically-known per-target
            access counts of contenders or higher-priority masters.
        dma_agents: DMA transfer descriptors of higher-priority masters.
        fsb_timing: bus timing for the FSB reduction models.
        task: victim name for models that need no τa measurements at
            all (the occupancy bounds); defaults to the readings' /
            profile's task name, else ``"victim"``.
    """

    profile: LatencyProfile | None = None
    scenario: DeploymentScenario | None = None
    readings: TaskReadings | None = None
    contenders: tuple[TaskReadings, ...] = ()
    access_profile: AccessProfile | None = None
    contender_profiles: tuple[AccessProfile, ...] = ()
    dma_agents: tuple[DmaAgent, ...] = ()
    fsb_timing: FsbTiming | None = None
    task: str | None = None

    def __post_init__(self) -> None:
        # Accept any iterable for the plural fields; store tuples so the
        # context stays hashable, picklable and cache-canonicalisable.
        for field in ("contenders", "contender_profiles", "dma_agents"):
            value = getattr(self, field)
            if not isinstance(value, tuple):
                object.__setattr__(self, field, tuple(value))

    @property
    def contender(self) -> TaskReadings | None:
        """The first contender's readings (single-contender models)."""
        return self.contenders[0] if self.contenders else None

    @property
    def task_name(self) -> str:
        """Best-effort name of the analysed task for reports."""
        if self.task:
            return self.task
        if self.readings is not None:
            return self.readings.name
        if self.access_profile is not None:
            return self.access_profile.task
        return "victim"


@runtime_checkable
class ContentionModel(Protocol):
    """What the registry, facade and drivers require of a model."""

    name: str
    description: str
    capabilities: ModelCapabilities

    def bound(self, context: AnalysisContext) -> ContentionBound:
        """Compute Δcont from the context (validated against capabilities)."""
        ...  # pragma: no cover - protocol


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """A registered contention model: name, description, capabilities
    and the ``context -> bound`` implementation.

    Attributes:
        name: registry key (also the CLI/report identifier).
        description: one-line summary, surfaced by ``repro models`` and
            the README's generated Models section.
        capabilities: declared input requirements / traits.
        fn: the implementation; called only after validation.
    """

    name: str
    description: str
    capabilities: ModelCapabilities
    fn: Callable[[AnalysisContext], ContentionBound]

    def validate(self, context: AnalysisContext) -> None:
        """Check the context against the declared capabilities.

        Raises :class:`~repro.errors.ModelError` naming every missing
        input and the keyword that supplies it.
        """
        caps = self.capabilities
        if (
            caps.max_contenders is not None
            and caps.max_contenders >= 1
            and len(context.contenders) > caps.max_contenders
        ):
            suggestion = caps.joint_counterpart or "ilp-ptac-multi"
            raise ModelError(
                f"model {self.name!r} accepts at most "
                f"{caps.max_contenders} contender reading(s), got "
                f"{len(context.contenders)}; use a multi-contender model "
                f"(e.g. {suggestion!r}) for a joint bound over the whole "
                "contender set"
            )
        missing: list[str] = []
        if caps.needs_readings and context.readings is None:
            missing.append(
                "isolation counter readings of the analysed task "
                "(readings_a=)"
            )
        if caps.needs_profile and context.profile is None:
            missing.append("a latency profile (Table 2 constants; profile=)")
        if caps.needs_scenario and context.scenario is None:
            missing.append("a deployment scenario (scenario=)")
        if len(context.contenders) < caps.min_contenders:
            if caps.min_contenders == 1:
                missing.append(
                    "contender readings (readings_b= or contenders=)"
                )
            else:
                missing.append(
                    f"at least {caps.min_contenders} contender readings "
                    "(contenders=)"
                )
        if caps.needs_access_profile and context.access_profile is None:
            missing.append(
                "the analysed task's ground-truth access profile "
                "(access_profile_a=)"
            )
        if caps.needs_contender_profiles and not context.contender_profiles:
            missing.append(
                "contender access profiles (access_profile_b= or "
                "contender_profiles=)"
            )
        if caps.needs_dma_agents and not context.dma_agents:
            missing.append("DMA transfer descriptors (dma_agents=)")
        if caps.needs_fsb_timing and context.fsb_timing is None:
            missing.append("bus timing constants (fsb_timing=)")
        if missing:
            raise ModelError(
                f"model {self.name!r} needs " + "; ".join(missing)
            )

    def bound(self, context: AnalysisContext) -> ContentionBound:
        """Validate the context, then run the model."""
        self.validate(context)
        return self.fn(context)
