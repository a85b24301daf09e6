"""Declarative, parameterised experiment scenarios.

The paper evaluates two fixed deployments with hand-wired drivers; the
engine turns a deployment-plus-workload configuration into *data*: a
:class:`ScenarioSpec` names the deployment base, places the application
and any number of contenders on cores (the TC27x has three, but the spec
deliberately expresses four or more for derivative platforms), and
optionally adds DMA traffic.  Specs are frozen dataclasses of frozen
dataclasses — picklable (they cross process-pool boundaries) and stably
hashable (they are cache keys), which is what lets the engine fan out and
memoise without bespoke per-driver plumbing.

A :class:`WorkloadRef` is the matching declarative task description: the
paper's control loop, an H/M/L load generator, a seeded synthetic task or
an explicit :class:`~repro.workloads.spec.WorkloadSpec` — resolved into a
replayable :class:`~repro.sim.program.TaskProgram` only inside the worker
that needs it (programs themselves hold closures and cannot travel).
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import EngineError
from repro.platform.deployment import (
    DeploymentScenario,
    custom_scenario,
    named_scenarios,
)
from repro.platform.targets import Operation, Target
from repro.sim.dma import DmaAgent
from repro.sim.program import TaskProgram
from repro.sim.requests import MissKind, SriRequest
from repro.sim.system import ARBITRATION_POLICIES
from repro.workloads.spec import WorkloadSpec

#: Deployment bases a spec can name without spelling out target sets.
NAMED_BASES = ("scenario1", "scenario2", "architectural", "custom")

#: Workload kinds a :class:`WorkloadRef` can describe.
WORKLOAD_KINDS = ("control-loop", "load", "synthetic", "spec")


@dataclasses.dataclass(frozen=True)
class WorkloadRef:
    """Declarative reference to one task program.

    Attributes:
        kind: one of :data:`WORKLOAD_KINDS`.
        level: contender level (``"H"``/``"M"``/``"L"``) for ``"load"``.
        seed: RNG seed for ``"synthetic"``.
        scale: footprint scale relative to the paper's full-size run.
        max_requests: request budget for ``"synthetic"``.
        name: task name override (defaults per kind).
        spec: explicit workload for ``"spec"``.
    """

    kind: str
    level: str | None = None
    seed: int | None = None
    scale: float = 1.0
    max_requests: int = 2_000
    name: str = ""
    spec: WorkloadSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise EngineError(
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {WORKLOAD_KINDS}"
            )
        if self.kind == "load" and self.level is None:
            raise EngineError("load workloads need a level (H/M/L)")
        if self.kind == "synthetic" and self.seed is None:
            raise EngineError("synthetic workloads need a seed")
        if self.kind == "spec" and self.spec is None:
            raise EngineError("spec workloads need an explicit WorkloadSpec")
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise EngineError(
                "workload scale must be positive and finite, "
                f"got {self.scale!r}"
            )

    # -- constructors --------------------------------------------------
    @classmethod
    def control_loop(cls, *, scale: float = 1.0, name: str = "app") -> "WorkloadRef":
        """The paper's cruise-control application (Section 4.2)."""
        return cls(kind="control-loop", scale=scale, name=name)

    @classmethod
    def load(cls, level: str, *, scale: float = 1.0) -> "WorkloadRef":
        """One of the H/M/L SRI load generators."""
        return cls(kind="load", level=level, scale=scale)

    @classmethod
    def synthetic(
        cls,
        seed: int,
        *,
        scale: float = 1.0,
        max_requests: int = 2_000,
        name: str = "",
    ) -> "WorkloadRef":
        """A seeded random-but-valid task (soundness sweeps)."""
        return cls(
            kind="synthetic",
            seed=seed,
            scale=scale,
            max_requests=max_requests,
            name=name,
        )

    @classmethod
    def from_spec(cls, spec: WorkloadSpec, *, scale: float = 1.0) -> "WorkloadRef":
        """An explicit request-block workload."""
        return cls(kind="spec", spec=spec, scale=scale, name=spec.name)

    # -- resolution ----------------------------------------------------
    def build(
        self, base: str, deployment: DeploymentScenario
    ) -> TaskProgram:
        """Materialise the program under a spec's deployment."""
        # Imported here: repro.workloads.control_loop pulls in the
        # footprint inverter, which is only needed at build time.
        from repro.workloads.control_loop import build_control_loop
        from repro.workloads.loads import build_load
        from repro.workloads.synthetic import random_workload

        if self.kind == "control-loop":
            if base not in ("scenario1", "scenario2"):
                raise EngineError(
                    "the control-loop application is defined for the two "
                    f"reference deployments; base is {base!r}"
                )
            program, _ = build_control_loop(
                deployment, scale=self.scale, name=self.name or "app"
            )
            return program
        if self.kind == "load":
            assert self.level is not None
            return build_load(base, self.level, scale=self.scale)
        if self.kind == "synthetic":
            assert self.seed is not None
            spec = random_workload(
                self.name or f"rand-{self.seed}",
                deployment,
                seed=self.seed,
                max_requests=self.max_requests,
            )
            if self.scale != 1.0:
                spec = spec.scaled(self.scale)
            return spec.program()
        assert self.spec is not None
        spec = self.spec if self.scale == 1.0 else self.spec.scaled(self.scale)
        return spec.program()


@dataclasses.dataclass(frozen=True)
class DmaSpec:
    """Declarative DMA traffic: a fixed-rate extra SRI master.

    Mirrors :class:`~repro.sim.dma.DmaAgent` with plain data so specs
    stay picklable and hashable.
    """

    master_id: int
    target: Target
    count: int
    operation: Operation = Operation.DATA
    period: int = 1
    queue_depth: int = 4
    start_time: int = 0
    write: bool = False

    def __post_init__(self) -> None:
        # Mirror DmaAgent's checks so a bad descriptor is rejected when
        # the spec is *constructed* (the registry's reject-at-registration
        # principle), not when `.agent()` finally runs inside a possibly
        # remote worker.
        if self.master_id < 0:
            raise EngineError("DMA master id must be non-negative")
        if not isinstance(self.target, Target):
            raise EngineError(
                f"DMA target must be a Target, got {self.target!r}"
            )
        if self.count < 0:
            raise EngineError("DMA count must be non-negative")
        if self.period < 1:
            raise EngineError("DMA period must be at least one cycle")
        if self.queue_depth < 1:
            raise EngineError("DMA queue depth must be at least 1")
        if self.start_time < 0:
            raise EngineError("DMA start time must be non-negative")

    def agent(self) -> DmaAgent:
        """Build the simulator-facing agent."""
        return DmaAgent(
            master_id=self.master_id,
            request=SriRequest(
                target=self.target,
                operation=self.operation,
                miss_kind=MissKind.UNCACHED,
                write=self.write,
            ),
            count=self.count,
            period=self.period,
            queue_depth=self.queue_depth,
            start_time=self.start_time,
        )


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative experiment deployment.

    Attributes:
        name: registry key (``"scenario1-pair-H"``, ``"scenario1-4core"``).
        base: deployment base — a named deployment (``"scenario1"``,
            ``"scenario2"``, ``"architectural"``) or ``"custom"`` with the
            target sets spelled out in the ``code_targets`` /
            ``data_targets`` / ``dirty_targets`` fields.
        description: one-line summary for reports and ``repro scenarios``.
        app: the task under analysis.
        app_core: core the application is pinned on (the paper uses 1).
        contenders: ``(core, workload)`` placements of the co-runners;
            any number of cores is allowed, so a spec can describe a
            four-core derivative as easily as the TC27x's three.
        dma: additional DMA masters contending on the SRI.
        arbitration: SRI arbitration policy the co-run simulates —
            ``"round-robin"`` (the paper's same-priority-class scoping,
            default) or ``"priority"`` (fixed priority with round-robin
            among equals, the SRI's behaviour across priority classes).
        priorities: ``(master_id, class)`` pairs for ``"priority"``
            arbitration (lower class wins); masters left out default to
            class 0.  Only declared cores / DMA masters may appear.
        code_targets, data_targets, dirty_targets, code_count_exact,
        data_count_lower_bounded: custom-base deployment description
            (ignored for named bases).
    """

    name: str
    base: str = "scenario1"
    description: str = ""
    app: WorkloadRef = WorkloadRef.control_loop()
    app_core: int = 1
    contenders: tuple[tuple[int, WorkloadRef], ...] = ()
    dma: tuple[DmaSpec, ...] = ()
    arbitration: str = "round-robin"
    priorities: tuple[tuple[int, int], ...] = ()
    code_targets: tuple[Target, ...] = ()
    data_targets: tuple[Target, ...] = ()
    dirty_targets: tuple[Target, ...] = ()
    code_count_exact: bool = False
    data_count_lower_bounded: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise EngineError("a scenario spec needs a name")
        if self.base not in NAMED_BASES:
            raise EngineError(
                f"unknown deployment base {self.base!r}; "
                f"expected one of {NAMED_BASES}"
            )
        if self.base == "custom" and not (
            self.code_targets or self.data_targets
        ):
            raise EngineError(
                f"custom spec {self.name!r} needs code or data targets"
            )
        # The control loop and the H/M/L generators are reconstructions
        # of the paper's Table 6 workloads — they only exist under the
        # two reference deployments.  Reject the mismatch at registration
        # rather than deep inside a (possibly remote) worker.
        if self.base not in ("scenario1", "scenario2"):
            placed = [("app", self.app)] + [
                (f"core {core}", ref) for core, ref in self.contenders
            ]
            for where, ref in placed:
                if ref.kind in ("control-loop", "load"):
                    raise EngineError(
                        f"spec {self.name!r}: {ref.kind!r} workloads "
                        f"({where}) are defined only for the reference "
                        f"deployments, not base {self.base!r}"
                    )
        cores = [self.app_core] + [core for core, _ in self.contenders]
        if len(set(cores)) != len(cores):
            raise EngineError(
                f"spec {self.name!r} places two tasks on one core"
            )
        if any(core < 0 for core in cores):
            raise EngineError("core ids must be non-negative")
        masters = [agent.master_id for agent in self.dma]
        if len(set(masters)) != len(masters) or set(masters) & set(cores):
            raise EngineError(
                f"spec {self.name!r}: DMA master ids must be unique and "
                "distinct from core ids"
            )
        if self.arbitration not in ARBITRATION_POLICIES:
            raise EngineError(
                f"spec {self.name!r}: unknown arbitration policy "
                f"{self.arbitration!r}; expected one of "
                f"{ARBITRATION_POLICIES}"
            )
        if self.priorities:
            if self.arbitration != "priority":
                raise EngineError(
                    f"spec {self.name!r}: priorities only apply to "
                    "arbitration='priority' (round-robin ignores them)"
                )
            ids = [master for master, _ in self.priorities]
            known = set(cores) | set(masters)
            if len(set(ids)) != len(ids):
                raise EngineError(
                    f"spec {self.name!r}: duplicate master id in priorities"
                )
            unknown = set(ids) - known
            if unknown:
                raise EngineError(
                    f"spec {self.name!r}: priorities name masters "
                    f"{sorted(unknown)} that are neither occupied cores "
                    "nor declared DMA masters"
                )
            if any(
                not isinstance(level, int) or level < 0
                for _, level in self.priorities
            ):
                raise EngineError(
                    f"spec {self.name!r}: priority classes must be "
                    "non-negative integers"
                )

    # ------------------------------------------------------------------
    @property
    def core_count(self) -> int:
        """Number of cores the spec occupies (application included)."""
        return 1 + len(self.contenders)

    @property
    def cores(self) -> tuple[int, ...]:
        """All occupied core ids, sorted."""
        return tuple(
            sorted([self.app_core] + [core for core, _ in self.contenders])
        )

    def deployment(self) -> DeploymentScenario:
        """The model-facing deployment scenario this spec runs under."""
        if self.base != "custom":
            return named_scenarios()[self.base]
        return custom_scenario(
            self.name,
            code_targets=self.code_targets,
            data_targets=self.data_targets,
            dirty_targets=frozenset(self.dirty_targets),
            code_count_exact=self.code_count_exact,
            data_count_lower_bounded=self.data_count_lower_bounded,
            description=self.description,
        )

    def app_program(self) -> TaskProgram:
        """Materialise the application's program."""
        return self.app.build(self.base, self.deployment())

    def contender_programs(self) -> dict[int, TaskProgram]:
        """Materialise every contender, keyed by core."""
        deployment = self.deployment()
        return {
            core: workload.build(self.base, deployment)
            for core, workload in self.contenders
        }

    def programs(self) -> dict[int, TaskProgram]:
        """All per-core programs of one co-run, application included."""
        programs = {self.app_core: self.app_program()}
        programs.update(self.contender_programs())
        return programs

    def dma_agents(self) -> tuple[DmaAgent, ...]:
        """Materialise the DMA masters."""
        return tuple(spec.agent() for spec in self.dma)

    def priority_map(self) -> dict[int, int]:
        """The simulator-facing master id → priority class mapping."""
        return dict(self.priorities)

    def scaled(self, factor: float) -> "ScenarioSpec":
        """The same deployment with every workload footprint scaled."""
        if not math.isfinite(factor) or factor <= 0:
            raise EngineError(
                f"scale factor must be positive and finite, got {factor!r}"
            )
        return dataclasses.replace(
            self,
            app=dataclasses.replace(self.app, scale=self.app.scale * factor),
            contenders=tuple(
                (core, dataclasses.replace(ref, scale=ref.scale * factor))
                for core, ref in self.contenders
            ),
        )
