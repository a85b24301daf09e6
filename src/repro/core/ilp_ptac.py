"""The ILP-based PTAC contention model (Section 3.5, Eqs. 9-23).

The tightest model the TC27x's debug counters allow: an Integer Linear
Program searches for the per-target mapping of τa's and τb's requests that
is (i) consistent with everything the counters and the deployment scenario
say, and (ii) maximises the contention inflicted on τa.  Because it
maximises over *all* consistent mappings, the result is a sound bound even
though the true mapping is unknown.

Model anatomy (names refer to the paper's equations):

* Variables ``n_a[t,o]``, ``n_b[t,o]`` — candidate per-target access counts
  of each task; ``n_ba[t,o]`` — contender requests of type ``o`` to target
  ``t`` assumed to interfere with τa.
* **Objective** (Eq. 9): maximise ``Σ n_ba[t,o] · l^{t,o}``, split into code
  and data interference.
* **Interference caps** (Eqs. 10-19): per target, interfering requests are
  bounded by what τb issues there (``n_ba ≤ n_b``) and by what τa exposes
  there (each τa request is delayed at most once per contender:
  ``Σ_o n_ba[t,o] ≤ Σ_o n_a[t,o]``).  The ``min()`` forms of Eqs. 10-12 are
  linearised as constraint pairs, exact under maximisation.  (Eqs. 15-16
  carry two typos in the paper — ``da`` variables written as ``co`` — which
  are corrected here, mirroring the pf0 forms.)
* **Stall profiles** (Eqs. 20-23): access counts must be consistent with
  the observed PMEM_STALL / DMEM_STALL readings.  The paper writes these as
  equalities with per-access stall terms, then notes only the *minimum*
  stall per access is known; with minima as coefficients the only sound
  (and, on the paper's own Table 6 data, feasible) reading is the budget
  inequality ``Σ_t n[t,o] · cs^{t,o} ≤ cs^o`` — see DESIGN.md.  An
  ``exact`` mode retains the literal equality for exploration.
* **Scenario tailoring** (Table 5): pairs the deployment cannot produce are
  simply absent; when all SRI code is cacheable, ``Σ_t n[t,co] = PM``;
  when some data is cacheable, ``Σ_t n[t,da] ≥ DMC + DMD``.

Dropping the τb-side constraints (Eqs. 22-23 and τb's tailoring) makes the
bound fully time-composable again, as the paper remarks after Eq. 23 —
exposed as ``contender_constraints=False`` and exercised by the ablation
benchmark.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping

from repro.core.results import ContentionBound
from repro.counters.readings import TaskReadings
from repro.errors import ModelError
from repro.ilp.expr import Var, lin_sum
from repro.ilp.model import ILP_BACKENDS, IlpModel
from repro.ilp.solution import Solution
from repro.platform.deployment import DeploymentScenario
from repro.platform.latency import LatencyProfile
from repro.platform.targets import Operation, Target, pair_label

Pair = tuple[Target, Operation]


@dataclasses.dataclass(frozen=True)
class IlpPtacOptions:
    """Knobs of the ILP-PTAC model.

    Attributes:
        stall_budget: ``"minimum"`` (default) treats Eqs. 20-23 as budget
            inequalities with the Table 2 minimum stall coefficients;
            ``"exact"`` keeps the paper's literal equalities (usually
            infeasible on real counter data — see DESIGN.md).
        contender_constraints: include the τb-side information (Eqs. 22-23
            and τb's Table 5 tailoring).  ``False`` yields the fully
            time-composable ILP variant.
        use_exact_code_counts: honour the scenario's "P$_MISS is exact"
            semantics (Table 5's ``Σ n^{t,co} = PM`` rows).
        backend: ILP backend (``"bnb"``, ``"scipy"`` or ``"lp"`` for the
            relaxation bound, which is also sound and ≥ the ILP optimum);
            one of :data:`~repro.ilp.model.ILP_BACKENDS`.
        node_limit: branch-and-bound node budget, at least 1.
    """

    stall_budget: str = "minimum"
    contender_constraints: bool = True
    use_exact_code_counts: bool = True
    backend: str = "bnb"
    node_limit: int = 100_000

    def __post_init__(self) -> None:
        if self.stall_budget not in ("minimum", "exact"):
            raise ModelError(
                f"unknown stall budget mode {self.stall_budget!r}"
            )
        if self.backend not in ILP_BACKENDS:
            raise ModelError(
                f"unknown ILP backend {self.backend!r}; "
                f"expected one of {ILP_BACKENDS}"
            )
        if self.node_limit < 1:
            raise ModelError(
                f"node_limit must be at least 1, got {self.node_limit}"
            )


@dataclasses.dataclass(frozen=True)
class IlpPtacResult:
    """Full outcome of an ILP-PTAC solve.

    Attributes:
        bound: the contention bound (what Figure 4 plots).
        interference: worst-case interfering request counts
            (``n_{b→a}^{t,o}`` at the optimum).
        worst_profile_a: the τa per-target access mapping the optimiser
            chose (a witness, not ground truth).
        worst_profile_b: same for τb (empty without contender constraints).
        model: the underlying ILP, for inspection.
        solution: raw solver result (status, stats, values).
    """

    bound: ContentionBound
    interference: Mapping[Pair, int]
    worst_profile_a: Mapping[Pair, int]
    worst_profile_b: Mapping[Pair, int]
    model: IlpModel
    solution: Solution


class _IlpPtacBuilder:
    """Constructs the ILP of Section 3.5 for one (τa, τb, scenario) triple."""

    def __init__(
        self,
        readings_a: TaskReadings,
        readings_b: TaskReadings | None,
        profile: LatencyProfile,
        scenario: DeploymentScenario,
        options: IlpPtacOptions,
    ) -> None:
        if options.contender_constraints and readings_b is None:
            raise ModelError(
                "contender constraints requested but no contender readings "
                "given; pass readings_b or set contender_constraints=False"
            )
        self.readings_a = readings_a
        self.readings_b = readings_b
        self.profile = profile
        self.scenario = scenario
        self.options = options
        self.pairs: tuple[Pair, ...] = scenario.valid_pairs()
        if not self.pairs:
            raise ModelError(
                f"scenario {scenario.name!r} admits no SRI traffic"
            )
        self.model = IlpModel(
            name=f"ilp-ptac[{readings_a.name} vs "
            f"{readings_b.name if readings_b else '<any>'}; {scenario.name}]"
        )
        self.n_a: dict[Pair, Var] = {}
        self.n_b: dict[Pair, Var] = {}
        self.n_ba: dict[Pair, Var] = {}

    # ------------------------------------------------------------------
    def build(self) -> IlpModel:
        """Assemble variables, objective and all constraint families."""
        self._add_variables()
        self._add_objective()
        self._add_interference_caps()
        self._add_stall_profile(
            "a", self.readings_a, self.n_a
        )
        self._add_tailoring("a", self.readings_a, self.n_a)
        if self.options.contender_constraints:
            assert self.readings_b is not None
            self._add_stall_profile("b", self.readings_b, self.n_b)
            self._add_tailoring("b", self.readings_b, self.n_b)
        return self.model

    def _add_variables(self) -> None:
        # Per-class total variables first (Eq. 5's n^co / n^da): they are
        # redundant for the LP but give branch-and-bound integral *sums*
        # to branch on, collapsing the pf0/pf1 symmetry plateau (the two
        # banks share one latency, so fractions can otherwise hop between
        # their columns without changing the bound).
        self._totals: dict[tuple[str, Operation], Var] = {}
        families = ["a", "ba"] + (
            ["b"] if self.options.contender_constraints else []
        )
        for family in families:
            for op in (Operation.CODE, Operation.DATA):
                if any(o is op for _, o in self.pairs):
                    self._totals[(family, op)] = self.model.add_var(
                        f"n_{family}^{op.value}"
                    )
        for target, op in self.pairs:
            label = pair_label(target, op)
            self.n_a[(target, op)] = self.model.add_var(f"n_a[{label}]")
            self.n_ba[(target, op)] = self.model.add_var(f"n_ba[{label}]")
            if self.options.contender_constraints:
                self.n_b[(target, op)] = self.model.add_var(f"n_b[{label}]")
        for (family, op), total in self._totals.items():
            variables = {
                "a": self.n_a,
                "b": self.n_b,
                "ba": self.n_ba,
            }[family]
            self.model.add_constraint(
                lin_sum(
                    variables[(t, o)] for (t, o) in self.pairs if o is op
                )
                == total,
                name=f"total_{family}_{op.value}",
            )

    def _add_objective(self) -> None:
        """Equation 9: maximise Δcs^co_a + Δcs^da_a."""
        self.model.maximize(
            lin_sum(
                self.n_ba[pair] * self._latency(pair) for pair in self.pairs
            )
        )

    def _latency(self, pair: Pair) -> int:
        target, op = pair
        return self.scenario.interference_latency(self.profile, target, op)

    def _add_interference_caps(self) -> None:
        """Equations 10-19 (linearised; Eq. 15-16 typos corrected)."""
        targets = {target for target, _ in self.pairs}
        for target in targets:
            ops = [op for t, op in self.pairs if t is target]
            exposure = lin_sum(self.n_a[(target, op)] for op in ops)
            for op in ops:
                pair = (target, op)
                label = pair_label(target, op)
                # n_ba <= τa's exposure on the target (Eqs. 11a/12a/...).
                self.model.add_constraint(
                    self.n_ba[pair] <= exposure, name=f"cap_a[{label}]"
                )
                # n_ba <= what τb issues there (Eqs. 11b/12b/...); absent
                # without contender info, leaving only the τa-side caps.
                if self.options.contender_constraints:
                    self.model.add_constraint(
                        self.n_ba[pair] <= self.n_b[pair],
                        name=f"cap_b[{label}]",
                    )
            # Cumulative per-target cap (Eqs. 13/16/19): τa's requests on a
            # target can each be delayed at most once by this contender.
            self.model.add_constraint(
                lin_sum(self.n_ba[(target, op)] for op in ops) <= exposure,
                name=f"cumulative[{target.value}]",
            )

    def _add_stall_profile(
        self,
        who: str,
        readings: TaskReadings,
        variables: dict[Pair, Var],
    ) -> None:
        """Equations 20-23: consistency with PMEM_STALL / DMEM_STALL."""
        for op, budget in (
            (Operation.CODE, readings.ps),
            (Operation.DATA, readings.ds),
        ):
            terms = [
                variables[(target, o)] * self.profile.stall_cycles(target, o)
                for (target, o) in self.pairs
                if o is op
            ]
            if not terms:
                continue
            expr = lin_sum(terms)
            name = f"stall_{op.value}[{who}]"
            if self.options.stall_budget == "exact":
                self.model.add_constraint(expr == budget, name=name)
            else:
                self.model.add_constraint(expr <= budget, name=name)

    def _add_tailoring(
        self,
        who: str,
        readings: TaskReadings,
        variables: dict[Pair, Var],
    ) -> None:
        """Table 5: scenario-specific PTAC constraints.

        The "n^{t,o} = 0" rows of Table 5 are realised structurally: pairs
        outside ``scenario.valid_pairs()`` have no variable at all.
        """
        code_vars = [
            variables[(target, op)]
            for (target, op) in self.pairs
            if op is Operation.CODE
        ]
        if (
            self.options.use_exact_code_counts
            and self.scenario.code_count_exact
            and code_vars
        ):
            self.model.add_constraint(
                lin_sum(code_vars) == readings.pm,
                name=f"code_count[{who}]",
            )
        data_vars = [
            variables[(target, op)]
            for (target, op) in self.pairs
            if op is Operation.DATA
        ]
        if self.scenario.data_count_lower_bounded and data_vars:
            self.model.add_constraint(
                lin_sum(data_vars) >= readings.data_cache_misses,
                name=f"data_count_lb[{who}]",
            )


def solve_contention_ilp(model: IlpModel, options: IlpPtacOptions) -> Solution:
    """Solve a contention ILP honouring the options' solver knobs.

    The shared dispatch of every ILP-backed model (single-contender,
    time-composable, multi-contender, FSB reduction): every ``bnb``
    solve goes through the calling thread's
    :func:`~repro.ilp.batch.default_batch_solver`, so same-structure
    instances solved in one process (sweep points, matrix cells) chain
    from each other's root tableaus, with results
    bit-identical to a cold :meth:`~repro.ilp.model.IlpModel.solve`.
    The ``scipy`` and ``lp`` backends go to ``IlpModel.solve`` unchanged.
    """
    if options.backend == "bnb":
        from repro.ilp.batch import default_batch_solver

        return default_batch_solver().solve(
            model, node_limit=options.node_limit
        )
    return model.solve(
        backend=options.backend, node_limit=options.node_limit
    )


def build_ilp_ptac(
    readings_a: TaskReadings,
    readings_b: TaskReadings | None,
    profile: LatencyProfile,
    scenario: DeploymentScenario,
    options: IlpPtacOptions | None = None,
) -> IlpModel:
    """Build (without solving) the ILP of Section 3.5 — useful for
    inspecting the generated constraints in tests and reports."""
    options = options or IlpPtacOptions()
    return _IlpPtacBuilder(
        readings_a, readings_b, profile, scenario, options
    ).build()


def ilp_ptac_bound(
    readings_a: TaskReadings,
    readings_b: TaskReadings | None,
    profile: LatencyProfile,
    scenario: DeploymentScenario,
    options: IlpPtacOptions | None = None,
) -> IlpPtacResult:
    """Solve the ILP-PTAC model for one contender (Section 3.5).

    Args:
        readings_a: isolation counter readings of the task under analysis.
        readings_b: isolation counter readings of the contender; may be
            ``None`` when ``options.contender_constraints`` is off.
        profile: Table 2 constants.
        scenario: deployment scenario shared by both tasks (Section 4.1).
        options: model knobs; defaults reproduce the paper's configuration.

    Returns:
        An :class:`IlpPtacResult` whose ``bound.delta_cycles`` is the
        worst-case contention in cycles.
    """
    options = options or IlpPtacOptions()
    builder = _IlpPtacBuilder(
        readings_a, readings_b, profile, scenario, options
    )
    model = builder.build()
    solution = solve_contention_ilp(model, options).require_optimal()

    # With the "lp" backend the relaxation optimum is fractional; rounding
    # each interference term *up* keeps the reported bound sound (the LP
    # optimum already dominates the ILP optimum).
    relaxed = options.backend == "lp"

    def count_of(pair: Pair) -> int:
        if relaxed:
            return int(math.ceil(solution.value(builder.n_ba[pair]) - 1e-9))
        return solution.int_value(builder.n_ba[pair])

    interference: dict[Pair, int] = {}
    breakdown: dict[Pair, int] = {}
    op_totals = {Operation.CODE: 0, Operation.DATA: 0}
    for pair in builder.pairs:
        count = count_of(pair)
        latency = builder._latency(pair)
        interference[pair] = count
        cycles = count * latency
        if cycles:
            breakdown[pair] = cycles
        op_totals[pair[1]] += cycles

    contenders: tuple[str, ...] = ()
    if options.contender_constraints and readings_b is not None:
        contenders = (readings_b.name,)
    bound = ContentionBound(
        model="ilp-ptac"
        if options.contender_constraints
        else "ilp-ptac-tc",
        task=readings_a.name,
        contenders=contenders,
        delta_cycles=sum(op_totals.values()),
        op_breakdown=op_totals,
        breakdown=breakdown,
        scenario=scenario.name,
        time_composable=not options.contender_constraints,
    )

    def witness(variables: dict[Pair, Var]) -> dict[Pair, int]:
        if relaxed:
            return {
                pair: int(math.ceil(solution.value(var) - 1e-9))
                for pair, var in variables.items()
            }
        return {
            pair: solution.int_value(var) for pair, var in variables.items()
        }

    return IlpPtacResult(
        bound=bound,
        interference=interference,
        worst_profile_a=witness(builder.n_a),
        worst_profile_b=witness(builder.n_b),
        model=model,
        solution=solution,
    )
