"""The ILP-based PTAC contention model (Section 3.5, Eqs. 9-23).

The tightest model the TC27x's debug counters allow: an Integer Linear
Program searches for the per-target mapping of τa's and τb's requests that
is (i) consistent with everything the counters and the deployment scenario
say, and (ii) maximises the contention inflicted on τa.  Because it
maximises over *all* consistent mappings, the result is a sound bound even
though the true mapping is unknown.

One builder assembles the model for zero, one or several contenders:
none gives the time-composable variant (``ilp-ptac-tc``), one the
paper's model (``ilp-ptac``), several Section 2's joint extension
(``ilp-ptac-multi``, :mod:`repro.core.multicontender`), in which every
contender gets its own ``n_b``/``n_ba`` families and caps against one
shared τa mapping.

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

Templates: which rows and columns exist, and every coefficient, follow
from the scenario's valid pairs, their latencies and stall cycles, the
Table 5 flags, the stall-budget mode and the contenders' count (their
names too, from two on); the counter readings reach only the right-hand
sides of the stall-budget and Table 5 rows.  So the expression code
assembles each such *structure* once, into a per-process memoised
template (its standard form built and its structure signature hashed
once), and every model is an instance of it: a full, copy-on-write
:class:`IlpModel` (:meth:`~repro.ilp.model.IlpModel.with_rhs`) sharing
the template's variables, constraints and read-only arrays, whose only
new arrays are the right-hand sides; its rewritten counter rows are made
only if something reads its constraints.  The builder memoises each
structure per profile and scenario object, and reads the counts back
off the solver's point through the template's per-family column
indices.  A sweep of thousands of points builds a handful of templates,
and the batch solver chains their roots without comparing matrices,
since every instance carries the template's very ``a_ub``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref
from typing import Mapping, Sequence

import numpy as np

from repro.core.results import ContentionBound
from repro.counters.readings import TaskReadings
from repro.errors import ModelError
from repro.ilp.batch import structure_signature
from repro.ilp.expr import Constraint, Var, lin_sum
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


@dataclasses.dataclass(frozen=True)
class _Readout:
    """A solved contention ILP, read back by :meth:`_IlpPtacBuilder.solve`.

    Attributes:
        bound: the contention bound over every ``n_ba`` family.
        pairs: the scenario's valid pairs, the order of :attr:`counts`.
        counts: per ``n_ba`` family (one per contender, or the
            time-composable one), the worst-case interfering counts.
        cycles: per ``n_ba`` family, the interference cycles it carries.
        solution: raw solver result.
    """

    bound: ContentionBound
    pairs: tuple[Pair, ...]
    counts: tuple[list[int], ...]
    cycles: tuple[int, ...]
    solution: Solution

    @functools.cached_property
    def interference(self) -> tuple[dict[Pair, int], ...]:
        """:attr:`counts` keyed by pair."""
        return tuple(dict(zip(self.pairs, counts)) for counts in self.counts)


#: Contention-ILP templates kept in memory per process, one per
#: structure.  A sweep touches a handful (six serve ``ilp-explore``'s
#: 3039 solves), so the bound only caps a long-lived worker.
TEMPLATE_CACHE_SIZE = 32


@dataclasses.dataclass(frozen=True)
class _Structure:
    """What a contention ILP's rows, columns and coefficients read.

    The memo key of :func:`_template`, compared by value: every sweep
    point, pool job and service unit brings fresh profile and scenario
    objects (and :class:`LatencyProfile` hashes by identity).  The
    readings and the solver knobs are not part of it.

    Attributes:
        pairs: the scenario's valid ``(target, operation)`` pairs.
        latencies: each pair's interference latency (Eq. 9's
            ``l^{t,o}``).
        stall_cycles: each pair's minimum stall cycles (Eqs. 20-23's
            ``cs^{t,o}``).
        stall_budget: the stall-budget mode of Eqs. 20-23.
        code_count_exact: whether Table 5's ``Σ_t n[t,co] = PM`` rows
            apply (the scenario allows them and the options use them).
        data_count_lower_bounded: whether Table 5's
            ``Σ_t n[t,da] ≥ DMC + DMD`` rows apply.
        contenders: how many contenders the model has.
        names: the contenders' names, which tag their variables and
            rows; empty with fewer than two contenders.
    """

    pairs: tuple[Pair, ...]
    latencies: tuple[int, ...]
    stall_cycles: tuple[int, ...]
    stall_budget: str
    code_count_exact: bool
    data_count_lower_bounded: bool
    contenders: int
    names: tuple[str, ...]


class _Template:
    """The ILP of Section 3.5 for one :class:`_Structure`, for τa against
    zero, one or several contenders.

    No contender builds the time-composable variant: one ``n_ba`` family
    capped by τa's exposure alone, and no ``n_b``.  One contender builds
    the paper's model.  Several build Section 2's joint model: each
    contender ``i`` gets its own ``n_b``/``n_ba`` families, stall budget,
    tailoring and per-target caps (``n_{bi→a} ≤ n_{bi}`` and
    ``Σ_o n_{bi→a} ≤ Σ_o n_a``), while all of them share τa's one
    mapping, so the joint optimum can be *smaller* than the sum of the
    single-contender optima.  With two or more contenders each
    contender's variables and rows carry ``[name]``
    (``n_ba[H-Load][pf0,co]``); with fewer, names carry no tag.

    Assembled from the structure alone, so the rows that read the
    counters (the stall budgets and the Table 5 counts) carry a
    placeholder right-hand side of 0; each one is recorded in
    :attr:`reading_rows` as it is added, and
    :meth:`_IlpPtacBuilder.build` fills them in per instance.

    Attributes:
        model: the template ILP; its standard form is built and its
            structure signature hashed once, here.
        n_a, n_ba, n_b: the variable families (``n_ba`` one per
            contender, or the time-composable one; ``n_b`` one per
            contender), shared by every instance.
        reading_rows: per counter-reading row, ``(position, task,
            reading)``: the constraint's position in the model, the task
            whose readings it uses (0 for τa, ``i`` for the ``i``-th
            contender) and the :class:`TaskReadings` attribute.
        columns_a, columns_ba, columns_b: the columns of ``n_a`` and of
            each ``n_ba`` and ``n_b`` family, in pair order; the readout
            indexes the solver's point with them.
    """

    def __init__(self, structure: _Structure) -> None:
        self.structure = structure
        self.pairs = structure.pairs
        self.model = IlpModel(name="ilp-ptac template")
        self.n_a: dict[Pair, Var] = {}
        self.n_ba: list[dict[Pair, Var]] = []
        self.n_b: list[dict[Pair, Var]] = []
        self.reading_rows: list[tuple[int, int, str]] = []
        # (name tag of a family's variables and cap rows, ``who`` of its
        # task rows) per n_ba family.
        if structure.contenders > 1:
            self._tags = [(f"[{name}]", name) for name in structure.names]
        else:
            self._tags = [("", "b")]
        self._add_variables()
        self._add_objective()
        self._add_interference_caps()
        tasks = [("a", self.n_a)] + [
            (who, n_b) for (_, who), n_b in zip(self._tags, self.n_b)
        ]
        for task, (who, variables) in enumerate(tasks):
            self._add_stall_profile(task, who, variables)
            self._add_tailoring(task, who, variables)
        column = {var: j for j, var in enumerate(self.model.variables)}

        def columns(family: dict[Pair, Var]) -> np.ndarray:
            return np.array([column[family[pair]] for pair in self.pairs])

        self.columns_a = columns(self.n_a)
        self.columns_ba = [columns(family) for family in self.n_ba]
        self.columns_b = [columns(family) for family in self.n_b]
        # Memoised on the form, which every instance's form copies.
        structure_signature(self.model.standard_form())

    def _add_variables(self) -> None:
        # Column order: per-class totals of τa, then of each contender's
        # n_ba and n_b; then per pair n_a followed by each contender's
        # n_ba and n_b.  The totals (Eq. 5's n^co / n^da) are redundant
        # for the LP but give branch-and-bound integral *sums* to branch
        # on, collapsing the pf0/pf1 symmetry plateau (the two banks
        # share one latency, so fractions can otherwise hop between
        # their columns without changing the bound).
        families: list[tuple[str, dict[Pair, Var]]] = [("a", self.n_a)]
        for tag, _ in self._tags:
            self.n_ba.append({})
            families.append((f"ba{tag}", self.n_ba[-1]))
            if self.structure.contenders:
                self.n_b.append({})
                families.append((f"b{tag}", self.n_b[-1]))
        ops = [
            op
            for op in (Operation.CODE, Operation.DATA)
            if any(o is op for _, o in self.pairs)
        ]
        totals = [
            (
                family,
                variables,
                op,
                self.model.add_var(f"n_{family}^{op.value}"),
            )
            for family, variables in families
            for op in ops
        ]
        for pair in self.pairs:
            label = pair_label(*pair)
            for family, variables in families:
                variables[pair] = self.model.add_var(f"n_{family}[{label}]")
        for family, variables, op, total in totals:
            self.model.add_constraint(
                lin_sum(
                    variables[(t, o)] for (t, o) in self.pairs if o is op
                )
                == total,
                name=f"total_{family}_{op.value}",
            )

    def _add_objective(self) -> None:
        """Equation 9: maximise Δcs^co_a + Δcs^da_a over all contenders."""
        self.model.maximize(
            lin_sum(
                n_ba[pair] * latency
                for n_ba in self.n_ba
                for pair, latency in zip(
                    self.pairs, self.structure.latencies
                )
            )
        )

    def _add_interference_caps(self) -> None:
        """Equations 10-19 (linearised; Eq. 15-16 typos corrected), per
        contender."""
        # Targets in valid_pairs() order: a set would emit the rows in
        # string-hash order, making solver effort depend on the seed.
        for target in dict.fromkeys(target for target, _ in self.pairs):
            ops = [op for t, op in self.pairs if t is target]
            exposure = lin_sum(self.n_a[(target, op)] for op in ops)
            for k, (tag, _) in enumerate(self._tags):
                n_ba = self.n_ba[k]
                for op in ops:
                    pair = (target, op)
                    label = pair_label(target, op)
                    # n_ba <= τa's exposure on the target (Eqs. 11a/12a/...).
                    self.model.add_constraint(
                        n_ba[pair] <= exposure, name=f"cap_a{tag}[{label}]"
                    )
                    # n_ba <= what τb issues there (Eqs. 11b/12b/...);
                    # absent without contender info, leaving only the
                    # τa-side caps.
                    if self.n_b:
                        self.model.add_constraint(
                            n_ba[pair] <= self.n_b[k][pair],
                            name=f"cap_b{tag}[{label}]",
                        )
                # Cumulative per-target cap (Eqs. 13/16/19): τa's requests
                # on a target can each be delayed at most once by each
                # contender.
                self.model.add_constraint(
                    lin_sum(n_ba[(target, op)] for op in ops) <= exposure,
                    name=f"cumulative{tag}[{target.value}]",
                )

    def _add_reading_row(
        self, constraint: Constraint, name: str, task: int, reading: str
    ) -> None:
        """Add a row whose right-hand side, 0 in the template, is
        ``task``'s ``reading`` in every instance."""
        self.reading_rows.append(
            (len(self.model.constraints), task, reading)
        )
        self.model.add_constraint(constraint, name=name)

    def _add_stall_profile(
        self, task: int, who: str, variables: dict[Pair, Var]
    ) -> None:
        """Equations 20-23: consistency with PMEM_STALL (``ps``) /
        DMEM_STALL (``ds``)."""
        for op, reading in ((Operation.CODE, "ps"), (Operation.DATA, "ds")):
            terms = [
                variables[pair] * stall
                for pair, stall in zip(
                    self.pairs, self.structure.stall_cycles
                )
                if pair[1] is op
            ]
            if not terms:
                continue
            expr = lin_sum(terms)
            if self.structure.stall_budget == "exact":
                constraint = expr == 0
            else:
                constraint = expr <= 0
            self._add_reading_row(
                constraint, f"stall_{op.value}[{who}]", task, reading
            )

    def _add_tailoring(
        self, task: int, who: str, variables: dict[Pair, Var]
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
        if self.structure.code_count_exact and code_vars:
            # Σ_t n[t,co] = PM.
            self._add_reading_row(
                lin_sum(code_vars) == 0, f"code_count[{who}]", task, "pm"
            )
        data_vars = [
            variables[(target, op)]
            for (target, op) in self.pairs
            if op is Operation.DATA
        ]
        if self.structure.data_count_lower_bounded and data_vars:
            # Σ_t n[t,da] >= DMC + DMD.
            self._add_reading_row(
                lin_sum(data_vars) >= 0,
                f"data_count_lb[{who}]",
                task,
                "data_cache_misses",
            )


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _template(structure: _Structure) -> _Template:
    """The one template of ``structure``, assembled on first use.

    ``lru_cache`` is thread-safe, which matters because pull workers may
    share one interpreter as threads; the template is complete, form
    and signature included, before it is shared.  ``__wrapped__`` is
    the unmemoised assembly.
    """
    return _Template(structure)


#: :meth:`_IlpPtacBuilder.structure`'s memo: per (profile id, scenario
#: id, stall-budget mode, exact-code-count option, contender count,
#: contender names), weak references to the profile and the scenario,
#: and their structure.  An entry answers only while both references
#: still lead to the very objects asked about, so an id reused after its
#: object died misses, and the memo keeps no profile or scenario alive
#: (a pull worker unpickles fresh ones for every job).  Past
#: :data:`TEMPLATE_CACHE_SIZE` entries the memo starts over.
_STRUCTURES: dict[
    tuple,
    tuple[
        "weakref.ref[LatencyProfile]",
        "weakref.ref[DeploymentScenario]",
        _Structure,
    ],
] = {}


class _IlpPtacBuilder:
    """Instantiates the contention ILP of τa against zero, one or several
    contenders (see :class:`_Template`), solves it and reads it back.
    """

    def __init__(
        self,
        readings_a: TaskReadings,
        contenders: Sequence[TaskReadings],
        profile: LatencyProfile,
        scenario: DeploymentScenario,
        options: IlpPtacOptions,
    ) -> None:
        self.readings_a = readings_a
        self.contenders = tuple(contenders)
        self.profile = profile
        self.scenario = scenario
        self.options = options
        self.pairs: tuple[Pair, ...] = scenario.valid_pairs()
        if not self.pairs:
            raise ModelError(
                f"scenario {scenario.name!r} admits no SRI traffic"
            )
        names = ", ".join(c.name for c in self.contenders) or "<any>"
        self.name = f"ilp-ptac[{readings_a.name} vs {names}; {scenario.name}]"

    # ------------------------------------------------------------------
    def structure(self) -> _Structure:
        """The memo key of this instance's template.

        Itself memoised per profile and scenario *object*, with the
        options and contenders that shape it: a sweep brings the same
        two objects to every point, so only its first point reads the
        latencies and stall cycles.
        """
        profile, scenario, options = self.profile, self.scenario, self.options
        names = (
            tuple(c.name for c in self.contenders)
            if len(self.contenders) > 1
            else ()
        )
        key = (
            id(profile),
            id(scenario),
            options.stall_budget,
            options.use_exact_code_counts,
            len(self.contenders),
            names,
        )
        entry = _STRUCTURES.get(key)
        if (
            entry is not None
            and entry[0]() is profile
            and entry[1]() is scenario
        ):
            return entry[2]
        structure = _Structure(
            pairs=self.pairs,
            latencies=tuple(
                scenario.interference_latency(profile, target, op)
                for target, op in self.pairs
            ),
            stall_cycles=tuple(
                profile.stall_cycles(target, op) for target, op in self.pairs
            ),
            stall_budget=options.stall_budget,
            code_count_exact=(
                options.use_exact_code_counts and scenario.code_count_exact
            ),
            data_count_lower_bounded=scenario.data_count_lower_bounded,
            contenders=len(self.contenders),
            names=names,
        )
        if len(_STRUCTURES) >= TEMPLATE_CACHE_SIZE:
            _STRUCTURES.clear()
        _STRUCTURES[key] = (
            weakref.ref(profile),
            weakref.ref(scenario),
            structure,
        )
        return structure

    def build(self) -> IlpModel:
        """This instance of its structure's template.

        The template is assembled on the structure's first use and
        memoised; every instance is the template with the rows that read
        the counters rewritten to this instance's readings
        (:meth:`~repro.ilp.model.IlpModel.with_rhs`).  The returned model
        is a full, copy-on-write :class:`IlpModel`, named after the tasks
        and scenario, that shares the template's variables, constraints
        and read-only arrays.
        """
        self.template = template = _template(self.structure())
        readings = (self.readings_a, *self.contenders)
        self.model = template.model.with_rhs(
            {
                position: getattr(readings[task], reading)
                for position, task, reading in template.reading_rows
            },
            name=self.name,
        )
        return self.model

    def counts(self, solution: Solution, columns: np.ndarray) -> list[int]:
        """One variable family's counts at the optimum, in pair order, by
        the family's columns (one of the template's ``columns_*``).

        With the ``lp`` backend the relaxation optimum is fractional;
        rounding each count *up* keeps the reported bound sound (the LP
        optimum already dominates the ILP optimum).
        """
        if self.options.backend == "lp":
            assert solution.x is not None
            return [
                int(math.ceil(value - 1e-9))
                for value in solution.x[columns].tolist()
            ]
        return solution.int_values(columns)

    def solve(
        self, model_name: str, *, upper_bound: float | None = None
    ) -> _Readout:
        """Build, solve and read the bound back, named ``model_name``.

        Cycles are attributed per pair and ``n_ba`` family, so the bound
        is the sum of what the rounded counts carry.  ``upper_bound`` is
        a known upper bound on the optimum, passed to the solver (see
        :func:`solve_contention_ilp`).
        """
        solution = solve_contention_ilp(
            self.build(), self.options, upper_bound=upper_bound
        ).require_optimal()
        template = self.template
        counts = tuple(
            self.counts(solution, columns) for columns in template.columns_ba
        )
        latencies = template.structure.latencies
        cycles = [
            sum(per_family) * latency
            for per_family, latency in zip(zip(*counts), latencies)
        ]
        total = sum(cycles)
        code = sum(
            pair_cycles
            for pair_cycles, (_, op) in zip(cycles, self.pairs)
            if op is Operation.CODE
        )
        bound = ContentionBound(
            model=model_name,
            task=self.readings_a.name,
            contenders=tuple(c.name for c in self.contenders),
            delta_cycles=total,
            op_breakdown={Operation.CODE: code, Operation.DATA: total - code},
            breakdown={
                pair: pair_cycles
                for pair, pair_cycles in zip(self.pairs, cycles)
                if pair_cycles
            },
            scenario=self.scenario.name,
            time_composable=not self.contenders,
        )
        per_family = tuple(
            sum(count * latency for count, latency in zip(family, latencies))
            for family in counts
        )
        return _Readout(bound, self.pairs, counts, per_family, solution)


def solve_contention_ilp(
    model: IlpModel,
    options: IlpPtacOptions,
    *,
    upper_bound: float | None = None,
) -> Solution:
    """Solve a contention ILP honouring the options' solver knobs.

    The shared dispatch of every ILP-backed model (the one ILP-PTAC
    builder's zero-, one- and many-contender forms and the FSB
    reduction, which instantiates it): every ``bnb``
    solve goes through the calling thread's
    :func:`~repro.ilp.batch.default_batch_solver`, so same-structure
    instances solved in one process (sweep points, matrix cells) chain
    from each other's root tableaus, with results
    bit-identical to a cold :meth:`~repro.ilp.model.IlpModel.solve`.
    The ``scipy`` and ``lp`` backends go to ``IlpModel.solve`` unchanged.

    ``upper_bound``, when given, must bound the optimum from above (a
    contender-scale sweep passes its time-composable ceiling, which no
    one-contender instance exceeds).  Only ``bnb`` uses it, to stop
    branching once its incumbent reaches it; the solution is the same.
    """
    if options.backend == "bnb":
        from repro.ilp.batch import default_batch_solver

        return default_batch_solver().solve(
            model, node_limit=options.node_limit, upper_bound=upper_bound
        )
    return model.solve(
        backend=options.backend, node_limit=options.node_limit
    )


def _single_contender_builder(
    readings_a: TaskReadings,
    readings_b: TaskReadings | None,
    profile: LatencyProfile,
    scenario: DeploymentScenario,
    options: IlpPtacOptions,
) -> _IlpPtacBuilder:
    """The builder behind :func:`build_ilp_ptac` and
    :func:`ilp_ptac_bound`: τb's readings count only under
    ``contender_constraints``."""
    if not options.contender_constraints:
        return _IlpPtacBuilder(readings_a, (), profile, scenario, options)
    if readings_b is None:
        raise ModelError(
            "contender constraints requested but no contender readings "
            "given; pass readings_b or set contender_constraints=False"
        )
    return _IlpPtacBuilder(
        readings_a, (readings_b,), profile, scenario, options
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
    return _single_contender_builder(
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
    builder = _single_contender_builder(
        readings_a, readings_b, profile, scenario, options
    )
    readout = builder.solve(
        "ilp-ptac" if builder.contenders else "ilp-ptac-tc"
    )
    solution = readout.solution
    template = builder.template

    def by_pair(columns) -> dict[Pair, int]:
        return dict(zip(builder.pairs, builder.counts(solution, columns)))

    return IlpPtacResult(
        bound=readout.bound,
        interference=readout.interference[0],
        worst_profile_a=by_pair(template.columns_a),
        worst_profile_b=(
            by_pair(template.columns_b[0]) if template.columns_b else {}
        ),
        model=builder.model,
        solution=solution,
    )
