"""Branch-and-bound MILP solver on top of the bundled simplex.

A classic best-first branch-and-bound:

1. solve the LP relaxation of the node;
2. prune when the relaxation is infeasible or cannot beat the incumbent;
3. if the relaxation is integral on the integer columns, update the
   incumbent; otherwise branch on the most fractional integer column,
   adding ``x_j <= floor(v)`` / ``x_j >= ceil(v)`` bound rows.

Two details matter for the paper's instances:

* every objective coefficient is an integral latency and every integer
  variable a request count, so node bounds can be *rounded down* before
  pruning (``floor`` of the LP bound is still a valid upper bound), which
  closes the gap quickly;
* the LP relaxations of the ILP-PTAC instances are naturally near-integral
  (their constraint structure is close to an interval matrix), so the tree
  stays tiny — asserted by the solver-ablation benchmark.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math

import numpy as np

from repro.errors import IlpError
from repro.ilp.model import StandardForm
from repro.ilp.simplex import (
    LpStatus,
    solve_lp,
    warm_solve_insert_row,
    warm_solve_rhs,
)
from repro.ilp.solution import Solution, SolveStats, SolveStatus

#: Values closer than this to an integer are treated as integral.
INTEGRALITY_TOLERANCE = 1e-6

#: Warm mode hands each child its parent's solver state only for this
#: many explored nodes.  Each child retains its parent's final tableau
#: until popped (extending it skips both the child-matrix assembly and
#: the cold two-phase solve); on the small trees the contention
#: instances normally produce that is a handful of tiny arrays, but on
#: a pathological plateau blow-up the retained tableaus would pile up,
#: so past the cap children simply cold-solve.  Purely a cost knob: the
#: canonical-vertex simplex returns the same result either way.
BASIS_REUSE_NODE_LIMIT = 256


@dataclasses.dataclass(frozen=True)
class BnbWarmStart:
    """Reusable solver state shared by same-structure solves.

    Produced by :func:`solve_bnb_warm` and fed back into the next solve
    of a structurally identical instance (same variables, same
    constraint rows — only coefficients changed, the sweep situation).

    Attributes:
        basis: the root relaxation's optimal basis, the one
            :attr:`root_tableau` is reduced against.
        root_tableau: the root relaxation's final reduced tableau
            (``[x | slacks | rhs]``, warm-path convention — rows never
            negated), when one was produced; the next root *chains* from
            it by rewriting the right-hand column instead of solving the
            root cold.
        root_arrays: the ``(a_ub, a_eq, c)`` of the instance whose root
            produced the tableau.  Chaining needs equal matrices
            (structure signatures only pledge equal sparsity), and the
            certificate also equal costs.
        eq_cache: maps a basis (as bytes) to ``B^-1 E_eq`` under the
            matrices of :attr:`root_arrays` — the equality rows carry no
            slack column, so their ``B^-1 e_i`` needs one small linear
            solve; root bases repeat across a sweep, so the solve
            amortises to once per distinct basis.  The dict is threaded
            through successive states by identity while their matrices
            stay equal; a root with other matrices starts a new one.
        certified: the root result was
            :attr:`~repro.ilp.simplex.LpResult.certified`: a chained
            root at this basis whose ``B^-1 b`` is non-negative, under
            the same matrices and costs, is answered without recovery
            (:func:`~repro.ilp.simplex.warm_solve_rhs`).
    """

    basis: np.ndarray | None = None
    root_tableau: np.ndarray | None = None
    root_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    eq_cache: dict | None = None
    certified: bool = False


@dataclasses.dataclass(order=True)
class _Node:
    """One branch-and-bound node, ordered for the best-first heap.

    ``priority`` is the negated parent LP bound so that ``heapq`` pops the
    most promising node first; ``counter`` breaks ties FIFO.  In warm
    mode ``ext`` carries the parent LP's final tableau and basis plus
    the :func:`~repro.ilp.simplex.warm_solve_insert_row` arguments of
    the one bound row that turns it into this node; without it (cold
    mode, a parent that kept no tableau, past the reuse cap, or a child
    that re-bounds a column already carrying that bound row) the node
    solves cold.
    """

    priority: float
    counter: int
    lower: np.ndarray = dataclasses.field(compare=False)
    upper: np.ndarray = dataclasses.field(compare=False)
    ext: tuple | None = dataclasses.field(compare=False, default=None)


def _bound_rows(
    form: StandardForm, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Materialise per-node variable bounds as inequality rows.

    Row order is column-ascending with each column's upper-bound row
    before its lower-bound row — the same order :func:`_bound_codes`
    encodes, which is what locates a child's bound row in its parent's
    tableau.
    """
    n = form.n_variables
    rows = [form.a_ub] if form.a_ub.size else []
    rhs = [form.b_ub] if form.b_ub.size else []
    codes = _bound_codes(lower, upper)
    if codes.size:
        cols = codes >> 1
        is_lower = (codes & 1).astype(bool)
        extra_rows = np.zeros((codes.shape[0], n))
        extra_rows[np.arange(codes.shape[0]), cols] = np.where(
            is_lower, -1.0, 1.0
        )
        extra_rhs = np.where(is_lower, -lower[cols], upper[cols])
        rows.append(extra_rows)
        rhs.append(extra_rhs)
    if not rows:
        return np.empty((0, n)), np.empty(0)
    return np.vstack(rows), np.concatenate(rhs)


def _basis_eq_inverse(
    form: StandardForm, basis: np.ndarray
) -> np.ndarray | None:
    """``B^-1 E_eq`` for a ``[x | slacks]`` basis (None when singular).

    The warm tableau's slack columns hand out ``B^-1 e_i`` for free on
    inequality rows; equality rows have no slack, so carrying their
    right-hand sides into the rhs column needs these columns solved
    explicitly.
    """
    n = form.n_variables
    m_ub = form.a_ub.shape[0]
    m_eq = form.a_eq.shape[0]
    m = m_ub + m_eq
    matrix = np.zeros((m, m))
    structural = basis < n
    if structural.any():
        columns = basis[structural]
        matrix[:m_ub, structural] = form.a_ub[:, columns]
        matrix[m_ub:, structural] = form.a_eq[:, columns]
    slack = ~structural
    if slack.any():
        matrix[basis[slack] - n, slack] = 1.0
    targets = np.zeros((m, m_eq))
    targets[m_ub + np.arange(m_eq), np.arange(m_eq)] = 1.0
    try:
        inverse = np.linalg.solve(matrix, targets)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(inverse)):
        return None
    return inverse


def _same(array: np.ndarray, other: np.ndarray) -> bool:
    """Whether two arrays hold equal values (instances of one template
    share theirs, which answers without a comparison)."""
    return array is other or np.array_equal(array, other)


def _chained_root(form, warm, c_min, eq_cache):
    """Solve the root relaxation by chaining from the previous root.

    Same-structure sweep points share their constraint matrices and move
    only right-hand sides, so the new root's reduced rhs column is
    ``B^-1 @ b`` for the stored basis — assembled from the tableau's own
    slack columns (``B^-1`` on the inequality rows) and the cached
    equality-row columns — followed by the usual dual-simplex recovery,
    or none when the stored basis is certified for these costs (see
    :class:`BnbWarmStart`).  The caller has checked the matrices equal
    the stored root's.  The column is computed from ``b`` itself, never
    as the stored column plus ``B^-1 @ (b_new - b_old)``: shifting would
    carry each point's rounding error into the next, and along a long
    sweep a zero row drifted past the dual ratio test's tolerance and
    read as a certificate of infeasibility.  Returns ``None`` (fall back
    to a cold solve) whenever the stored state does not provably apply.
    """
    tableau = warm.root_tableau
    basis = warm.basis
    n = form.n_variables
    m_ub = form.a_ub.shape[0]
    m = m_ub + form.a_eq.shape[0]
    if basis is None or tableau.shape != (m, n + m_ub + 1):
        return None

    rhs = tableau[:, n : n + m_ub] @ form.b_ub
    nonzero = form.b_eq.nonzero()[0]
    if nonzero.size:
        key = basis.tobytes()
        eq_inverse = eq_cache.get(key)
        if eq_inverse is None:
            eq_inverse = _basis_eq_inverse(form, basis)
            if eq_inverse is None:
                return None
            eq_cache[key] = eq_inverse
        rhs += eq_inverse[:, nonzero] @ form.b_eq[nonzero]
    # The objective may move: recovery then pays primal pivots after
    # the dual ones, and the certificate does not apply.
    certified = warm.certified and _same(form.c, warm.root_arrays[2])
    return warm_solve_rhs(
        tableau, basis, c_min, rhs, keep_tableau=True, certified=certified
    )


def _floor_heuristic(
    form: StandardForm,
    x: np.ndarray,
    lower: np.ndarray,
) -> np.ndarray | None:
    """Try to turn a fractional LP point into a feasible integral one.

    Flooring the integer columns of a feasible point keeps every ``<=``
    row with non-negative variable coefficients satisfied — which is the
    dominant structure of the contention ILPs — and often lands on (or a
    few units below) the true optimum, giving branch-and-bound an
    immediate incumbent to prune the symmetric pf0/pf1 plateau with.
    Returns the rounded point if it verifies feasible, else ``None``.
    """
    candidate = x.copy()
    mask = form.integer_mask
    candidate[mask] = np.floor(candidate[mask] + INTEGRALITY_TOLERANCE)
    if (candidate < lower - INTEGRALITY_TOLERANCE).any():
        return None
    if form.a_ub.size and (form.a_ub @ candidate > form.b_ub + 1e-6).any():
        return None
    if form.a_eq.size and (
        np.abs(form.a_eq @ candidate - form.b_eq) > 1e-6
    ).any():
        return None
    return candidate


def _bound_codes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Identity of each per-node bound row, in :func:`_bound_rows` order.

    A row's key is the integer ``2 * column + kind`` (kind 0 for an
    upper-bound row, 1 for a lower-bound row); sorting the codes gives
    exactly the column-ascending, upper-before-lower row order, and the
    sorted array locates a branching row by ``searchsorted``.
    """
    codes = np.concatenate(
        [
            2 * (upper != np.inf).nonzero()[0],
            2 * (lower > 0.0).nonzero()[0] + 1,
        ]
    )
    codes.sort()
    return codes


def _most_fractional(x: np.ndarray, integer_mask: np.ndarray) -> int | None:
    """Index of the integer column farthest from integrality, or ``None``.

    Ties (within 1e-7) resolve to the *lowest* column index.  This is
    load-bearing: the contention models register their per-class total
    variables first, and branching on a total collapses the symmetric
    pf0/pf1 plateau, while float noise on equally-fractional high-index
    columns would otherwise steer the search into an exponential
    staircase (observed before this rule existed).
    """
    columns = integer_mask.nonzero()[0]
    if columns.size == 0:
        return None
    values = x[columns]
    frac = np.abs(values - np.floor(values))
    distances = np.minimum(frac, 1.0 - frac).tolist()
    # Sequential record fold on Python floats: a column only takes over
    # when it beats the running best by more than 1e-7, so near-ties keep
    # the lowest index (see docstring) — an argmax would not.
    best_j: int | None = None
    best_distance = INTEGRALITY_TOLERANCE
    for k, j in enumerate(columns.tolist()):
        if distances[k] > best_distance + 1e-7:
            best_distance = distances[k]
            best_j = j
    return best_j


def solve_bnb(form: StandardForm, *, node_limit: int = 100_000) -> Solution:
    """Solve a :class:`StandardForm` MILP (maximisation) by branch-and-bound.

    Args:
        form: the dense instance (bounds already folded into rows for the
            root; per-node bounds are managed separately).
        node_limit: maximum nodes to explore; on exhaustion the best
            incumbent is returned with status ``NODE_LIMIT``.
    """
    return _solve(form, node_limit, warm=None, reuse_bases=False)[0]


def solve_bnb_warm(
    form: StandardForm,
    warm: BnbWarmStart | None = None,
    *,
    node_limit: int = 100_000,
    upper_bound: float | None = None,
) -> tuple[Solution, BnbWarmStart]:
    """Warm-started :func:`solve_bnb`, for batched same-structure solves.

    Reuses two kinds of work (see :mod:`repro.ilp.batch` for the
    per-structure pool that feeds this):

    * the previous solve's root tableau *chains* this root relaxation:
      its right-hand column is recomputed from the new ``b``; a
      certified stored basis (:class:`BnbWarmStart`) under the same
      costs answers a non-negative column as it stands, otherwise a few
      dual pivots recover (a root whose matrices changed, or whose
      chained relaxation is not optimal, solves cold);
    * within the tree, each child LP *extends its parent's final
      tableau* by the one branching bound row (a child whose parent
      kept no tableau, or whose column already carries that bound row,
      solves cold) — typically a single dual pivot instead of a full
      solve.

    ``upper_bound``, when given, is a proven upper bound on the optimum
    objective (constant included), such as the optimum of a relaxation
    of the instance.  The search stops as soon as its incumbent reaches
    it, even with open nodes or an exhausted node budget, and reports
    ``OPTIMAL``.  The solution is unchanged: the incumbent is replaced
    only by strictly better points, so one that reaches a bound on the
    optimum is the one the full search returns; only the stats shrink.
    An incumbent more than :data:`INTEGRALITY_TOLERANCE` above the bound
    proves the bound wrong and raises :class:`~repro.errors.IlpError`.

    The returned bound and solution are identical to a cold
    :func:`solve_bnb`.  Returns the solution together with the state to
    feed into the next same-structure solve.
    """
    return _solve(
        form, node_limit, warm=warm, reuse_bases=True, upper_bound=upper_bound
    )


def _reaches(
    form: StandardForm, value: float, upper_bound: float | None
) -> bool:
    """Whether a new incumbent of (constant-free) objective ``value``
    reaches the caller's ``upper_bound`` on the optimum.

    Raises:
        IlpError: the incumbent exceeds the bound, which therefore is
            not a bound on the optimum.
    """
    if upper_bound is None:
        return False
    objective = value + form.objective_constant
    if objective > upper_bound + INTEGRALITY_TOLERANCE:
        raise IlpError(
            f"incumbent objective {objective} exceeds the upper bound "
            f"{upper_bound} given for the optimum"
        )
    return objective >= upper_bound


def _solve(
    form: StandardForm,
    node_limit: int,
    warm: BnbWarmStart | None,
    reuse_bases: bool,
    upper_bound: float | None = None,
) -> tuple[Solution, BnbWarmStart]:
    n = form.n_variables
    c_min = -form.c  # the simplex minimises
    integral_data = bool(
        (form.c == np.round(form.c)).all() and form.integer_mask.all()
    )

    incumbent_x: np.ndarray | None = None
    incumbent_value = -np.inf
    root_basis: np.ndarray | None = None
    root_tableau: np.ndarray | None = None
    root_certified = False
    # Chaining, and the cached B^-1 E_eq columns, need the stored root's
    # very matrices; a root with others starts a cache of its own.
    chainable = False
    eq_cache: dict = {}
    if warm is not None and warm.root_arrays is not None:
        a_ub, a_eq, _ = warm.root_arrays
        chainable = _same(form.a_ub, a_ub) and _same(form.a_eq, a_eq)
        if chainable and warm.eq_cache is not None:
            eq_cache = warm.eq_cache
    total_iterations = 0
    nodes_explored = 0
    counter = itertools.count()

    root = _Node(
        priority=-np.inf,
        counter=next(counter),
        lower=np.zeros(n),
        upper=np.full(n, np.inf),
    )
    heap = [root]

    while heap:
        if nodes_explored >= node_limit:
            break
        node = heapq.heappop(heap)

        # A node queued before a better incumbent arrived may now be dead.
        if -node.priority <= incumbent_value + INTEGRALITY_TOLERANCE and (
            incumbent_x is not None and node.priority != -np.inf
        ):
            continue

        result = None
        if node.priority == -np.inf and chainable:
            # Fast path: chain this root from the previous sweep point's
            # root tableau — a rhs-column write instead of a cold solve.
            result = _chained_root(form, warm, c_min, eq_cache)
            if result is not None and result.status is not LpStatus.OPTIMAL:
                # Only a cold solve may declare the root infeasible or
                # unbounded: recovery reads a row's signs against a
                # tolerance, so a verdict from chained state is not final.
                total_iterations += result.iterations
                result = None
        if node.ext is not None:
            # Fast path: extend the parent's final tableau by the one
            # new bound row — no child matrices, no Phase 1.
            tableau, parent_basis, row_pos, column, sigma, rhs = node.ext
            result = warm_solve_insert_row(
                tableau, parent_basis, c_min,
                row_pos, column, sigma, rhs,
                keep_tableau=True,
            )
        if result is None:
            a_ub, b_ub = _bound_rows(form, node.lower, node.upper)
            result = solve_lp(
                c_min, a_ub, b_ub, form.a_eq, form.b_eq,
                keep_tableau=reuse_bases,
            )
        nodes_explored += 1
        total_iterations += result.iterations
        if node.priority == -np.inf:
            root_basis = result.basis
            if (
                reuse_bases
                and result.status is LpStatus.OPTIMAL
                and result.tableau is not None
            ):
                # Any kept tableau chains the next sweep point's root:
                # cold solves negate rows with negative rhs during setup,
                # but the sign cancels inside the reduction (the slack
                # column comes out as ``B^-1 e_i`` in the original row
                # convention either way), so the kept tableau is always
                # convention-consistent with the raw ``b`` vectors.
                root_tableau = result.tableau
                root_certified = result.certified

        if result.status is LpStatus.INFEASIBLE:
            continue
        if result.status is LpStatus.UNBOUNDED:
            return Solution(
                status=SolveStatus.UNBOUNDED,
                stats=SolveStats(
                    simplex_iterations=total_iterations,
                    nodes=nodes_explored,
                    backend="bnb",
                ),
            ), BnbWarmStart(basis=root_basis)

        bound = -result.objective  # back to maximisation
        if integral_data:
            # Integral data ⇒ the optimum is integral; floor the bound.
            bound = math.floor(bound + INTEGRALITY_TOLERANCE)
        if bound <= incumbent_value + INTEGRALITY_TOLERANCE and incumbent_x is not None:
            continue

        # Rounding heuristic: a feasible floored point is an incumbent.
        rounded = _floor_heuristic(form, result.x, node.lower)
        if rounded is not None:
            value = float(form.c @ rounded)
            if value > incumbent_value:
                incumbent_value = value
                incumbent_x = rounded
                if _reaches(form, value, upper_bound):
                    heap.clear()  # proven optimal: every open node is dead
                    break
            if bound <= incumbent_value + INTEGRALITY_TOLERANCE:
                continue

        branch_j = _most_fractional(result.x, form.integer_mask)
        if branch_j is None:
            value = bound if integral_data else -result.objective
            if value > incumbent_value:
                incumbent_value = value
                # Round only integer columns; keep continuous ones exact.
                incumbent_x = result.x.copy()
                mask = form.integer_mask
                incumbent_x[mask] = np.round(incumbent_x[mask])
                if _reaches(form, value, upper_bound):
                    heap.clear()
                    break
            continue

        value = result.x[branch_j]
        down = _Node(
            priority=-bound,
            counter=next(counter),
            lower=node.lower.copy(),
            upper=node.upper.copy(),
        )
        down.upper[branch_j] = math.floor(value)
        up = _Node(
            priority=-bound,
            counter=next(counter),
            lower=node.lower.copy(),
            upper=node.upper.copy(),
        )
        up.lower[branch_j] = math.ceil(value)
        if (
            reuse_bases
            and nodes_explored <= BASIS_REUSE_NODE_LIMIT
            and result.tableau is not None
        ):
            m0 = form.a_ub.shape[0]
            codes = _bound_codes(node.lower, node.upper)
            # Down child: upper-bound row (code 2j); up child:
            # lower-bound row (code 2j+1, rhs -ceil).  A child whose
            # column already carries that row solves cold.
            for child, code, sigma, bound in (
                (down, 2 * branch_j, 1.0, float(math.floor(value))),
                (up, 2 * branch_j + 1, -1.0, float(-math.ceil(value))),
            ):
                pos = int(np.searchsorted(codes, code))
                if pos < codes.shape[0] and codes[pos] == code:
                    continue
                child.ext = (
                    result.tableau, result.basis,
                    m0 + pos, branch_j, sigma, bound,
                )
        heapq.heappush(heap, down)
        heapq.heappush(heap, up)

    stats = SolveStats(
        simplex_iterations=total_iterations,
        nodes=nodes_explored,
        backend="bnb",
    )

    state = BnbWarmStart(
        basis=root_basis,
        root_tableau=root_tableau,
        root_arrays=(
            (form.a_ub, form.a_eq, form.c)
            if root_tableau is not None
            else None
        ),
        eq_cache=eq_cache,
        certified=root_certified,
    )
    if incumbent_x is None:
        if heap:  # ran out of node budget with no incumbent
            return (
                Solution(status=SolveStatus.NODE_LIMIT, stats=stats),
                state,
            )
        return Solution(status=SolveStatus.INFEASIBLE, stats=stats), state
    status = SolveStatus.OPTIMAL
    if heap and nodes_explored >= node_limit:
        status = SolveStatus.NODE_LIMIT
    return Solution(
        status=status,
        objective=float(incumbent_value + form.objective_constant),
        x=incumbent_x,
        variables=form.variables,
        stats=stats,
    ), state
