"""Dense two-phase primal simplex for the LP relaxations.

The branch-and-bound MILP solver (:mod:`repro.ilp.branch_and_bound`) needs a
reliable LP oracle.  The instances produced by the contention models are
tiny (tens of variables and constraints), so a dense tableau simplex with
Bland's anti-cycling rule is both simple and robust; no factorisation or
sparsity machinery is warranted.

The entry point :func:`solve_lp` accepts the standard "computational form"

    minimise    c @ x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                x >= 0

(maximisation is handled by the caller negating ``c``).  General variable
bounds are reduced to this form by :mod:`repro.ilp.model`.

Two properties serve the batch-solving layer (:mod:`repro.ilp.batch`):

* **tableau extension** — ``solve_lp(..., keep_tableau=True)`` hands back
  the final reduced tableau and basis, and the ``warm_solve_*`` entry
  points re-optimise an edited copy of it (one added bound row, or a
  new right-hand column) with a few dual-simplex pivots instead of a
  Phase-1 restart;
* **canonical vertices** — every optimal solve finishes on the
  lexicographically greatest optimal point, so the reported vertex is a
  function of the instance alone, never of the pivot path.  Warm and
  cold solves of one instance therefore return bit-identical results,
  which is what lets warm-started sweeps share solver state without
  influencing any artefact.

Branch-and-bound pays per node more than per pivot, so three shortcuts
keep a node cheap without changing any pivot or result:

* **child screen** — a branching child whose reduced bound row is
  violated with no negative coefficient, under a parent with no
  violated row, is the dual simplex's immediate ``INFEASIBLE``;
  :func:`warm_solve_insert_row` answers it from that one row, without
  building the extended tableau;
* **polish quick exit** — :func:`_canonical_polish` first tests only
  the nonbasic columns whose objective reduced cost vanishes (the only
  ones that can ever be eligible) and returns at once when none is;
  the full reduced-cost matrix is built only when a pivot is due;
* **same-basis roots** — a recovery that ends with no polish pivot
  marks its result :attr:`LpResult.certified`, and
  :func:`warm_solve_rhs` answers a new non-negative right-hand column
  at such a basis without recovering, at 0 iterations.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.errors import IlpNumericalError

#: Feasibility / optimality tolerance of the pivoting rules.
TOLERANCE = 1e-9

#: Hard cap on the simplex pivots of one solve (both phases, or a warm
#: re-solve's dual and primal pivots together); Bland's rule guarantees
#: finite termination, this guards against numerical stalls on
#: pathological input.
MAX_ITERATIONS = 20_000


class LpStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclasses.dataclass(frozen=True)
class LpResult:
    """Result of :func:`solve_lp`.

    Attributes:
        status: solve outcome.
        x: primal values of the *original* variables (empty on failure).
        objective: objective value ``c @ x`` (minimisation).
        iterations: simplex pivots performed across both phases.
        basis: the final basis (column indices into ``[x | slacks]``,
            one per constraint row) when the solve produced one; it
            pairs with :attr:`tableau` for the extension entry points.
            Entries ``>= n + m_ub`` denote residual artificial columns
            pinned in degenerate rows.
        tableau: the final reduced tableau over ``[x | slacks | rhs]``
            (artificial columns trimmed), captured only when the solve
            was asked to ``keep_tableau``.  Branch-and-bound extends it
            in place of refactorising a child instance from scratch
            (see :func:`warm_solve_insert_row`).
        certified: set on an optimal re-solve whose final basis had no
            reduced cost below ``-TOLERANCE`` and made the canonical
            polish pivot zero times.  Both facts read only the basis,
            the tableau's ``[x | slacks]`` block and the costs, so
            :func:`warm_solve_rhs` may answer a new right-hand side at
            this basis directly (see there).
    """

    status: LpStatus
    x: np.ndarray
    objective: float
    iterations: int
    basis: np.ndarray | None = None
    tableau: np.ndarray | None = None
    certified: bool = False


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Perform one pivot: make column ``col`` basic in row ``row``.

    The row elimination is one broadcast rank-1 update instead of a
    per-row Python loop; every element still sees the identical
    ``x - factor * pivot_row`` IEEE operations, so tableaus stay
    bit-identical to the scalar loop in ``tests/oracles/simplex_kernels.py``
    (rows whose factor is an exact zero subtract an exact zero, which
    cannot change a value).
    """
    pivot_value = tableau[row, col]
    if abs(pivot_value) <= TOLERANCE:
        raise IlpNumericalError(
            f"pivot on a (near-)zero element at row {row}, column {col} "
            f"(|pivot| = {abs(pivot_value):.3e} <= {TOLERANCE:g})"
        )
    tableau[row] /= pivot_value
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _ratio_test(
    tableau: np.ndarray, basis: np.ndarray, entering: int
) -> int:
    """Primal ratio test (Bland tie-break on smallest basis index).

    The candidate rows and their ratios are computed as whole-array
    operations; the tolerance fold over the (few) candidates then runs
    on plain Python floats in the original row order, reproducing the
    sequential accept/reject semantics of the scalar row scan in
    ``tests/oracles/simplex_kernels.py`` exactly — including its
    chained-tolerance tie behaviour.  Returns the leaving row index, or
    ``-1`` when the column is unbounded.
    """
    column = tableau[:, entering]
    candidates = (column > TOLERANCE).nonzero()[0]
    if candidates.size == 0:
        return -1
    ratios = (tableau[candidates, -1] / column[candidates]).tolist()
    bases = basis[candidates].tolist()
    rows = candidates.tolist()
    leaving = rows[0]
    best_ratio = ratios[0]
    best_basis = bases[0]
    for k in range(1, len(rows)):
        ratio = ratios[k]
        if ratio < best_ratio - TOLERANCE or (
            abs(ratio - best_ratio) <= TOLERANCE and bases[k] < best_basis
        ):
            best_ratio = ratio
            best_basis = bases[k]
            leaving = rows[k]
    return leaving


def _entering_index(reduced: np.ndarray) -> int:
    """Bland entering scan as one masked ``nonzero`` (first negative
    reduced cost); semantics identical to the scalar scan in
    ``tests/oracles/simplex_kernels.py``."""
    negative = (reduced < -TOLERANCE).nonzero()[0]
    return int(negative[0]) if negative.size else -1


def _iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    iteration_budget: int,
) -> tuple[LpStatus, int, np.ndarray | None]:
    """Run simplex pivots until optimality/unboundedness.

    Uses Bland's smallest-index rule for both entering and leaving
    variables, which precludes cycling at the price of a few extra pivots —
    irrelevant at our problem sizes.

    On optimality additionally returns the final reduced-cost row (it was
    just computed to prove optimality, and the canonical polish needs
    exactly this vector — handing it over saves a matrix-vector product
    per solve).
    """
    iterations = 0
    while True:
        if iterations >= iteration_budget:
            raise IlpNumericalError(
                f"simplex exceeded {iteration_budget} pivots; instance is "
                "numerically pathological"
            )
        # Reduced costs r = cost - cost_B @ B^-1 A (tableau already holds
        # B^-1 A, so this is a single matrix-vector product).
        cost_basis = cost[basis]
        reduced = cost[:-1] - cost_basis @ tableau[:, :-1]

        entering = _entering_index(reduced)
        if entering < 0:
            return LpStatus.OPTIMAL, iterations, reduced

        leaving = _ratio_test(tableau, basis, entering)
        if leaving < 0:
            return LpStatus.UNBOUNDED, iterations, None

        _pivot(tableau, basis, leaving, entering)
        iterations += 1


def _dual_iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    iteration_budget: int,
) -> tuple[LpStatus, int]:
    """Run dual-simplex pivots until primal feasibility (or infeasibility).

    Expects a dual-feasible starting basis (no negative reduced cost);
    used by the tableau-extension paths to recover from right-hand-side
    changes without a Phase-1 restart.  Bland's rule on both the leaving
    basic variable (smallest basis index among infeasible rows) and the
    entering column (smallest index among ratio-test ties) precludes
    cycling, mirroring the primal iterator.

    The reduced-cost row is computed once and then maintained by the
    same rank-1 update a pivot applies to any tableau row — the entering
    column's reduced cost is zeroed exactly like a left-hand column.
    This path only runs warm (cold solves never dual-pivot), so its
    per-pivot cost lands entirely on the warm side of the cold/warm
    ledger.
    """
    iterations = 0
    reduced = None
    while True:
        if iterations >= iteration_budget:
            raise IlpNumericalError(
                f"dual simplex exceeded {iteration_budget} pivots; "
                "instance is numerically pathological"
            )
        # Leaving row: smallest basis index among primal-infeasible rows
        # (basis entries are unique, so argmin is unambiguous).
        violated = (tableau[:, -1] < -TOLERANCE).nonzero()[0]
        if violated.size == 0:
            return LpStatus.OPTIMAL, iterations
        leaving = int(violated[np.argmin(basis[violated])])

        if reduced is None:
            reduced = cost[:-1] - cost[basis] @ tableau[:, :-1]
        # Dual ratio test: candidates are the row's negative columns; the
        # fold accepts the first candidate, then only strict (beyond-
        # tolerance) improvements — exactly the scalar scan's semantics
        # (its tie clause only ever fired before the first acceptance).
        row = tableau[leaving, :-1]
        candidates = (row < -TOLERANCE).nonzero()[0]
        if candidates.size == 0:
            # A violated row with no negative coefficient certifies
            # primal infeasibility.
            return LpStatus.INFEASIBLE, iterations
        ratios = (reduced[candidates] / -row[candidates]).tolist()
        columns = candidates.tolist()
        entering = columns[0]
        best_ratio = ratios[0]
        for k in range(1, len(columns)):
            if ratios[k] < best_ratio - TOLERANCE:
                best_ratio = ratios[k]
                entering = columns[k]

        _pivot(tableau, basis, leaving, entering)
        reduced -= reduced[entering] * tableau[leaving, :-1]
        iterations += 1


def _polish_rows(
    tableau: np.ndarray,
    basis: np.ndarray,
    n: int,
    reduced0: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    """The canonical polish's reduced costs over ``columns``.

    Row 0 holds the objective's reduced costs; row ``1 + k`` those of
    the coordinate objective ``e_k``: a unit entry in column ``k``, less
    the tableau row of ``x_k`` when it is basic.
    """
    rows = np.zeros((n + 1, columns.size))
    rows[0] = reduced0[columns]
    units = (columns < n).nonzero()[0]
    rows[1 + columns[units], units] = 1.0
    structural = basis < n
    # Basis entries are unique, so fancy-indexed subtraction is safe.
    rows[1 + basis[structural]] -= tableau[:, columns][structural]
    return rows


def _eligible(rows: np.ndarray) -> np.ndarray:
    """Polish eligibility: entry ``[k, j]`` is set when column ``j``
    improves ``x_k`` while leaving the objective and every coordinate
    before ``k`` unchanged (reduced costs within tolerance)."""
    small = np.abs(rows) <= TOLERANCE
    locked_ok = np.logical_and.accumulate(small[:-1], axis=0)
    return (rows[1:] > TOLERANCE) & locked_ok


def _canonical_polish(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    n: int,
    iteration_budget: int,
    reduced0: np.ndarray | None = None,
) -> int:
    """Move an optimal basis to the *canonical* optimal vertex.

    Degenerate instances (the contention ILPs' symmetric pf0/pf1 columns)
    have many optimal vertices, and which one a simplex run ends on
    depends on its pivot path — cold Phase-1/2 and a warm-started
    recovery would report different (equally optimal) points.  To make
    the reported point a function of the *instance only*, both paths
    finish here: sequentially maximise ``x_0``, then ``x_1``, … over the
    optimal face, pivoting only on columns whose reduced costs vanish
    for the objective and for every already-locked coordinate.  The
    lexicographically greatest optimal solution is unique, so any
    optimal starting basis converges to the same vertex — the property
    the warm-started batch solver's bit-identical-to-cold guarantee
    rests on.

    Most calls pivot zero times, and a quick exit answers those without
    the full ``(n + 1) x cols`` reduced-cost matrix: basic columns are
    exact unit columns, so every one of their reduced costs is exactly
    zero and none is ever eligible.  Only the nonbasic columns with a
    vanishing objective reduced cost (a handful) can be, and the same
    eligibility test on just those columns decides whether any pivot is
    due.  ``tests/oracles/simplex_kernels.py`` keeps the full-matrix
    check as the oracle.  An unbounded face direction (impossible for
    the bounded contention instances) simply leaves that coordinate
    as-is.

    ``reduced0``, when given, must be the objective's reduced-cost row
    for the *current* tableau state — callers coming straight from
    :func:`_iterate` already hold it, and reusing it skips recomputing
    the same matrix-vector product.

    Returns the number of polish pivots, counted against the shared
    budget.
    """
    if reduced0 is None:
        reduced0 = cost[:-1] - cost[basis] @ tableau[:, :-1]
    # Quick exit: only nonbasic columns with a vanishing objective
    # reduced cost can be eligible (see above).
    flat = np.abs(reduced0) <= TOLERANCE
    flat[basis] = False
    if not _eligible(
        _polish_rows(tableau, basis, n, reduced0, flat.nonzero()[0])
    ).any():
        return 0
    # All rows evolve with the tableau so that eligibility stays
    # elementwise comparisons.
    reduced = _polish_rows(
        tableau, basis, n, reduced0, np.arange(tableau.shape[1] - 1)
    )

    # Face pivots leave every already-locked row untouched (the entering
    # column's locked reduced costs are ~0), so a step that went quiet
    # can never reactivate.  Taking the globally smallest active step
    # after each pivot therefore reproduces the sequential
    # step-0-to-completion, then step-1, ... order exactly.
    iterations = 0
    abandoned = np.zeros(n, dtype=bool)  # unbounded-face coordinates
    while True:
        eligible = _eligible(reduced)
        eligible[abandoned] = False
        active = eligible.any(axis=1).nonzero()[0]
        if active.size == 0:
            return iterations
        if iterations >= iteration_budget:
            raise IlpNumericalError(
                f"canonicalisation exceeded {iteration_budget} pivots; "
                "instance is numerically pathological"
            )
        # Bland: smallest coordinate still improvable, then the smallest
        # eligible entering column.
        step = int(active[0])
        entering = int(eligible[step].nonzero()[0][0])

        leaving = _ratio_test(tableau, basis, entering)
        if leaving < 0:
            # Unbounded face direction: x_step cannot be canonicalised;
            # leave it (still locked for later steps) and move on.
            abandoned[step] = True
            continue

        _pivot(tableau, basis, leaving, entering)
        reduced -= reduced[:, entering : entering + 1] * tableau[
            leaving, :-1
        ]
        iterations += 1


def _extract(
    tableau: np.ndarray, basis: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, float]:
    """Read the primal point of the original variables off the tableau."""
    n = c.shape[0]
    x = np.zeros(n)
    structural = basis < n
    # Basis entries are unique, so the fancy-indexed scatter is safe.
    x[basis[structural]] = tableau[structural, -1]
    tiny = np.abs(x) < TOLERANCE
    x[tiny] = np.abs(x[tiny])
    return x, float(c @ x)


def _recover(
    tableau: np.ndarray,
    basis: np.ndarray,
    c: np.ndarray,
    keep_tableau: bool,
) -> LpResult | None:
    """Re-optimise an already-reduced ``[x | slacks | rhs]`` tableau.

    The shared tail of every extension path: dual-simplex pivots restore
    primal feasibility (right-hand sides moved), primal pivots restore
    optimality (they rarely fire — the objective did not move), and the
    canonical polish lands on the lexicographically greatest optimal
    vertex so the result matches a cold solve bit for bit.  The callers
    hand over an edit of an *optimal* tableau, so there is no
    dual-feasibility screen: a one-row extension is dual-feasible by
    construction (the new slack's reduced cost is exactly zero, every
    other column's is unchanged), and correctness never leans on it —
    an infeasibility verdict is a primal certificate (a violated row
    with no negative coefficient), the primal pivots re-establish
    optimality, and the polish re-verifies it.  ``None`` signals the
    caller to fall back to a cold two-phase solve (pivoting stalled
    numerically).  Mutates ``tableau`` and ``basis`` in place.
    """
    n = c.shape[0]
    total_cols = tableau.shape[1] - 1
    cost = np.zeros(total_cols + 1)
    cost[:n] = c
    iterations = 0
    try:
        if (tableau[:, -1] < -TOLERANCE).any():
            status, its = _dual_iterate(tableau, basis, cost, MAX_ITERATIONS)
            iterations += its
            if status is LpStatus.INFEASIBLE:
                return LpResult(
                    LpStatus.INFEASIBLE,
                    np.empty(0),
                    np.inf,
                    iterations,
                    basis=basis.copy(),
                )
        status, its, reduced_row = _iterate(
            tableau, basis, cost, MAX_ITERATIONS - iterations
        )
        iterations += its
        if status is LpStatus.UNBOUNDED:
            return LpResult(
                LpStatus.UNBOUNDED,
                np.empty(0),
                -np.inf,
                iterations,
                basis=basis.copy(),
            )
        polish = _canonical_polish(
            tableau,
            basis,
            cost,
            n,
            MAX_ITERATIONS - iterations,
            reduced0=reduced_row,
        )
        iterations += polish
    except IlpNumericalError:
        return None
    x, objective = _extract(tableau, basis, c)
    return LpResult(
        LpStatus.OPTIMAL,
        x,
        objective,
        iterations,
        basis=basis.copy(),
        tableau=tableau if keep_tableau else None,
        certified=polish == 0,
    )


def warm_solve_insert_row(
    tableau: np.ndarray,
    basis: np.ndarray,
    c: np.ndarray,
    row_position: int,
    column: int,
    sigma: float,
    rhs: float,
    *,
    keep_tableau: bool = False,
) -> LpResult | None:
    """Solve an instance that adds one bound row to a solved parent.

    Branch-and-bound children differ from their parent by a single
    variable-bound inequality ``sigma * x[column] <= rhs`` (its own
    slack enters basic).  Instead of assembling the child matrices and
    refactorising the remapped parent basis (``B^-1 [A | S | b]``), this
    extends the parent's *final tableau* directly: insert the new slack
    column (zero in every old row), reduce the new row against the
    current basis — the raw row touches a single structural column, so
    the reduction is at most one rank-1 subtraction — and hand the
    result to the shared dual-simplex recovery.  The canonical polish
    makes the answer independent of this shortcut.  A child the dual
    simplex would declare infeasible at 0 pivots (its bound row the only
    violated row, with no negative coefficient) is answered from that
    row alone, before the extended tableau is built.  Inputs are not
    mutated; ``None`` falls back to a cold solve.

    Args:
        tableau: parent's final ``[x | slacks | rhs]`` tableau.
        basis: parent's final basis (no artificial entries).
        c: objective of the original variables (unchanged by bounds).
        row_position: index among all rows where the bound row sits in
            the child's (sorted) row order; its slack column index is
            ``n + row_position``.
        column: the bounded structural variable.
        sigma: ``+1.0`` for an upper-bound row, ``-1.0`` for a lower.
        rhs: the bound row's right-hand side (``-ceil`` for lowers).
    """
    n = c.shape[0]
    column_at = n + row_position
    m, width = tableau.shape

    new_row = np.zeros(width + 1)
    new_row[column] = sigma
    new_row[column_at] = 1.0
    new_row[-1] = rhs
    hit = (basis == column).nonzero()[0]
    if hit.size:
        # ``column`` is basic: eliminate it via its (identity) row.  The
        # inserted slack column is zero in that row, so the 1 stays
        # exact, and the slice arithmetic below performs the identical
        # IEEE subtraction an insert-then-subtract would.
        source = tableau[int(hit[0])]
        new_row[:column_at] -= sigma * source[:column_at]
        new_row[column_at + 1 :] -= sigma * source[column_at:]

    shifted = np.where(basis >= column_at, basis + 1, basis)
    new_basis = np.empty(m + 1, dtype=basis.dtype)
    new_basis[:row_position] = shifted[:row_position]
    new_basis[row_position] = column_at
    new_basis[row_position + 1 :] = shifted[row_position:]
    if (
        new_row[-1] < -TOLERANCE
        and not (new_row[:-1] < -TOLERANCE).any()
        and not (tableau[:, -1] < -TOLERANCE).any()
    ):
        # The dual simplex's verdict at 0 pivots: the bound row is the
        # only violated row, so it leaves first, and with no negative
        # coefficient it certifies infeasibility.  Answer it here,
        # without the extended tableau.
        return LpResult(
            LpStatus.INFEASIBLE, np.empty(0), np.inf, 0, basis=new_basis
        )

    # One allocation instead of two ``np.insert`` passes: copy the four
    # quadrants around the inserted row/column, zero the new slack
    # column, drop the reduced row in.
    extended = np.empty((m + 1, width + 1))
    extended[:row_position, :column_at] = tableau[:row_position, :column_at]
    extended[:row_position, column_at] = 0.0
    extended[:row_position, column_at + 1 :] = tableau[
        :row_position, column_at:
    ]
    extended[row_position] = new_row
    extended[row_position + 1 :, :column_at] = tableau[
        row_position:, :column_at
    ]
    extended[row_position + 1 :, column_at] = 0.0
    extended[row_position + 1 :, column_at + 1 :] = tableau[
        row_position:, column_at:
    ]
    return _recover(extended, new_basis, c, keep_tableau)


def warm_solve_rhs(
    tableau: np.ndarray,
    basis: np.ndarray,
    c: np.ndarray,
    rhs: np.ndarray,
    *,
    keep_tableau: bool = False,
    certified: bool = False,
) -> LpResult | None:
    """Solve an instance whose reduced right-hand column is now ``rhs``.

    For callers that hold ``B^-1 @ b`` for the new ``b`` — the batch
    layer's root-to-root chaining assembles it from the tableau's own
    slack columns (inequality rows) plus a cached ``B^-1 E_eq`` solve
    (equality rows), turning a sweep-point root solve into one column
    write and a few dual pivots.  Inputs are not mutated; ``None``
    falls back to a cold solve.

    ``certified`` pledges that ``tableau`` and ``basis`` are those of an
    :attr:`LpResult.certified` result, re-solved against the same costs
    ``c``.  When ``rhs`` then has no entry below ``-TOLERANCE``, the
    recovery would make no dual pivot, find no negative reduced cost and
    make no polish pivot, so the answer is read off at this basis
    without it: the vertex, basis and tableau :func:`_recover` returns,
    at 0 iterations.
    """
    extended = tableau.copy()
    extended[:, -1] = rhs
    if certified and not (rhs < -TOLERANCE).any():
        x, objective = _extract(extended, basis, c)
        return LpResult(
            LpStatus.OPTIMAL,
            x,
            objective,
            0,
            basis=basis.copy(),
            tableau=extended if keep_tableau else None,
            certified=True,
        )
    return _recover(extended, basis.copy(), c, keep_tableau)


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    *,
    keep_tableau: bool = False,
) -> LpResult:
    """Minimise ``c @ x`` subject to ``a_ub x <= b_ub``, ``a_eq x == b_eq``,
    ``x >= 0`` with a two-phase dense simplex.

    Args:
        c: objective coefficients, shape ``(n,)``.
        a_ub: inequality matrix, shape ``(m_ub, n)`` (may be empty).
        b_ub: inequality right-hand sides, shape ``(m_ub,)``.
        a_eq: equality matrix, shape ``(m_eq, n)`` (may be empty).
        b_eq: equality right-hand sides, shape ``(m_eq,)``.
        keep_tableau: attach the final reduced tableau (artificial
            columns trimmed) to an optimal result, for
            :func:`warm_solve_insert_row` / :func:`warm_solve_rhs`
            extension.  Skipped when residual artificials are pinned in
            the basis — such a tableau cannot seed an extension.

    Returns:
        An :class:`LpResult`; ``x`` has shape ``(n,)`` when optimal.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.empty((0, n))
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.empty((0, n))
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    if m == 0:
        # No constraints: optimum is at the origin unless some cost is
        # negative, in which case the LP is unbounded below.
        if np.any(c < -TOLERANCE):
            return LpResult(
                LpStatus.UNBOUNDED,
                np.empty(0),
                -np.inf,
                0,
                basis=np.empty(0, dtype=int),
            )
        return LpResult(
            LpStatus.OPTIMAL,
            np.zeros(n),
            0.0,
            0,
            basis=np.empty(0, dtype=int),
        )

    # Assemble [A | slacks | artificials | rhs] with all rhs >= 0.
    rows = np.vstack([a_ub, a_eq])
    rhs = np.concatenate([b_ub, b_eq])
    slack_block = np.vstack(
        [np.eye(m_ub), np.zeros((m_eq, m_ub))]
    ) if m_ub else np.empty((m, 0))

    negative = rhs < 0
    rows[negative] *= -1.0
    rhs = rhs.copy()
    rhs[negative] *= -1.0
    if m_ub:
        slack_block[negative] *= -1.0

    # A slack column serves as the initial basic variable of its row only
    # when it still has coefficient +1 (i.e. the row was not negated).
    needs_artificial = np.ones(m, dtype=bool)
    basis = np.full(m, -1, dtype=int)
    n_slack = m_ub
    for i in range(m_ub):
        if not negative[i]:
            needs_artificial[i] = False
            basis[i] = n + i

    artificial_rows = np.flatnonzero(needs_artificial)
    n_art = artificial_rows.shape[0]
    art_block = np.zeros((m, n_art))
    for k, i in enumerate(artificial_rows):
        art_block[i, k] = 1.0
        basis[i] = n + n_slack + k

    tableau = np.hstack(
        [rows, slack_block, art_block, rhs.reshape(-1, 1)]
    )
    total_cols = n + n_slack + n_art

    iterations = 0

    # ------------------------------------------------------------------
    # Phase 1: minimise the sum of artificials.
    # ------------------------------------------------------------------
    if n_art:
        phase1_cost = np.zeros(total_cols + 1)
        phase1_cost[n + n_slack : n + n_slack + n_art] = 1.0
        status, its, _ = _iterate(tableau, basis, phase1_cost, MAX_ITERATIONS)
        iterations += its
        if status is not LpStatus.OPTIMAL:  # pragma: no cover - defensive
            raise IlpNumericalError("phase 1 cannot be unbounded")
        infeasibility = phase1_cost[basis] @ tableau[:, -1]
        if infeasibility > 1e-7:
            return LpResult(
                LpStatus.INFEASIBLE,
                np.empty(0),
                np.inf,
                iterations,
                basis=basis.copy(),
            )

        # Drive any residual artificial out of the basis (degenerate rows).
        # Pivoting row i only changes basis[i], so the row list computed
        # up front matches the original row-by-row scan.
        for i in np.flatnonzero(basis >= n + n_slack).tolist():
            structural_cols = np.flatnonzero(
                np.abs(tableau[i, : n + n_slack]) > TOLERANCE
            )
            if structural_cols.size:
                _pivot(tableau, basis, i, int(structural_cols[0]))
            # else: redundant row; keep it (harmless, rhs is ~0) with the
            # artificial pinned at zero, excluded from phase-2 pricing.

    # ------------------------------------------------------------------
    # Phase 2: original objective, artificial columns frozen.
    # ------------------------------------------------------------------
    phase2_cost = np.zeros(total_cols + 1)
    phase2_cost[:n] = c
    if n_art:
        # A huge cost keeps the (zero-valued) artificials out of the basis
        # without having to restructure the tableau.
        big = 1.0 + np.abs(c).sum() * 1e6
        phase2_cost[n + n_slack :] = big
    status, its, reduced_row = _iterate(
        tableau, basis, phase2_cost, MAX_ITERATIONS - iterations
    )
    iterations += its
    if status is LpStatus.UNBOUNDED:
        return LpResult(
            LpStatus.UNBOUNDED,
            np.empty(0),
            -np.inf,
            iterations,
            basis=basis.copy(),
        )

    # Land on the canonical optimal vertex so warm re-solves of the same
    # instance report the identical point (see _canonical_polish).
    iterations += _canonical_polish(
        tableau,
        basis,
        phase2_cost,
        n,
        MAX_ITERATIONS - iterations,
        reduced0=reduced_row,
    )
    # Clamp tiny negatives introduced by roundoff (inside _extract).
    x, objective = _extract(tableau, basis, c)
    kept = None
    if keep_tableau and basis.max(initial=0) < n + n_slack:
        # Trim the artificial columns; what remains is the reduced
        # ``[x | slacks | rhs]`` the extension entry points operate on.
        kept = np.hstack([tableau[:, : n + n_slack], tableau[:, -1:]])
    return LpResult(
        LpStatus.OPTIMAL,
        x,
        objective,
        iterations,
        basis=basis.copy(),
        tableau=kept,
    )
