"""Scalar simplex kernels: the parity oracles of ``repro.ilp.simplex``.

Each function is the per-row (or per-column) Python loop the library's
whole-array kernel replaced, or, for the canonical polish, the
full-matrix check the library's quick exit screens.  The kernel parity
tests compare them on random inputs, and the whole-solve test
monkeypatches them into ``repro.ilp.simplex`` in place of ``_pivot``,
``_ratio_test``, ``_entering_index`` and ``_canonical_polish``; pivot
sequence, iteration count and final vertex bytes must all stay the same.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IlpNumericalError
from repro.ilp import simplex
from repro.ilp.simplex import TOLERANCE


def reference_pivot(
    tableau: np.ndarray, basis: np.ndarray, row: int, col: int
) -> None:
    """Make column ``col`` basic in row ``row``, one row at a time."""
    pivot_value = tableau[row, col]
    if abs(pivot_value) <= TOLERANCE:
        raise IlpNumericalError(
            f"pivot on a (near-)zero element at row {row}, column {col} "
            f"(|pivot| = {abs(pivot_value):.3e} <= {TOLERANCE:g})"
        )
    tableau[row] /= pivot_value
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def reference_ratio_test(
    tableau: np.ndarray, basis: np.ndarray, entering: int
) -> int:
    """Primal ratio test with Bland tie-break, scanning rows in order.

    Returns the leaving row, or ``-1`` when the column is unbounded.
    """
    best_ratio = np.inf
    leaving = -1
    for i in range(tableau.shape[0]):
        coef = tableau[i, entering]
        if coef > TOLERANCE:
            ratio = tableau[i, -1] / coef
            if ratio < best_ratio - TOLERANCE or (
                abs(ratio - best_ratio) <= TOLERANCE
                and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
    return leaving


def reference_entering_index(reduced: np.ndarray) -> int:
    """Bland entering scan: the smallest column index with a negative
    reduced cost, or ``-1``."""
    for j, r in enumerate(reduced):
        if r < -TOLERANCE:
            return j
    return -1


def reference_canonical_polish(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    n: int,
    iteration_budget: int,
    reduced0: np.ndarray | None = None,
) -> int:
    """Move an optimal basis to the lexicographically greatest optimal
    vertex, building the whole ``(n + 1) x cols`` reduced-cost matrix on
    every call.

    Row 0 holds the objective's reduced costs and row ``1 + k`` those of
    the coordinate objective ``e_k``; a column is eligible for step
    ``k`` when it improves ``x_k`` while every earlier row stays within
    tolerance.  The globally smallest active step is taken after each
    pivot.  Pivots go through ``repro.ilp.simplex``'s ``_ratio_test`` and
    ``_pivot``, looked up at call time, so the whole-solve test drives
    this oracle with whichever kernels it swapped in.  Returns the
    number of polish pivots.
    """
    m, width = tableau.shape
    cols = width - 1
    if reduced0 is None:
        reduced0 = cost[:-1] - cost[basis] @ tableau[:, :-1]
    reduced = np.zeros((n + 1, cols))
    reduced[0] = reduced0
    coords = np.arange(n)
    reduced[coords + 1, coords] = 1.0
    structural = basis < n
    if np.any(structural):
        reduced[1 + basis[structural]] -= tableau[structural, :-1]

    iterations = 0
    abandoned = np.zeros(n, dtype=bool)  # unbounded-face coordinates
    while True:
        small = np.abs(reduced) <= TOLERANCE
        locked_ok = np.logical_and.accumulate(small[:-1], axis=0)
        eligible = (reduced[1:] > TOLERANCE) & locked_ok
        eligible[abandoned] = False
        active = np.flatnonzero(eligible.any(axis=1))
        if active.size == 0:
            return iterations
        if iterations >= iteration_budget:
            raise IlpNumericalError(
                f"canonicalisation exceeded {iteration_budget} pivots; "
                "instance is numerically pathological"
            )
        step = int(active[0])
        entering = int(np.flatnonzero(eligible[step])[0])

        leaving = simplex._ratio_test(tableau, basis, entering)
        if leaving < 0:
            abandoned[step] = True
            continue

        simplex._pivot(tableau, basis, leaving, entering)
        reduced -= reduced[:, entering : entering + 1] * tableau[
            leaving, :-1
        ]
        iterations += 1
