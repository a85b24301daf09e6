"""Scalar simplex kernels: the parity oracles of ``repro.ilp.simplex``.

Each function is the per-row (or per-column) Python loop the library's
whole-array kernel replaced.  The kernel parity tests compare them on
random inputs, and the whole-solve test monkeypatches them into
``repro.ilp.simplex`` in place of ``_pivot``, ``_ratio_test`` and
``_entering_index``; pivot sequence, iteration count and final vertex
bytes must all stay the same.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IlpNumericalError
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
