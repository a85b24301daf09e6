"""Batch-aware ILP solving: structure signatures and warm-started solves.

Sweep-style experiments (Figure 4's contender ladder, the contender-scale
sweep, the model × scenario matrix) solve long runs of ILPs that share
their entire *structure* — variables, constraint rows, integrality — and
differ only in a handful of coefficients (scaled stall budgets, changed
latencies).  Cold-solving each point repeats the expensive part of the
work: the Phase-1 simplex restart and the branch-and-bound tree descent
rediscover what the previous point already knew.

This module is the reuse layer:

* :func:`structure_signature` fingerprints a
  :class:`~repro.ilp.model.StandardForm`'s structure — shapes, sparsity
  patterns, integrality, variable names — while ignoring every
  coefficient value, so all points of one sweep hash alike;
* :class:`BatchSolver` holds one
  :class:`~repro.ilp.branch_and_bound.BnbWarmStart` per structure
  signature and threads it through consecutive
  :func:`~repro.ilp.branch_and_bound.solve_bnb_warm` calls: the previous
  root tableau chains the next root relaxation (the new right-hand side
  written into its rhs column instead of Phase 1; a chained root that is
  not optimal solves cold).  Most sweep roots keep their stored basis:
  when that basis is certified for the instance's matrices and costs
  and the new column is non-negative, the root is read off at it with
  no pivot at all; otherwise a few dual pivots recover it.

Determinism: warm-started solves return **bit-identical** solutions to
cold ones — the simplex lands every LP on the canonical optimal vertex
(see :func:`repro.ilp.simplex._canonical_polish`), making each node
relaxation a function of the instance alone, so the search explores the
same tree and reports the same optimum whatever state the solver pool
holds.  Results therefore never depend on batch order, engine mode or
worker placement; only the iteration counts do.

Per-worker usage: :func:`default_batch_solver` keeps one solver per
thread, so warm state is a property of the process that solves, not of
the schedule.  Once a worker process has solved a structure, every
later instance of it that lands there starts warm, whichever jobs the
engine or the service happened to route to it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading

import numpy as np

from repro.ilp.branch_and_bound import BnbWarmStart, solve_bnb_warm
from repro.ilp.model import IlpModel, StandardForm
from repro.ilp.solution import Solution

__all__ = [
    "BatchSolver",
    "BatchSolverStats",
    "default_batch_solver",
    "reset_default_batch_solver",
    "structure_signature",
]


def _as_form(model_or_form: IlpModel | StandardForm) -> StandardForm:
    if isinstance(model_or_form, IlpModel):
        return model_or_form.standard_form()
    return model_or_form


def structure_signature(model_or_form: IlpModel | StandardForm) -> str:
    """Fingerprint of an instance's constraint *structure*.

    Two instances share a signature iff they have the same variables
    (names, order, integrality, which bounds exist), the same constraint
    shapes and the same sparsity patterns — i.e. iff one is the other
    with different coefficient values.  All points of a sweep over one
    (model, scenario) pair therefore hash alike, which is what keys the
    :class:`BatchSolver` warm-start pool: a basis from one instance is
    structurally valid for every other instance with the same signature.
    """
    form = _as_form(model_or_form)
    # Memoised on the form instance: forms are themselves memoised per
    # model, so every warm solve of a sweep would otherwise re-serialise
    # and re-hash an identical payload (a fixed cost that dominates once
    # the pivots are vectorised).  Forms made by ``StandardForm.with_rhs``
    # carry their source's digest, so the contention-ILP templates hash
    # once per template, not once per instance.
    cached = getattr(form, "_structure_signature", None)
    if cached is not None:
        return cached
    # Hash raw byte buffers instead of a JSON payload: the sparsity
    # masks go in as contiguous boolean arrays (prefixed with their
    # shapes so differently-shaped matrices with equal flattened masks
    # cannot collide), the variable names NUL-separated (identifiers
    # never contain NUL), integrality as one boolean array.
    hasher = hashlib.sha256()
    hasher.update("\x00".join(var.name for var in form.variables).encode())
    hasher.update(
        np.asarray(
            [var.integer for var in form.variables], dtype=bool
        ).tobytes()
    )
    hasher.update(np.isfinite(form.upper).tobytes())
    hasher.update((form.lower > 0).tobytes())
    hasher.update((form.c != 0).tobytes())
    for matrix in (form.a_ub, form.a_eq):
        hasher.update(np.asarray(matrix.shape, dtype=np.int64).tobytes())
        hasher.update(np.ascontiguousarray(matrix != 0).tobytes())
    digest = hasher.hexdigest()
    form._structure_signature = digest
    return digest


@dataclasses.dataclass
class BatchSolverStats:
    """Cumulative effort counters of one :class:`BatchSolver`.

    Attributes:
        solves: total solve calls.
        warm_hits: solves that found reusable state for their structure.
        simplex_iterations: simplex pivots across all solves.
        nodes: branch-and-bound nodes across all solves.
        structures: distinct constraint structures seen.
    """

    solves: int = 0
    warm_hits: int = 0
    simplex_iterations: int = 0
    nodes: int = 0
    structures: int = 0

    @property
    def warm_hit_rate(self) -> float:
        return self.warm_hits / self.solves if self.solves else 0.0


class BatchSolver:
    """Warm-start pool for batches of same-structure ILP solves.

    Holds one :class:`~repro.ilp.branch_and_bound.BnbWarmStart` per
    :func:`structure_signature` and threads it through consecutive
    solves, so a sweep over one (model, scenario) pair pays the Phase-1
    simplex once and answers every later root at the stored basis, or
    recovers it by a few dual pivots.  A signature ignores coefficient
    values, so the pooled state keeps the matrices and costs its cached
    columns and certificate hold for, and a root with other matrices
    starts afresh.

    Solutions are **bit-identical** to cold :meth:`IlpModel.solve`
    calls — the canonical-vertex simplex makes the search path
    state-independent — so holding a solver per worker process is purely
    a performance decision, never a correctness one.

    Not thread-safe; use :func:`default_batch_solver` for a per-thread
    instance.
    """

    def __init__(self) -> None:
        self._pool: dict[str, BnbWarmStart] = {}
        self.stats = BatchSolverStats()

    def __len__(self) -> int:
        return len(self._pool)

    def warm_state(self, signature: str) -> BnbWarmStart | None:
        """The pooled state for one structure (None before its first
        solve) — exposed for tests and diagnostics."""
        return self._pool.get(signature)

    def reset(self) -> None:
        """Drop all pooled state and zero the counters."""
        self._pool.clear()
        self.stats = BatchSolverStats()

    def solve(
        self,
        model: IlpModel,
        *,
        node_limit: int = 100_000,
        upper_bound: float | None = None,
    ) -> Solution:
        """Solve ``model`` with warm-start state for its structure.

        Mirrors ``model.solve(backend="bnb")`` — including the
        feasibility re-check of the returned point
        (:meth:`~repro.ilp.model.IlpModel.recheck`) — while reusing the
        pooled root state of the model's structure signature and
        banking the refreshed state for the next same-structure solve.

        ``upper_bound``, when given, is a proven upper bound on the
        model's optimum (a contender-scale sweep passes its
        time-composable ceiling): branch-and-bound stops once its
        incumbent reaches it.  The solution is unchanged, only its
        stats shrink (see
        :func:`~repro.ilp.branch_and_bound.solve_bnb_warm`).
        """
        form = model.standard_form()
        signature = structure_signature(form)
        warm = self._pool.get(signature)
        if warm is None:
            self.stats.structures += 1
        solution, state = solve_bnb_warm(
            form, warm, node_limit=node_limit, upper_bound=upper_bound
        )
        if warm is not None and state.basis is None:
            # A solve that reached no root produces no fresh state; keep
            # the pooled one whole.  Its root tableau, matrices, cached
            # B^-1 E_eq columns and certificate all belong to its basis,
            # so restoring some without the others would chain from
            # inconsistent state.
            state = warm
        self._pool[signature] = state
        self.stats.solves += 1
        self.stats.warm_hits += 1 if warm is not None else 0
        self.stats.simplex_iterations += solution.stats.simplex_iterations
        self.stats.nodes += solution.stats.nodes

        model.recheck(solution, "warm-started solve")
        return solution


_LOCAL = threading.local()


def default_batch_solver() -> BatchSolver:
    """The per-thread solver the ILP-backed models share.

    Every solve in a worker process (or a serial run) reuses the state
    this solver accumulates.  The pool is per thread rather than per
    process because :class:`BatchSolver` is not thread-safe, and pull
    workers may share one interpreter as threads (the service tests and
    ``benchmarks/bench_service_queue.py`` run them that way).
    """
    solver = getattr(_LOCAL, "solver", None)
    if solver is None:
        solver = BatchSolver()
        _LOCAL.solver = solver
    return solver


def reset_default_batch_solver() -> None:
    """Drop the calling thread's pooled state (tests, benchmarks)."""
    solver = getattr(_LOCAL, "solver", None)
    if solver is not None:
        solver.reset()
