"""Self-contained ILP substrate: expressions, models, simplex, B&B.

The paper formulates its contention model as an Integer Linear Program
(Section 3.5).  This package provides everything needed to state and solve
such programs without external solver dependencies: operator-overloaded
linear expressions, a model builder, a two-phase dense simplex for LP
relaxations, a best-first branch-and-bound MILP solver, and an optional
``scipy.optimize.milp`` backend used for cross-validation.

Batched workloads (sweeps, the model × scenario matrix) additionally get
a warm-start layer (:mod:`repro.ilp.batch`): each process keeps one
solver pool per thread, and consecutive solves of structurally identical
instances chain from the previous root tableau, cutting simplex
iterations several-fold while returning bit-identical solutions
— the simplex always reports the canonical optimal vertex, so solver
state never influences results.  :meth:`IlpModel.solve` is the cold
reference.
"""

from repro.ilp.batch import (
    BatchSolver,
    BatchSolverStats,
    default_batch_solver,
    reset_default_batch_solver,
    structure_signature,
)
from repro.ilp.branch_and_bound import BnbWarmStart, solve_bnb, solve_bnb_warm
from repro.ilp.expr import Constraint, LinExpr, Sense, Var, lin_sum
from repro.ilp.model import IlpModel, StandardForm
from repro.ilp.simplex import LpResult, LpStatus, solve_lp
from repro.ilp.solution import Solution, SolveStats, SolveStatus

__all__ = [
    "BatchSolver",
    "BatchSolverStats",
    "BnbWarmStart",
    "Constraint",
    "IlpModel",
    "LinExpr",
    "LpResult",
    "LpStatus",
    "Sense",
    "Solution",
    "SolveStats",
    "SolveStatus",
    "StandardForm",
    "Var",
    "default_batch_solver",
    "lin_sum",
    "reset_default_batch_solver",
    "solve_bnb",
    "solve_bnb_warm",
    "solve_lp",
    "structure_signature",
]
