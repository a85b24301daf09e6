"""Cross-validation backend based on ``scipy.optimize.milp``.

The bundled branch-and-bound solver is the default (the library must work
standalone and stay inspectable), but every instance can also be handed to
SciPy's HiGHS-based MILP solver.  The test-suite and the solver-ablation
benchmark run both backends on the same instances and assert identical
optima — a strong end-to-end check on the hand-rolled simplex.
"""

from __future__ import annotations

import numpy as np

from repro.ilp.model import StandardForm
from repro.ilp.solution import Solution, SolveStats, SolveStatus


def solve_scipy(form: StandardForm) -> Solution:
    """Solve a :class:`StandardForm` maximisation MILP with SciPy/HiGHS.

    HiGHS runs to a zero relative MIP gap.  Its default gap (1e-4)
    stops at any point within that of the bound and reports success, so
    an "optimal" point could sit below the true worst case and make a
    ``backend="scipy"`` contention bound under-report it.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    constraints = []
    if form.a_ub.size:
        constraints.append(
            LinearConstraint(form.a_ub, -np.inf, form.b_ub)
        )
    if form.a_eq.size:
        constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))

    result = milp(
        c=-form.c,  # scipy minimises
        constraints=constraints,
        integrality=form.integer_mask.astype(int),
        bounds=Bounds(form.lower, form.upper),
        options={"mip_rel_gap": 0.0},
    )

    stats = SolveStats(backend="scipy")
    if result.status == 2:  # infeasible
        return Solution(status=SolveStatus.INFEASIBLE, stats=stats)
    if result.status == 3:  # unbounded
        return Solution(status=SolveStatus.UNBOUNDED, stats=stats)
    if not result.success or result.x is None:
        return Solution(status=SolveStatus.NODE_LIMIT, stats=stats)

    x = np.asarray(result.x, dtype=float)
    x[form.integer_mask] = np.round(x[form.integer_mask])
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=float(form.c @ x + form.objective_constant),
        x=x,
        variables=form.variables,
        stats=stats,
    )
