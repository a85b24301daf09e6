"""Solve results for the ILP substrate."""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Mapping

import numpy as np

from repro.errors import IlpError
from repro.ilp.expr import LinExpr, Var


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"

    @property
    def ok(self) -> bool:
        """Whether a usable (optimal) solution is attached."""
        return self is SolveStatus.OPTIMAL


@dataclasses.dataclass(frozen=True)
class SolveStats:
    """Solver effort statistics, for the solver-ablation benchmark.

    Attributes:
        simplex_iterations: total simplex pivots across all LP solves.
        nodes: branch-and-bound nodes explored (0 for pure LP solves).
        backend: which backend produced the solution.
    """

    simplex_iterations: int = 0
    nodes: int = 0
    backend: str = "bnb"


@dataclasses.dataclass(frozen=True, eq=False)
class Solution:
    """An (attempted) solution of an ILP model.

    The point is kept as the solver's array; :attr:`values`, the
    ``Var``-keyed view, is derived from it on first use.  Solutions
    compare by status, objective, values and stats.

    Attributes:
        status: solve outcome; check :attr:`SolveStatus.ok` before reading
            values.
        objective: objective value at the returned point (maximisation).
        x: the point, one entry per model variable in column order
            (read-only), or ``None`` when no point was found.
        variables: the model variables, in the column order of :attr:`x`.
        stats: solver effort counters.
    """

    status: SolveStatus
    objective: float = 0.0
    x: np.ndarray | None = None
    variables: tuple[Var, ...] = ()
    stats: SolveStats = dataclasses.field(default_factory=SolveStats)

    def __post_init__(self) -> None:
        if self.x is not None:
            self.x.flags.writeable = False

    @functools.cached_property
    def values(self) -> Mapping[Var, float]:
        """Assignment of every model variable (empty without a point)."""
        if self.x is None:
            return {}
        return dict(zip(self.variables, self.x.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return (
            self.status is other.status
            and self.objective == other.objective
            and self.values == other.values
            and self.stats == other.stats
        )

    __hash__ = None  # type: ignore[assignment]

    def require_optimal(self) -> "Solution":
        """Return self, raising :class:`IlpError` unless status is optimal."""
        if not self.status.ok:
            raise IlpError(f"solve did not reach optimality: {self.status.value}")
        return self

    def value(self, item: Var | LinExpr) -> float:
        """Value of a variable or expression at the solution point."""
        self.require_optimal()
        if isinstance(item, Var):
            try:
                return self.values[item]
            except KeyError as exc:
                raise IlpError(
                    f"variable {item.name!r} is not part of this solution"
                ) from exc
        return item.evaluate(self.values)

    def __getitem__(self, item: Var | LinExpr) -> float:
        return self.value(item)

    def int_value(self, item: Var | LinExpr, *, tolerance: float = 1e-6) -> int:
        """Value rounded to the nearest integer, checking integrality."""
        raw = self.value(item)
        rounded = round(raw)
        if abs(raw - rounded) > tolerance:
            raise IlpError(
                f"value {raw} of {item!r} is not integral within {tolerance}"
            )
        return int(rounded)

    def int_values(
        self, columns: np.ndarray, *, tolerance: float = 1e-6
    ) -> list[int]:
        """:meth:`int_value` of the variables in ``columns`` (indices into
        :attr:`x`), read straight off the point."""
        self.require_optimal()
        assert self.x is not None
        raw = self.x[columns].tolist()
        rounded = [round(value) for value in raw]
        for value, near, column in zip(raw, rounded, columns.tolist()):
            if abs(value - near) > tolerance:
                raise IlpError(
                    f"value {value} of {self.variables[column]!r} is not "
                    f"integral within {tolerance}"
                )
        return rounded

    def by_name(self) -> dict[str, float]:
        """Values keyed by variable name (stable for reports/tests)."""
        return {var.name: value for var, value in self.values.items()}
