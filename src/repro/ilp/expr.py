"""Linear expressions and constraints for the ILP substrate.

The ILP-PTAC model of the paper is naturally written as algebra over named
integer variables ("the number of τb code requests to pf0 that interfere
with τa").  This module provides exactly that: :class:`Var` handles with
Python operator overloading building :class:`LinExpr` objects, which compare
into :class:`Constraint` objects.  The aim is that the model-construction
code in :mod:`repro.core.ilp_ptac` reads like the paper's equations.

Example::

    x = Var("x"); y = Var("y")
    c = 3 * x + 2 * y - 1 <= 10        # Constraint(3x + 2y <= 11)
"""

from __future__ import annotations

import dataclasses
import enum
import numbers
from typing import Iterable, Mapping

from repro.errors import IlpError


@dataclasses.dataclass(frozen=True, eq=False)
class Var:
    """A decision variable, identified by name.

    Identity (not name) is used for hashing so two distinct models can reuse
    a name without aliasing; the model builder enforces name uniqueness
    within one model.

    Attributes:
        name: display name, e.g. ``"n[pf0,co,b->a]"``.
        lower: lower bound (``0`` for every variable in the paper's model).
        upper: upper bound or ``None`` for unbounded.
        integer: whether the variable must take integral values.
    """

    name: str
    lower: float = 0.0
    upper: float | None = None
    integer: bool = True

    def __post_init__(self) -> None:
        if self.upper is not None and self.upper < self.lower:
            raise IlpError(
                f"variable {self.name!r}: upper bound {self.upper} below "
                f"lower bound {self.lower}"
            )

    # -- expression building ------------------------------------------------
    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: object) -> "LinExpr":
        return self._as_expr() + other

    __radd__ = __add__

    def __sub__(self, other: object) -> "LinExpr":
        return self._as_expr() - other

    def __rsub__(self, other: object) -> "LinExpr":
        return (-self._as_expr()) + other

    def __mul__(self, other: object) -> "LinExpr":
        return self._as_expr() * other

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    # -- constraint building -------------------------------------------------
    def __le__(self, other: object) -> "Constraint":
        return self._as_expr() <= other

    def __ge__(self, other: object) -> "Constraint":
        return self._as_expr() >= other

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]
        return self._as_expr() == other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bounds = f"[{self.lower}, {self.upper if self.upper is not None else 'inf'}]"
        kind = "int" if self.integer else "cont"
        return f"Var({self.name}, {kind} {bounds})"


def _coerce(value: object) -> "LinExpr":
    """Convert a Var / number / LinExpr into a LinExpr."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, Var):
        return value._as_expr()
    if isinstance(value, numbers.Real):
        return LinExpr({}, float(value))
    raise IlpError(f"cannot use {value!r} in a linear expression")


class LinExpr:
    """An affine expression ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("_terms", "_constant")

    def __init__(
        self, terms: Mapping[Var, float] | None = None, constant: float = 0.0
    ) -> None:
        self._terms: dict[Var, float] = {
            v: float(c) for v, c in (terms or {}).items() if c != 0.0
        }
        self._constant = float(constant)

    @property
    def terms(self) -> dict[Var, float]:
        """Mapping of variable to coefficient (zero coefficients dropped)."""
        return dict(self._terms)

    @property
    def constant(self) -> float:
        """The affine constant."""
        return self._constant

    def variables(self) -> tuple[Var, ...]:
        """Variables appearing with non-zero coefficient."""
        return tuple(self._terms)

    def coefficient(self, var: Var) -> float:
        """Coefficient of ``var`` (0.0 when absent)."""
        return self._terms.get(var, 0.0)

    def evaluate(self, assignment: Mapping[Var, float]) -> float:
        """Value of the expression under a full variable assignment."""
        total = self._constant
        for var, coef in self._terms.items():
            try:
                total += coef * assignment[var]
            except KeyError as exc:
                raise IlpError(
                    f"assignment is missing variable {var.name!r}"
                ) from exc
        return total

    # -- algebra ------------------------------------------------------------
    def __add__(self, other: object) -> "LinExpr":
        rhs = _coerce(other)
        terms = dict(self._terms)
        for var, coef in rhs._terms.items():
            terms[var] = terms.get(var, 0.0) + coef
        return LinExpr(terms, self._constant + rhs._constant)

    __radd__ = __add__

    def __sub__(self, other: object) -> "LinExpr":
        return self + (_coerce(other) * -1.0)

    def __rsub__(self, other: object) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, other: object) -> "LinExpr":
        if isinstance(other, (LinExpr, Var)):
            raise IlpError("products of variables are not linear")
        if not isinstance(other, numbers.Real):
            raise IlpError(f"cannot scale expression by {other!r}")
        factor = float(other)
        return LinExpr(
            {v: c * factor for v, c in self._terms.items()},
            self._constant * factor,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons build constraints ---------------------------------------
    def __le__(self, other: object) -> "Constraint":
        return Constraint(self - _coerce(other), Sense.LE)

    def __ge__(self, other: object) -> "Constraint":
        return Constraint(self - _coerce(other), Sense.GE)

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]
        return Constraint(self - _coerce(other), Sense.EQ)

    def __hash__(self) -> int:  # pragma: no cover - only needed for sets
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{c:+g}*{v.name}" for v, c in self._terms.items()]
        parts.append(f"{self._constant:+g}")
        return " ".join(parts)


class Sense(enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in homogeneous form.

    Stored as ``lhs sense 0`` where ``lhs`` folds the right-hand side in;
    :attr:`rhs` recovers the conventional "constant on the right" view.
    """

    __slots__ = ("_expr", "_sense", "name")

    def __init__(self, expr: LinExpr, sense: Sense, name: str = "") -> None:
        self._expr = expr
        self._sense = sense
        self.name = name

    @property
    def expr(self) -> LinExpr:
        """Left-hand side with the RHS folded in (compare against zero)."""
        return self._expr

    @property
    def sense(self) -> Sense:
        return self._sense

    @property
    def rhs(self) -> float:
        """Constant right-hand side of the conventional form."""
        return -self._expr.constant

    def terms(self) -> dict[Var, float]:
        """Variable coefficients of the left-hand side."""
        return self._expr.terms

    def named(self, name: str) -> "Constraint":
        """Return the same constraint carrying a display name."""
        return Constraint(self._expr, self._sense, name)

    def with_rhs(self, rhs: float) -> "Constraint":
        """The same terms, sense and name with ``rhs`` on the right.

        The folded constant is the one comparing the bare terms against
        ``rhs`` yields (``0.0 - rhs``, signed zeros included), so the
        copy lowers to exactly the row a fresh comparison would.
        """
        expr = LinExpr.__new__(LinExpr)
        # Expressions never mutate their terms, so the copy shares them.
        expr._terms = self._expr._terms
        expr._constant = 0.0 - float(rhs)
        return Constraint(expr, self._sense, self.name)

    def is_satisfied(
        self, assignment: Mapping[Var, float], *, tolerance: float = 1e-6
    ) -> bool:
        """Whether ``assignment`` satisfies the constraint within tolerance."""
        value = self._expr.evaluate(assignment)
        if self._sense is Sense.LE:
            return value <= tolerance
        if self._sense is Sense.GE:
            return value >= -tolerance
        return abs(value) <= tolerance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"{self.name}: " if self.name else ""
        lhs = LinExpr(self._expr.terms, 0.0)
        return f"{label}{lhs!r} {self._sense.value} {self.rhs:g}"


def lin_sum(items: Iterable[Var | LinExpr | float]) -> LinExpr:
    """Sum an iterable of variables/expressions/numbers into a LinExpr.

    Mirrors :func:`sum` but starts from an empty expression, so it works
    with generator expressions over variables::

        lin_sum(n[t, o] for t in targets)
    """
    total = LinExpr()
    for item in items:
        total = total + item
    return total
