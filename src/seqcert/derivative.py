"""Directional derivatives of convex functions, from the grammar's closed forms.

For a convex function the difference quotient (f(x + t h) - f(x)) / t is
monotone in t (Rockafellar, Convex Analysis, Thm 23.1), so each one-sided
derivative of a separable series is the sum of its terms' (Thm 24.1 and
monotone convergence).  The walk over the function grammar
(funcs.basis_partials) answers them in closed form: along a basis vector
with its sides at that index, ``at(n)``, along any other direction with
``direction(h)``.  Where the walk has no closed form there is no
certified value, and dir_deriv says so by raising NoMajorant; no quotient
is scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainLimited, DomainViolation, NoMajorant
from .funcs import FunctionExpr, analytic_dir_deriv, basis_partials, certified, is_finite
from .seqspace import DEFAULT_SERIES_TOL, Point, basis_vector

#: How far apart the one-sided derivatives may lie for a derivative to exist.
_TOL_MATCH = 1e-7


@dataclass(frozen=True)
class DirDerivResult:
    """One-sided derivatives along a direction.

    ``left`` and ``right`` are the closed-form one-sided derivatives, a
    side outside the domain at its extended-real limit (-inf on the left,
    +inf on the right); ``exists`` holds when both are finite and within
    _TOL_MATCH of each other, and ``value`` is then their midpoint.
    ``quotients_log`` is always empty and ``method`` always "analytic":
    no answer comes from difference quotients.
    """

    right: float
    left: float
    exists: bool
    value: Optional[float]
    quotients_log: tuple[tuple[float, float], ...] = ()
    method: str = "analytic"


def _is_basis(h: Point) -> Optional[int]:
    if h.is_finitely_supported():
        support = [i + 1 for i, v in enumerate(h.prefix) if v != 0.0]
        if len(support) == 1 and h.prefix[support[0] - 1] == 1.0:
            return support[0]
    return None


def dir_deriv(f: FunctionExpr, x: Point, h: Point) -> DirDerivResult:
    """Directional derivative of f at x along h, with an existence verdict.

    Along a basis vector the walk's sides at that index answer, without
    evaluating f; along any other direction, once f(x) is certified
    finite, the walk's ``direction(h)``, the sum of the terms' one-sided
    derivatives.  Raises what evaluate(f, x) raises, DomainViolation when
    f(x) is not finite, NoMajorant where the walk has no closed form along
    h, and DomainLimited where neither side of 0 stays in the domain.
    """
    n = _is_basis(h)
    if n is not None:
        dv = analytic_dir_deriv(f, x, n)
        left, right, value = dv.left, dv.right, dv.value
    else:
        walk = basis_partials(f, x)
        if not is_finite(certified(walk.value(DEFAULT_SERIES_TOL))):
            raise DomainViolation("f(x) is not finite; directional derivatives need a base value")
        sides = walk.direction(h)
        if sides is None:
            raise NoMajorant("no closed-form one-sided derivatives along this direction")
        left, right = sides
        if left is None and right is None:
            raise DomainLimited("no feasible step on either side of 0")
        value = None if left is None or right is None else left + 0.5 * (right - left)
    left = -math.inf if left is None else left
    right = math.inf if right is None else right
    exists = math.isfinite(left) and math.isfinite(right) and abs(right - left) <= _TOL_MATCH
    return DirDerivResult(right=right, left=left, exists=exists, value=value if exists else None)


def dir_deriv_profile(f: FunctionExpr, x: Point, direction_count: int) -> list[DirDerivResult]:
    """dir_deriv along e_1 .. e_N; a domain error is re-raised tagged by index."""
    if direction_count < 1:
        raise ValueError("direction count must be >= 1")
    out = []
    for n in range(1, direction_count + 1):
        try:
            out.append(dir_deriv(f, x, basis_vector(n)))
        except DomainViolation as exc:
            raise type(exc)(f"direction {n}: {exc}") from exc
    return out
