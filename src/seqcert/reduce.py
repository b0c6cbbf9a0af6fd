"""Finite-dimensional reduction and a brute-force minimization oracle.

The reduced problem pins every coordinate beyond k to the anchor's value
and minimizes over the first k coordinates only.  Because anchored
truncations of a rectangular feasible set stay feasible, the reduced
minimum is a certified upper bound for the full problem, nonincreasing in
k.  The minimizer is found by cyclic coordinate descent with a
golden-section line search to relative width 1e-12: the one-coordinate
restriction of the objective is evaluated through exact finite
differences (no series truncation), so the search is immune to
cancellation noise and independent of the closed-form derivatives the
certificates it cross-checks are decided from.

Each sweep builds one grammar walk, at the point where the sweep starts,
and reads every coordinate's line from it.  That is exact because the
grammar is separable along the basis: the line along e_i reads x_i and no
other coordinate of x (a separable leaf reads x_i, a linear functional
only its dual, and constants and the limsup nothing), and when the sweep
reaches i it has moved only the coordinates before i.  A grammar node
whose line along e_i read any other coordinate would break this, and its
sweeps would need a walk per coordinate again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .certify import SetDescriptor, coordinate_interval, set_membership
from .errors import (
    DomainViolation,
    InfeasiblePoint,
    MaxSweeps,
    PartialNotDifferentiable,
    Unbounded,
)
from .funcs import FunctionExpr, basis_partials, evaluate, is_finite
from .seqspace import Point, SeriesValue


#: Relative stopping width of the line search and relative decrease below
#: which a sweep counts as converged.
_LINE_TOL = 1e-12
_SWEEP_TOL = 1e-12
#: Golden-section ratio: each shrink keeps this share of the bracket.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Search cap on each coordinate; a descent still running at it is unbounded.
_BOUND = 1e6
#: Sweep budget of one descent; a descent still decreasing after it raises.
_MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class ReducedProblem:
    """Minimize y -> f(x* + P^k(y - x*)) over the feasible box slice."""

    k: int
    anchor: Point
    f: FunctionExpr
    feasible_set: SetDescriptor

    def embed(self, y) -> Point:
        """Splice the k free coordinates over the anchor."""
        if len(y) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(y)}")
        prefix = tuple(float(v) for v in y) + self.anchor.prefix[self.k :]
        return Point(prefix, self.anchor.tail)

    def start(self) -> list[float]:
        return [self.anchor.coordinate(i) for i in range(1, self.k + 1)]


def build_reduced(
    f: FunctionExpr, s: SetDescriptor, x_star: Point, k: int
) -> ReducedProblem:
    if k < 1:
        raise ValueError(f"reduction dimension must be >= 1, got {k}")
    ok, wit = set_membership(s, x_star)
    if ok is not True:
        detail = f"coordinate {wit}" if ok is False else "tail not certified"
        raise InfeasiblePoint(f"anchor is not a certified member of the set ({detail})")
    return ReducedProblem(k, x_star, f, s)


def grad_reduced(prob: ReducedProblem, y) -> list[float]:
    """Gradient of the reduced objective, from closed-form per-coordinate
    derivatives; raises PartialNotDifferentiable at a kink coordinate."""
    partials = basis_partials(prob.f, prob.embed(y))
    col = partials.column(prob.k)
    if None in col:
        raise PartialNotDifferentiable(col.index(None) + 1)
    if len(col) < prob.k:
        # the column stops before the first coordinate that raises
        partials.at(len(col) + 1)
    return list(col)


def _line_minimize(
    line: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Golden-section search for a convex one-coordinate restriction on [lo, hi].

    line is the exact difference phi(t) = f(x + t e_i) - f(x); a step
    outside the domain reads phi = +inf.  Returns (t, phi(t)) at the
    midpoint of the final bracket.  Each shrink keeps 0.618 of the bracket
    and the interior probe that survives in it, with its value, so it
    makes one new call (Kiefer 1953): about 90 calls on the oracle's
    [-1e6, 1e6].  0 is assumed to lie in [lo, hi] with phi(0) = 0 finite,
    which keeps the infeasible ends identifiable: the domain is an
    interval around 0, so when both probes are infeasible the search keeps
    the side that contains 0.  Only +inf marks a step infeasible: a
    difference that overflows to -inf is a descent, which runs to the
    search cap.

    The stopping width is relative to the interval's magnitude: near the
    search cap the ulp of the endpoints exceeds any absolute tolerance, so
    an absolute test would never trigger.
    """
    inf = math.inf
    g = _GOLDEN
    m1 = hi - g * (hi - lo)
    m2 = lo + g * (hi - lo)
    try:
        v1 = line(m1) if m1 != 0.0 else 0.0
    except DomainViolation:
        v1 = inf
    try:
        v2 = line(m2) if m2 != 0.0 else 0.0
    except DomainViolation:
        v2 = inf
    # hi if hi > -lo else -lo is max(|lo|, |hi|) for lo <= hi
    while hi - lo > _LINE_TOL * (1.0 + (hi if hi > -lo else -lo)):
        if v1 < v2 or (v1 == v2 == inf and m1 >= 0.0):
            hi, m2, v2 = m2, m1, v1
            m1 = hi - g * (hi - lo)
            try:
                v1 = line(m1) if m1 != 0.0 else 0.0
            except DomainViolation:
                v1 = inf
        else:
            lo, m1, v1 = m1, m2, v2
            m2 = lo + g * (hi - lo)
            try:
                v2 = line(m2) if m2 != 0.0 else 0.0
            except DomainViolation:
                v2 = inf
    t = 0.5 * (lo + hi)
    try:
        v = line(t) if t != 0.0 else 0.0
    except DomainViolation:
        v = inf
    return (0.0, 0.0) if v == inf else (t, v)


def minimize_reduced(prob: ReducedProblem) -> tuple[list[float], SeriesValue, int]:
    """Cyclic coordinate descent with golden-section line searches.

    Returns (minimizer, certified objective value, sweeps used).  Raises
    Unbounded when a coordinate runs to the search cap and MaxSweeps when
    the sweep budget is exhausted before the decrease test triggers.
    """
    y = prob.start()
    feasible_start = evaluate(prob.f, prob.embed(y))
    if not is_finite(feasible_start):
        raise DomainViolation("objective is infinite at the starting point")

    b = _BOUND
    # margin matched to the line search's relative stopping width
    cap_margin = 4 * _LINE_TOL * (1.0 + b)
    intervals = [coordinate_interval(prob.feasible_set, i) for i in range(1, prob.k + 1)]
    sweeps = 0
    while sweeps < _MAX_SWEEPS:
        sweeps += 1
        decrease = 0.0
        # one walk per sweep: its line along e_i reads x_i only, which the
        # sweep has not moved yet when it reaches i (module docstring)
        partials = basis_partials(prob.f, prob.embed(y))
        for i, (lo_set, hi_set) in enumerate(intervals, start=1):
            lo = max(lo_set - y[i - 1], -b)
            hi = min(hi_set - y[i - 1], b)
            if hi <= lo:
                continue
            t, v = _line_minimize(partials.line(((i, 1.0),)), lo, hi)
            if v < 0.0:
                at_cap = (
                    (lo == -b and t <= lo + cap_margin)
                    or (hi == b and t >= hi - cap_margin)
                )
                if at_cap:
                    raise Unbounded(
                        f"coordinate {i} runs to the search cap {b:g} while still descending"
                    )
                y[i - 1] += t
                decrease += -v
            if abs(y[i - 1]) > b:
                raise Unbounded(f"coordinate {i} left the search box")
        if decrease <= _SWEEP_TOL * (1.0 + abs(feasible_start.value)):
            final = evaluate(prob.f, prob.embed(y))
            return y, final, sweeps
    raise MaxSweeps(f"no convergence within {_MAX_SWEEPS} sweeps")
