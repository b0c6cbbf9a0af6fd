"""The monotone quotient scan: the tests' independent numeric reference for
the closed-form directional derivatives of seqcert.derivative.

For a convex function the difference quotient (f(x + t h) - f(x)) / t is
nonincreasing as t decreases to 0 and nondecreasing as t increases to 0, so
each one-sided derivative is bracketed by a monotone sequence of quotients:
every right quotient bounds f'(x; h) from above and every left quotient
bounds -f'(x; -h) from below.  Verdicts use those monotone bounds only;
Richardson extrapolation sharpens the reported value but never feeds a
decision, and it can leave the bracket by a few noise floors.  Differences
along finitely supported directions are exact (the walk's ``line``, no
series, no cancellation), so quotients stay trustworthy down to machine
scale; along any other direction they are delta_along's certified
differences, from one series line per direction so that t and -t share
its per-step-size majorants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from seqcert.errors import DomainLimited, DomainViolation, NonConvexBehavior
from seqcert.funcs import FunctionExpr, basis_partials, certified
from seqcert.seqspace import DEFAULT_SERIES_TOL, Point

_EPS = 2.220446049250313e-16
#: Quotient movement below _NOISE_SCALE * eps * (|f(x)| + 1) / t counts as
#: numeric noise.
_NOISE_SCALE = 16.0


@dataclass(frozen=True)
class ScanOptions:
    """t0 = None picks 1e-2 * max(1, |x_n|) for single-coordinate directions
    and 1e-2 otherwise; steps is the number of halvings; tol_match decides
    left-right agreement."""

    t0: Optional[float] = None
    steps: int = 40
    tol_match: float = 1e-7


@dataclass(frozen=True)
class ScanResult:
    """``right`` and ``left`` are the monotone bounds (min of right
    quotients, max of left quotients); ``exists`` holds when both are finite
    and within tol_match of each other, in which case ``value`` carries the
    extrapolated estimate.  ``quotients_log`` records every (t, quotient)
    pair evaluated, negative t on the left side."""

    right: float
    left: float
    exists: bool
    value: Optional[float]
    noise_floor: float
    quotients_log: tuple[tuple[float, float], ...]
    method: str = "numeric"


class _Side:
    """Monotone quotient scan on one side of 0."""

    __slots__ = ("bound", "report", "log", "alive")

    def __init__(self):
        self.bound: Optional[float] = None
        self.report: Optional[float] = None
        self.log: list[tuple[float, float]] = []
        self.alive = False


def _scan_side(
    delta: Callable[[float], float],
    exact: bool,
    t0: float,
    sign: int,
    opts: ScanOptions,
    fx_mag: float,
) -> _Side:
    """Evaluate quotients delta(t) / t at t = sign * t0 * 2^-j with early stopping.

    Right side (sign=+1): quotients must be nonincreasing up to noise;
    left side (sign=-1): nondecreasing.  Violations beyond 10x the noise
    floor mean the input was not convex (or the evaluator is broken).
    Early stopping applies only to series-backed quotients, whose error
    grows like 1/t; exact finite differences stay trustworthy at every
    step, so those scans run the full ladder.
    """
    side = _Side()
    qs: list[float] = []
    prev: Optional[float] = None
    start = sign * t0
    noise = _NOISE_SCALE * _EPS * (fx_mag + 1.0)
    for j in range(opts.steps + 1):
        t = start * 2.0**-j
        nf = noise / abs(t)
        try:
            q = delta(t) / t
        except DomainViolation:
            # Convex domains are intervals along a line: larger |t| failing
            # says nothing about smaller |t|, so keep shrinking.
            continue
        side.log.append((t, q))
        if prev is not None:
            drift = (q - prev) if sign > 0 else (prev - q)
            if drift > 10.0 * nf:
                raise NonConvexBehavior(
                    f"difference quotients moved the wrong way at t={t:.3e} "
                    f"(drift {drift:.3e} vs noise floor {nf:.3e})"
                )
            if not exact and abs(q - prev) <= nf:
                qs.append(q)
                prev = q
                break
        qs.append(q)
        prev = q
    if not qs:
        return side
    side.alive = True
    side.bound = min(qs) if sign > 0 else max(qs)
    side.report = _extrapolate(qs, sign)
    return side


def _extrapolate(qs: list[float], sign: int) -> float:
    """Richardson-style limit estimate from the last geometric-looking gaps."""
    if len(qs) < 3:
        return qs[-1]
    g1 = qs[-2] - qs[-1]
    g0 = qs[-3] - qs[-2]
    if g0 == 0.0 or g1 == 0.0:
        return qs[-1]
    rho = g1 / g0
    if not (0.0 < rho < 0.9):
        return qs[-1]
    return qs[-1] - g1 * rho / (1.0 - rho)


def quotient_scan(
    f: FunctionExpr, x: Point, h: Point, opts: ScanOptions = ScanOptions()
) -> ScanResult:
    """Scan difference quotients of f at x along h on both sides of 0.

    Raises DomainViolation when f(x) is not finite and DomainLimited when
    no step on either side stays in the domain.  A side whose every probe
    leaves the domain is reported at its extended-real limit (+inf on the
    right, -inf on the left); the verdict is then "does not exist".
    """
    walk = basis_partials(f, x)
    # |f(x)| scales the quotient noise floor
    fx = certified(walk.value(DEFAULT_SERIES_TOL))
    if not math.isfinite(fx.value):
        raise DomainViolation("f(x) is not finite; directional derivatives need a base value")
    fx_mag = abs(fx.value)
    support = (
        [i + 1 for i, v in enumerate(h.prefix) if v != 0.0]
        if h.is_finitely_supported() else None
    )
    if opts.t0 is not None:
        t0 = opts.t0
    elif support is not None and len(support) == 1:
        t0 = 1e-2 * max(1.0, abs(x.coordinate(support[0])))
    else:
        t0 = 1e-2
    exact = support is not None
    if exact:
        delta = walk.line(tuple((n, h.coordinate(n)) for n in support))
    else:
        line = walk.series_line(h)

        def delta(t: float) -> float:
            return line(t, abs(t) * 1e-13).value
    right = _scan_side(delta, exact, t0, +1, opts, fx_mag)
    left = _scan_side(delta, exact, t0, -1, opts, fx_mag)
    if not right.alive and not left.alive:
        raise DomainLimited("no feasible step on either side of 0")

    r_bound = right.bound if right.alive else math.inf
    l_bound = left.bound if left.alive else -math.inf
    exists = (
        math.isfinite(r_bound)
        and math.isfinite(l_bound)
        and abs(r_bound - l_bound) <= opts.tol_match
    )
    value = None
    if exists:
        value = 0.5 * (right.report + left.report)
    if exact:
        # Exact finite differences: only rounding of the quotient itself.
        worst = max(abs(r_bound) if right.alive else 0.0,
                    abs(l_bound) if left.alive else 0.0)
        nf = _NOISE_SCALE * _EPS * (1.0 + worst)
    else:
        # Series-backed quotients: error scales like 1/t at the smallest
        # step actually accepted.
        ts = [abs(t) for side in (right, left) for (t, _) in side.log]
        smallest_t = min(ts) if ts else t0 * 2.0 ** -(opts.steps)
        nf = _NOISE_SCALE * _EPS * (fx_mag + 1.0) / smallest_t
    return ScanResult(
        right=r_bound,
        left=l_bound,
        exists=exists,
        value=value,
        noise_floor=nf,
        quotients_log=tuple(left.log[::-1] + right.log),
    )
