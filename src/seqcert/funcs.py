"""A closed grammar of convex functions on sequence spaces.

Leaves are a limsup seminorm, separable series sum(w_n * u_n(x_n)) with
per-index scalar convex pieces, and continuous linear functionals; sums and
nonnegative scalings combine them.  Everything in the grammar evaluates
through certified series and has closed-form one-sided derivatives along
basis directions, which is what the optimality and differentiability
certificates are built from.

Per-index coefficients (series weights, scalar parameters) use the same
closed forms as point tails: canonical SymSeqs summing constant, geometric
and harmonic atoms in the index (seqspace.TailRule), read per index with
``coordinate`` or over a range of indices with ``column``, and used as
they are in every closed-form product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    DomainViolation,
    NegativeScale,
    NoCertifiedValue,
    NoMajorant,
    NonConvergentPairing,
)
from .seqspace import (
    DEFAULT_SERIES_TOL,
    DualPoint,
    Point,
    SeriesValue,
    TailRule,
    bounded_value,
    certified_series,
    to_point_form,
    coef_from_json,
    coef_to_json,
    coordinate_signs,
    dual_from_json,
    dual_to_json,
    head_sum,
    json_field,
    json_kind,
    json_list,
    json_number,
    limsup_abs,
    majorant_region,
    pair,
    pairing,
    point_axpy,
    tail_limit,
)
from .symseq import DIVERGENT, SUMMABLE, SymSeq, classify, tail_sum


def _as_form(v) -> SymSeq:
    """Coerce a per-index coefficient to its canonical form: numbers
    become constant forms."""
    return to_point_form(v) if isinstance(v, SymSeq) else TailRule.const(v)


def _nonneg(form: SymSeq) -> bool:
    """A canonical form is >= 0 at every index n >= 1 when each of its
    atoms is (a negative ratio alternates the sign)."""
    return all(t.coef > 0 and t.ratio > 0 for t in form.terms)


def _slowest_atom(seq: SymSeq) -> SymSeq:
    """The atom of a nonzero canonical form that decays slowest, alone."""
    return SymSeq((max(seq.terms, key=lambda t: (t.ratio, -t.npow)),), exact=seq.exact)


def _sqrt_majorant(seq: SymSeq) -> SymSeq:
    """A closed form dominating sqrt(|seq(n)|), via sqrt(a+b) <= sqrt a + sqrt b."""
    out = SymSeq.zero()
    for t in seq.terms:
        out = out + SymSeq((t,), exact=seq.exact).abs_terms().sqrt()
    return out


class ScalarKind(str, Enum):
    ABS = "abs"
    SQUARE = "square"
    AFFINE_QUAD = "affine_quad"
    NEG_SQRT = "neg_sqrt"
    LINEAR = "linear"


@dataclass(frozen=True)
class ScalarConvex:
    """One scalar convex piece u_n, with per-index parameters.

    Variants: |t|; t^2; a*t^2 + b*t with a >= 0; -c*sqrt(t) on t >= 0 with
    c >= 0; b*t.  Parameters a, b, c are closed forms in the index n.
    """

    kind: ScalarKind
    a: SymSeq = TailRule.zero()
    b: SymSeq = TailRule.zero()
    c: SymSeq = TailRule.zero()

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _as_form(getattr(self, name)))
        if self.kind is ScalarKind.AFFINE_QUAD and not _nonneg(self.a):
            raise ValueError("quadratic coefficient must be >= 0 at every index")
        if self.kind is ScalarKind.NEG_SQRT and not _nonneg(self.c):
            raise ValueError("square-root coefficient must be >= 0 at every index")

    @staticmethod
    def abs_() -> ScalarConvex:
        return ScalarConvex(ScalarKind.ABS)

    @staticmethod
    def square() -> ScalarConvex:
        return ScalarConvex(ScalarKind.SQUARE)

    @staticmethod
    def affine_quad(a, b) -> ScalarConvex:
        return ScalarConvex(ScalarKind.AFFINE_QUAD, a=a, b=b)

    @staticmethod
    def neg_sqrt(c) -> ScalarConvex:
        return ScalarConvex(ScalarKind.NEG_SQRT, c=c)

    @staticmethod
    def linear(b) -> ScalarConvex:
        return ScalarConvex(ScalarKind.LINEAR, b=b)

    # -- pointwise evaluation ------------------------------------------------

    def value(self, n: int, t: float) -> float:
        if self.kind is ScalarKind.ABS:
            return abs(t)
        if self.kind is ScalarKind.SQUARE:
            return t * t
        if self.kind is ScalarKind.AFFINE_QUAD:
            return self.a.coordinate(n) * t * t + self.b.coordinate(n) * t
        if self.kind is ScalarKind.LINEAR:
            return self.b.coordinate(n) * t
        if t < 0.0:
            raise DomainViolation(f"sqrt piece needs t >= 0, got {t} at index {n}")
        return -self.c.coordinate(n) * math.sqrt(t)

    def line(self, n: int, t0: float, w: float, hn: float) -> Callable[[float], float]:
        """t -> 0.0 + w * (u_n(t0 + t*hn) - u_n(t0)): one weighted series
        term along a line, with u_n's parameters resolved once.

        Along a line only t changes, so the per-index coefficients and the
        anchor terms (2*t0, sqrt(t0)) are computed here and each call runs
        just the cancellation-free difference dt = t*hn, its weighting and
        the start of the sum, in that order.  The start is 0.0, which is
        what the int 0 starting every sum of such terms adds as (it turns
        a -0.0 term into 0.0), and a float add costs less than a mixed one.
        """
        kind = self.kind
        # the weighted difference at dt == 0 (and wherever u_n is flat)
        flat = 0.0 + w * 0.0
        if kind is ScalarKind.ABS:
            def d(t: float) -> float:
                dt = t * hn
                if dt == 0.0:
                    return flat
                if t0 >= 0.0 and t0 + dt >= 0.0:
                    return 0.0 + w * dt
                if t0 <= 0.0 and t0 + dt <= 0.0:
                    return 0.0 + w * -dt
                return 0.0 + w * (abs(t0 + dt) - abs(t0))
            return d
        two_t0 = 2.0 * t0
        if kind is ScalarKind.SQUARE:
            def d(t: float) -> float:
                dt = t * hn
                return flat if dt == 0.0 else 0.0 + w * (dt * (two_t0 + dt))
            return d
        if kind is ScalarKind.AFFINE_QUAD:
            a = self.a.coordinate(n)
            b = self.b.coordinate(n)

            def d(t: float) -> float:
                dt = t * hn
                return flat if dt == 0.0 else 0.0 + w * (a * dt * (two_t0 + dt) + b * dt)
            return d
        if kind is ScalarKind.LINEAR:
            b = self.b.coordinate(n)

            def d(t: float) -> float:
                dt = t * hn
                return flat if dt == 0.0 else 0.0 + w * (b * dt)
            return d
        c = self.c.coordinate(n)
        # a negative t0 raises below before its root would be used
        root0 = 0.0 if t0 < 0.0 else math.sqrt(t0)

        def d(t: float) -> float:
            dt = t * hn
            if dt == 0.0:
                return flat
            t1 = t0 + dt
            if t0 < 0.0 or t1 < 0.0:
                raise DomainViolation(
                    f"sqrt piece needs t >= 0 along the segment at index {n}"
                )
            if c == 0.0:
                return flat
            root_sum = math.sqrt(t1) + root0
            if root_sum == 0.0:
                return flat
            return 0.0 + w * (-c * dt / root_sum)
        return d


# ---------------------------------------------------------------------------
# Function expressions
# ---------------------------------------------------------------------------


class FunctionExpr:
    """Base class for the convex function grammar; immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(FunctionExpr):
    """A constant offset; convex, derivative zero everywhere.

    Lets affine constraints like 1 - x_1 live in the grammar.
    """

    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"constant must be finite, got {self.c}")


@dataclass(frozen=True)
class LimsupSeminorm(FunctionExpr):
    """p(x) = limsup |x_n|: finite prefixes never affect the value."""


@dataclass(frozen=True)
class SeparableSeries(FunctionExpr):
    """f(x) = sum over n of weight(n) * inner_n(x_n).

    The weight is a closed form in n and must be nonnegative at every index
    unless the inner piece is linear (where signs fold into the slope).
    """

    weight: SymSeq
    inner: ScalarConvex

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_form(self.weight))
        if self.inner.kind is not ScalarKind.LINEAR and not _nonneg(self.weight):
            raise ValueError("series weight must be >= 0 at every index")


@dataclass(frozen=True)
class LinearFunctional(FunctionExpr):
    """f(x) = <p, x> for a dual element p."""

    p: DualPoint


@dataclass(frozen=True)
class Sum(FunctionExpr):
    terms: tuple[FunctionExpr, ...]

    def __init__(self, terms: Sequence[FunctionExpr]):
        object.__setattr__(self, "terms", tuple(terms))


@dataclass(frozen=True)
class Scale(FunctionExpr):
    lam: float
    inner: FunctionExpr

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError(f"scale factor must be finite, got {self.lam}")
        if self.lam < 0.0:
            raise NegativeScale(f"scale factor must be >= 0, got {self.lam}")


def scale(lam: float, f: FunctionExpr) -> FunctionExpr:
    return Scale(float(lam), f)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _separable_domain_rank(f: SeparableSeries, x: Point) -> int:
    """Domain screening for sqrt pieces; returns the rank from which the
    tail's sign is settled (the tail start otherwise)."""
    if f.inner.kind is not ScalarKind.NEG_SQRT:
        return x.tail_start
    signs = coordinate_signs(x)
    if signs.ok is None:
        raise DomainViolation(f"tail sign oscillates under a sqrt piece: {signs.unsettled}")
    if signs.eventual:
        raise DomainViolation("tail is eventually negative under a sqrt piece")
    if not signs.ok:
        raise DomainViolation(f"coordinate {signs.n} is negative under a sqrt piece")
    return signs.rank


def _separable_tail_forms(
    f: SeparableSeries, x: Point, start: int
) -> tuple[Optional[SymSeq], int, Optional[SymSeq]]:
    """Closed forms for the series terms beyond the explicit region.

    Returns (exact_tail, valid_from, majorant); exactly one of exact_tail /
    majorant is non-None.
    """
    w = f.weight
    xx = x.tail
    kind = f.inner.kind
    if kind is ScalarKind.LINEAR:
        return w * f.inner.b * xx, start, None
    if kind is ScalarKind.SQUARE:
        return w * xx * xx, start, None
    if kind is ScalarKind.AFFINE_QUAD:
        return w * (f.inner.a * xx * xx + f.inner.b * xx), start, None
    if kind is ScalarKind.ABS:
        if len(xx.terms) <= 1:
            return w * xx.abs_terms(), start, None
        try:
            sgn, rank = xx.eventual_sign(start)
        except ValueError:
            return None, start, w.abs_terms() * xx.abs_terms()
        return w.scaled(sgn) * xx, max(start, rank), None
    # NEG_SQRT: exact only for a single positive atom, else a sqrt majorant
    cc = f.inner.c
    if not xx.terms:
        return SymSeq.zero(), start, None
    if len(xx.terms) == 1 and xx.terms[0].coef > 0 and xx.terms[0].ratio > 0:
        return (w * cc * xx.sqrt()).scaled(-1), start, None
    return None, start, w.abs_terms() * cc.abs_terms() * _sqrt_majorant(xx)


def _evaluate_separable(f: SeparableSeries, x: Point, tol: float) -> SeriesValue:
    """The explicit terms of f(x) plus its certified tail; +inf when the
    series diverges to +inf."""
    rank = _separable_domain_rank(f, x)
    exact, valid_from, major = _separable_tail_forms(f, x, rank)
    if major is not None and f.inner.kind is ScalarKind.NEG_SQRT and _nonneg(x.tail):
        # x_n is at least its slowest atom a(n) > 0, so each tail term is at
        # most -w c sqrt(a(n)), as sqrt_direction bounds slopes; w, c and a
        # have positive atoms only, so a divergent label is a sum of +inf
        if classify(f.weight * f.inner.c * _slowest_atom(x.tail).sqrt()) == DIVERGENT:
            raise DomainViolation("series diverges to -infinity; not a proper value")
    if exact is not None:
        label = classify(exact)
        if label == DIVERGENT:
            try:
                sgn, _ = exact.eventual_sign(valid_from)
            except ValueError:
                raise DomainViolation(
                    "series diverges with oscillating sign; no extended value"
                )
            if sgn > 0:
                return SeriesValue(math.inf, 0.0, 0)
            raise DomainViolation("series diverges to -infinity; not a proper value")
        if label != SUMMABLE:
            raise NoMajorant("series is at best conditionally convergent")
    weight, inner = f.weight, f.inner
    return certified_series(
        lambda n: weight.coordinate(n) * inner.value(n, x.coordinate(n)),
        valid_from,
        tol,
        tail=exact,
        majorant=major,
    )


def evaluate(f: FunctionExpr, x: Point, tol: float = DEFAULT_SERIES_TOL) -> SeriesValue:
    """Certified value of f at x; value may be +inf in the extended sense.

    Where f(x) has no certified value, raises the walk's kept
    NoCertifiedValue: a DomainViolation outside the domain of f (negative coordinate under a
    sqrt piece, or no proper extended value), NonConvergentPairing for
    unpairable linear functionals and NoMajorant with no certified sum.
    """
    # sub-expressions recurse inside the walk's value answers, so a wrapper
    # around evaluate sees only the outer call
    return certified(basis_partials(f, x).value(tol))


def certified(answer: SeriesValue | NoCertifiedValue) -> SeriesValue:
    """A value answer as evaluate gives it: the kept error is raised with
    no traceback, so raising it again does not grow a chain."""
    if isinstance(answer, NoCertifiedValue):
        raise answer.with_traceback(None)
    return answer


def is_finite(sv: SeriesValue) -> bool:
    """Is a certified f(x) finite, not a certified +inf (inf with a zero
    bound) or an overflow (not finite, with an infinite bound)?"""
    return math.isfinite(sv.value)


# ---------------------------------------------------------------------------
# Directional derivatives along basis directions
# ---------------------------------------------------------------------------


class DirStatus(str, Enum):
    EXISTS = "exists"
    NOT_DIFFERENTIABLE = "not_differentiable"


@dataclass(frozen=True)
class DirValue:
    """Outcome of a closed-form directional derivative query.

    ``left`` and ``right`` are the one-sided derivatives (None marks a side
    that does not exist, e.g. at a domain boundary); ``value`` is set only
    when both sides exist, are finite, and agree.
    """

    status: DirStatus
    value: Optional[float] = None
    left: Optional[float] = None
    right: Optional[float] = None

    @staticmethod
    def exists(v: float) -> DirValue:
        return DirValue(DirStatus.EXISTS, value=v, left=v, right=v)

    @staticmethod
    def kink(left: Optional[float], right: Optional[float]) -> DirValue:
        return DirValue(DirStatus.NOT_DIFFERENTIABLE, left=left, right=right)


@dataclass(frozen=True)
class PartialsForm:
    """Closed form of n -> f'(x; e_n) for every n >= valid_from.

    status "ok": ``tail`` is the form; "kink": the partial is missing at
    ``kink_at``; "numeric": no closed form, only the per-index values.
    """

    status: str
    valid_from: int = 1
    tail: Optional[SymSeq] = None
    kink_at: Optional[int] = None


_ZERO = SeriesValue(0.0, 0.0, 0)


def _zero_line(t: float) -> float:
    return 0.0


def _linear_value(total: float, answers: Iterable[tuple]) -> SeriesValue | NoCertifiedValue:
    """total + lam * v over the (lam, answer) pairs, lam > 0, read in
    order: the first undecided answer is the whole answer, else a
    certified +inf makes the whole +inf.  Any other sum that is not
    finite is an overflow, whose bound is infinite.  :func:`_combination`
    answers its value and series steps with it, from its start."""
    err, used, plus_inf = 0.0, 0, False
    for lam, sv in answers:
        if isinstance(sv, NoCertifiedValue):
            return sv
        plus_inf = plus_inf or (sv.value == math.inf and sv.error_bound == 0.0)
        total += lam * sv.value
        err += lam * sv.error_bound
        used += sv.terms_used
    if plus_inf:
        return SeriesValue(math.inf, 0.0, used)
    return bounded_value(total, err, used)


def _zero_sides(a: int, b: int) -> tuple:
    zeros = [0.0] * (b - a + 1)
    return zeros, zeros, None


def _partial_values(lefts: list, rights: list) -> tuple:
    """Each index's partial where both of its sides exist, are finite and
    agree, else None."""
    inf = math.inf
    return tuple([
        r if r is not None and l == r and -inf < r < inf else None for l, r in zip(lefts, rights)
    ])


@dataclass(eq=False)
class BasisPartials:
    """What f is and does at x, from one walk over the grammar.

    ``sides(a, b)`` is the range answer (lefts, rights, err): the
    closed-form one-sided derivatives of t -> f(x + t e_n) at 0 for
    n = a, a+1, ..., in one list each, None marking a side outside the
    domain.  The lists stop short only where an index raises: err is then
    the exception index a + len(lefts) raises, and None otherwise.
    ``column(b)`` is the head column, the partial f'(x; e_n) for
    n = 1..b where both sides exist, are finite and agree, and None
    elsewhere; ``at(n)`` classifies one index.  ``form`` is built on first
    use, so per-index callers never pay for the closed form.
    ``line(steps)`` is the exact difference t -> f(x + t h) - f(x) for the
    finitely supported h whose nonzero coordinates are the (n, h_n) of
    steps.  ``interval(n, a)`` is (why, unbounded) for t -> f(x + t e_n)
    on |t| < a: why names the first term's kink or sqrt boundary inside it
    (None when there is none), and unbounded says some term's derivative
    has no finite supremum there.  ``value(tol)`` is f(x) certified to
    tol: a SeriesValue, finite or a certified +inf, or the NoCertifiedValue
    that evaluate(f, x, tol) raises, returned (see :func:`is_finite`).
    ``series_line(h)`` is the line behind delta_along(f, x, h, t, tol)
    for any direction h: its constants are resolved once, what depends on
    |t| only (a pairing's certified sum, a separable leaf's majorant
    region) is kept per step size so t and -t share it, and domain errors
    stay per step.  ``limsup_weight()`` is the total coefficient of the
    limsup parts, and ``affine()`` says whether f is built from constants,
    linear functionals and linear-piece series only.  ``direction(h)`` is
    the one-sided pair (left, right) of t -> f(x + t h) at 0 in closed
    form, None marking a side outside the domain, or None where there is
    no closed form (see :func:`basis_partials`).

    Every answer runs only when it is called.  The defaults are the zero
    function's answers, so a node passes only those where it differs.
    ``form`` is kept once built, ``value(tol)`` per tol, undecided or
    not, and the head column as far as it was asked for, so the certifiers
    that ask about the same anchor share one certified f(x) and one pass
    over its partials.  An extended column replaces the kept one whole.
    """

    sides: Callable = _zero_sides
    _form: Callable = lambda: PartialsForm("ok", 1, SymSeq.zero())
    line: Callable = lambda steps: _zero_line
    interval: Callable = lambda n, a: (None, False)
    _value: Callable = lambda tol: _ZERO
    series_line: Callable = lambda h: lambda t, tol: _ZERO
    limsup_weight: Callable = lambda: 0.0
    affine: Callable = lambda: True
    direction: Callable = lambda h: (0.0, 0.0)
    _values: dict = field(default_factory=dict, init=False, repr=False)
    #: (values for n = 1..len, cut): cut when index len + 1 raises
    _column: tuple = field(default=((), False), init=False, repr=False)

    @cached_property
    def form(self) -> PartialsForm:
        return self._form()

    def value(self, tol: float) -> SeriesValue | NoCertifiedValue:
        if tol not in self._values:
            try:
                self._values[tol] = self._value(tol)
            except NoCertifiedValue as err:
                self._values[tol] = err
        return self._values[tol]

    def column(self, b: int) -> tuple:
        """The head column for n = 1..b, cut short before the first index
        that raises (``at`` of that index raises it)."""
        values, cut = self._column
        if len(values) < b and not cut:
            lefts, rights, err = self.sides(len(values) + 1, b)
            values += _partial_values(lefts, rights)
            self._column = (values, err is not None)
        return values if len(values) <= b else values[:b]

    def at(self, n: int) -> DirValue:
        values, _ = self._column
        if 0 < n <= len(values) and values[n - 1] is not None:
            return DirValue.exists(values[n - 1])
        lefts, rights, err = self.sides(n, n)
        if err is not None:
            raise err
        (v,) = _partial_values(lefts, rights)
        return DirValue.kink(lefts[0], rights[0]) if v is None else DirValue.exists(v)


#: The last top-level walk, as (f, x, walk): one tuple, read once and
#: replaced whole, so no reader pairs one anchor's f with another's walk.
_last_walk: tuple = (None, None, None)


def drop_kept_walk() -> None:
    """Forget the kept walk, so the next question about any f and x
    builds its own."""
    global _last_walk
    _last_walk = (None, None, None)


def basis_partials(f: FunctionExpr, x: Point) -> BasisPartials:
    """The one walk behind every question about f at x.

    Each node's range answer combines its children's over the same indices,
    in one loop per node; one-sided derivatives of the whole expression are
    kept apart, so a kink in one summand is reported only when the sum
    genuinely has one.  Within a range the smallest index that raises wins,
    and at it the first part in order, as reading index by index would
    raise; an index past it is answered only by a later range.  Lines resolve
    their per-index constants and scale factors once, and each call runs
    the per-step sum's float operations in the same order, including the
    0.0 that starts every sum, so signed zeros come out the same whatever
    the support's size.  A convex piece's derivative is monotone
    (Rockafellar, Convex Analysis, Thm 24.1), so on an interval only a sqrt
    boundary touching it leaves the derivative without a finite supremum.
    Sums and nonzero scalings are one weighted-sum node
    (:func:`_combination`).

    The difference quotient of a convex function is monotone in t
    (Rockafellar, Thm 23.1), so where a separable leaf's line majorant is
    summable each term's quotient falls monotonically to its one-sided
    derivative and, by monotone convergence, the leaf's one-sided
    derivative along h is the sum of its terms' (``direction(h)``): the
    range answer's sides scaled by h_n over the head, plus a closed-form tail
    summed by ``tail_sum``.  A finitely supported h has no tail, so the
    head alone answers.  A side outside the domain is None, in a sum as
    soon as one part's is, and a part with neither side wins over a part
    without an answer.  A sqrt piece finds its feasible sides at a quotient
    scan's step sizes, and its tail slopes against the slowest atom of x's
    tail: a slope sum that diverges with a certified sign is that infinity
    on each feasible side, and a zero tail puts every term on its boundary.
    The answer is None for a line majorant that is not summable, an
    eventual sign of |.|'s tail that is neither constant nor alternating, a
    sqrt anchor tail with a negative atom and a tail or pairing without a
    certified sum.

    The last walk built is kept: asked again about the same f and x
    objects, basis_partials returns it, with the answers it has kept, so
    the certifiers asking in turn about one anchor walk it once.  Identity
    is the key, never equality: Point((0.0,)) == Point((-0.0,)), yet their
    answers differ in signed zeros.  One slot keeps only the walk a run of
    questions about one anchor shares; a repeated pass over the same
    objects rebuilds, as the walk before the last is gone.
    """
    global _last_walk
    held_f, held_x, walk = _last_walk
    if held_f is f and held_x is x:
        return walk
    if isinstance(f, Constant):
        # A finite change of coordinates never moves a constant.
        c = f.c
        walk = BasisPartials(_value=lambda tol: SeriesValue(c, 0.0, 0))
    elif isinstance(f, LimsupSeminorm):
        # Nor a limsup; only the tails' limits reach it.
        def limsup_line(h: Point) -> Callable[[float, float], SeriesValue]:
            cx, ch = tail_limit(x), tail_limit(h)
            base = abs(cx)
            return lambda t, tol: bounded_value(abs(cx + t * ch) - base, 0.0, 0)

        def limsup_slopes(h: Point) -> tuple:
            # the one-sided slopes of t -> |cx + t ch| at 0
            cx, ch = tail_limit(x), tail_limit(h)
            if cx == 0.0:
                return -abs(ch), abs(ch)
            slope = ch if cx > 0.0 else -ch
            return slope, slope

        walk = BasisPartials(
            _value=lambda tol: SeriesValue(limsup_abs(x), 0.0, 0),
            series_line=limsup_line,
            limsup_weight=lambda: 1.0,
            affine=lambda: False,
            direction=limsup_slopes,
        )
    elif isinstance(f, LinearFunctional):
        p = f.p

        def linear(a: int, b: int) -> tuple:
            vs = p.column(a, b)
            return vs, vs, None

        def linear_line(steps: tuple) -> Callable[[float], float]:
            slope = sum(p.coordinate(n) * hn for n, hn in steps)
            return lambda t: t * slope

        def paired_line(h: Point) -> Callable[[float, float], SeriesValue]:
            paired = pairing(p, h)
            # paired's result by its tolerance, which depends on |t| and tol
            # only: the two sides of a quotient scan share it
            sums: dict[float, SeriesValue] = {}

            def step(t: float, tol: float) -> SeriesValue:
                u = tol / max(abs(t), 1.0)
                sv = sums.get(u)
                if sv is None:
                    sv = sums[u] = paired(u)
                return SeriesValue(t * sv.value, abs(t) * sv.error_bound, sv.terms_used)

            return step

        def paired_slope(h: Point) -> Optional[tuple]:
            try:
                v = pair(p, h).value
            except NonConvergentPairing:
                return None
            return v, v

        walk = BasisPartials(
            linear,
            lambda: PartialsForm("ok", p.tail_start, p.tail),
            linear_line,
            _value=lambda tol: pair(p, x, tol),
            series_line=paired_line,
            direction=paired_slope,
        )
    elif isinstance(f, SeparableSeries):
        walk = _separable_partials(f, x)
    elif isinstance(f, Scale):
        # A zero factor flattens the inner expression, whatever it is.
        lam = f.lam
        walk = _combination(-0.0, [(lam, basis_partials(f.inner, x))]) if lam else BasisPartials()
    elif isinstance(f, Sum):
        walk = _combination(0.0, [(1.0, basis_partials(g, x)) for g in f.terms])
    else:
        raise TypeError(f"unknown function expression {type(f).__name__}")
    # sub-walks built above went through here too; this write is last
    _last_walk = (f, x, walk)
    return walk


def _combination(start: float, parts: list) -> BasisPartials:
    """The walk of start + sum of c * g over parts, the (c, walk of g)
    pairs with c > 0, read in order.

    One-sided derivatives are additive and positively homogeneous over
    convex parts (Rockafellar, Convex Analysis, Sec. 23), so every answer
    is start plus each part's answer times its weight: the sides, with a
    None side staying None, the closed form, the lines, the value and
    series steps (through :func:`_linear_value`), the direction and the
    limsup weight; a part's interval answer and affinity carry over as they
    are.  A Sum passes weight 1.0 for each part and starts at 0.0, a Scale
    passes its one part and starts at -0.0, as -0.0 + v is v bit for bit.
    Each part's share of tol is tol / max(1, every c) / len(parts).
    """
    # one of the two factors is 1.0 for a Sum and a Scale, so this divides
    # by them as two divisions would
    div = max([1.0] + [c for c, _ in parts]) * len(parts)

    def sides(a: int, b: int) -> tuple:
        columns, err = [], None
        for c, part in parts:
            lefts, rights, part_err = part.sides(a, b)
            if part_err is not None:
                # the smallest raising index wins, and at it the first
                # part: the parts after this one stop before it
                b, err = a + len(lefts) - 1, part_err
            columns.append((c, lefts, rights))
        # each index's sums start at start and add the parts in order
        lsums = rsums = [start] * (b - a + 1)
        for c, lefts, rights in columns:
            lsums = [None if s is None or v is None else s + c * v for s, v in zip(lsums, lefts)]
            rsums = [None if s is None or v is None else s + c * v for s, v in zip(rsums, rights)]
        return lsums, rsums, err

    def form() -> PartialsForm:
        forms = [(c, part.form) for c, part in parts]
        kinks = [p.kink_at for _, p in forms if p.status == "kink"]
        if kinks:
            return PartialsForm("kink", kink_at=min(kinks))
        if any(p.status == "numeric" for _, p in forms):
            return PartialsForm("numeric")
        total = SymSeq.zero()
        for c, p in forms:
            total = total + (p.tail if c == 1.0 else p.tail.scaled(c))
        return PartialsForm("ok", max((p.valid_from for _, p in forms), default=1), total)

    def line(steps: tuple) -> Callable[[float], float]:
        # A flat part adds 0.0 to a partial sum that the start keeps from
        # being -0.0, or is a Scale's whole line, so it is skipped; a
        # weight-1.0 part, as every part of a Sum is, is not multiplied.
        lines = [(c, part.line(steps)) for c, part in parts]
        lines = [(c, g) for c, g in lines if g is not _zero_line]
        if not lines:
            return _zero_line
        if len(lines) == 1:
            ((c, g),) = lines
            return (lambda t: start + g(t)) if c == 1.0 else (lambda t: start + c * g(t))
        gs = [g if c == 1.0 else (lambda t, c=c, g=g: c * g(t)) for c, g in lines]
        if len(gs) == 2:
            g, h = gs
            return lambda t: start + g(t) + h(t)
        return lambda t: sum([g(t) for g in gs], start)

    def interval(n: int, a: float) -> tuple[Optional[str], bool]:
        answers = [part.interval(n, a) for _, part in parts]
        return next((why for why, _ in answers if why), None), any(unb for _, unb in answers)

    def value(tol: float) -> SeriesValue | NoCertifiedValue:
        return _linear_value(start, ((c, part.value(tol / div)) for c, part in parts))

    def series_line(h: Point) -> Callable[[float, float], SeriesValue]:
        subs = [(c, part.series_line(h)) for c, part in parts]
        return lambda t, tol: _linear_value(start, ((c, g(t, tol / div)) for c, g in subs))

    def direction(h: Point) -> Optional[tuple]:
        lsum = rsum = start
        declined = False
        for c, part in parts:
            sub = part.direction(h)
            if sub is None:
                declined = True
                continue
            left, right = sub
            lsum = None if lsum is None or left is None else lsum + c * left
            rsum = None if rsum is None or right is None else rsum + c * right
        # no side of 0 is feasible, whatever the declining parts are
        if lsum is None and rsum is None:
            return None, None
        return None if declined else (lsum, rsum)

    return BasisPartials(
        sides, form, line, interval, value, series_line,
        lambda: sum(c * part.limsup_weight() for c, part in parts),
        lambda: all(part.affine() for _, part in parts),
        direction,
    )


#: (-1)^n, the sign pattern of an alternating tail
_ALTERNATING = SymSeq.term(1, -1, 0)


def _eventual_sign(seq: SymSeq, start: int) -> tuple[int, int, bool]:
    """(sign, rank, alternating): seq(n) has the sign of sign, times
    (-1)^n when alternating, at every n >= rank; ValueError where neither
    pattern is certified."""
    try:
        return (*seq.eventual_sign(start), False)
    except ValueError:
        return (*(seq * _ALTERNATING).eventual_sign(start), True)


def _separable_partials(f: SeparableSeries, x: Point) -> BasisPartials:
    weight, u = f.weight, f.inner
    kind = u.kind

    def sides(a: int, b: int) -> tuple:
        # the columns are read as one index reads its coefficients: weight,
        # x, then the piece's parameters
        ws = weight.column(a, b)
        ts = x.column(a, b)
        # A nonzero weight scales both sides; zero kills both.
        if kind is ScalarKind.SQUARE:
            vs = [0.0 if w == 0.0 else w * (2.0 * t) for w, t in zip(ws, ts)]
            return vs, vs, None
        if kind is ScalarKind.AFFINE_QUAD:
            coefs = zip(ws, ts, u.a.column(a, b), u.b.column(a, b))
            vs = [0.0 if w == 0.0 else w * (2.0 * ca * t + cb) for w, t, ca, cb in coefs]
            return vs, vs, None
        if kind is ScalarKind.LINEAR:
            vs = [0.0 if w == 0.0 else w * cb for w, cb in zip(ws, u.b.column(a, b))]
            return vs, vs, None
        err = None
        if kind is ScalarKind.ABS:
            lefts = [1.0 if t > 0.0 else -1.0 for t in ts]
            rights = [-1.0 if t < 0.0 else 1.0 for t in ts]
        else:
            lefts, rights = [], []
            for n, t, c in zip(range(a, b + 1), ts, u.c.column(a, b)):
                if t < 0.0:
                    err = DomainViolation(f"sqrt piece needs t >= 0, got {t} at index {n}")
                    break
                if c == 0.0:
                    left = right = 0.0
                elif t == 0.0:
                    # right derivative of -c*sqrt at the boundary is -infinity
                    left, right = None, -math.inf
                else:
                    left = right = -c / (2.0 * math.sqrt(t))
                lefts.append(left)
                rights.append(right)
        # Nonnegative weights preserve the side order.
        out_l, out_r = [], []
        for w, left, right in zip(ws, lefts, rights):
            if w == 0.0:
                left = right = 0.0
            else:
                left = None if left is None else w * left
                right = None if right is None else w * right
                if w < 0.0:
                    left, right = right, left
            out_l.append(left)
            out_r.append(right)
        return out_l, out_r, err

    def form() -> PartialsForm:
        start = x.tail_start
        xx = x.tail
        if kind is ScalarKind.SQUARE:
            return PartialsForm("ok", start, weight * xx.scaled(2))
        if kind is ScalarKind.AFFINE_QUAD:
            return PartialsForm("ok", start, weight * (u.a * xx.scaled(2) + u.b))
        if kind is ScalarKind.LINEAR:
            return PartialsForm("ok", start, weight * u.b)
        # |.| and sqrt: a weight, or a sqrt coefficient, that vanishes at
        # every index (its canonical form is zero) makes the leaf constant;
        # otherwise a zero tail is a kink.
        if not weight or (kind is ScalarKind.NEG_SQRT and not u.c):
            return PartialsForm("ok", start, SymSeq.zero())
        if not xx.terms:
            return PartialsForm("kink", kink_at=start)
        if kind is ScalarKind.NEG_SQRT:
            if len(xx.terms) == 1 and xx.terms[0].coef > 0 and xx.terms[0].ratio > 0:
                inv_root = xx.sqrt().reciprocal()
                return PartialsForm("ok", start, (weight * u.c * inv_root).scaled(-0.5))
            return PartialsForm("numeric")
        try:
            sgn, rank = xx.eventual_sign(start)
        except ValueError:
            return PartialsForm("numeric")
        if sgn == 0:
            return PartialsForm("kink", kink_at=start)
        for n in range(start, rank):
            if xx.value_at(n) == 0.0 and weight.coordinate(n) != 0.0:
                return PartialsForm("kink", kink_at=n)
        return PartialsForm("ok", rank, weight.scaled(sgn))

    def line(steps: tuple) -> Callable[[float], float]:
        terms = [u.line(n, x.coordinate(n), weight.coordinate(n), hn) for n, hn in steps]
        if len(terms) == 1:
            # one coordinate: the term itself, as the oracle's line searches
            # call it hundreds of thousands of times
            return terms[0]
        return lambda t: sum(g(t) for g in terms)

    def interval(n: int, a: float) -> tuple[Optional[str], bool]:
        v = x.coordinate(n)
        if weight.coordinate(n) == 0.0:
            return None, False
        if kind is ScalarKind.ABS:
            return (None if abs(v) >= a else f"kink of |.| inside the interval at n={n}"), False
        if kind is not ScalarKind.NEG_SQRT or u.c.coordinate(n) == 0.0:
            return None, False
        lo = v - a
        return (None if lo >= 0.0 else f"sqrt boundary inside the interval at n={n}"), lo <= 0.0

    def head(h: Point, stop: int) -> tuple:
        # the sum of h_n times the sides over n < stop, read from the range
        # answer; an index raises only where h_n != 0
        left, right = 0.0, 0.0
        hs = h.column(1, stop - 1)
        n = 1
        while n < stop:
            lefts, rights, err = sides(n, stop - 1)
            for hn, lo, hi in zip(hs[n - 1 :], lefts, rights):
                if hn == 0.0:
                    continue
                # a negative step swaps the sides
                if hn < 0.0:
                    lo, hi = hi, lo
                left = None if left is None or lo is None else left + lo * hn
                right = None if right is None or hi is None else right + hi * hn
            n += len(lefts)
            if err is not None:
                if hs[n - 1] != 0.0:
                    raise err
                n += 1
        return left, right

    def feasible(h: Point, sign: float) -> bool:
        # a side is feasible where x + t h is in the domain at one of the
        # step sizes t = 1e-2 * 2^-j, j = 0..40, taken toward 0
        for j in range(41):
            try:
                _separable_domain_rank(f, point_axpy(x, sign * 1e-2 * 2.0**-j, h))
            except DomainViolation:
                continue
            return True
        return False

    def sqrt_direction(h: Point, start: int) -> Optional[tuple]:
        atoms = x.tail.terms
        if not weight or not u.c:
            return 0.0, 0.0
        if not atoms:
            # every tail term sits on its sqrt boundary, where the right
            # slope is -inf and the left slope +inf
            return math.inf, -math.inf
        if not _nonneg(x.tail):
            return None
        # x_n is at least its slowest atom a(n) > 0, so each tail slope is
        # at most w c / (2 sqrt a(n)) in size, of the same order and sign,
        # and equal to it where x's tail is that one atom
        bound = (weight * u.c * _slowest_atom(x.tail).sqrt().reciprocal()).scaled(-0.5) * h.tail
        label = classify(bound)
        if label == DIVERGENT:
            try:
                sgn, _ = bound.eventual_sign(start)
            except ValueError:
                return None
            return sgn * math.inf, sgn * math.inf
        if label != SUMMABLE:
            return None
        if len(atoms) == 1:
            tail, _, _ = tail_sum(bound, start, DEFAULT_SERIES_TOL)
        else:
            # certified_series's head of the right slopes, n = 1..k, read
            # from one range answer; x's tail is >= 0, so no index raises
            majorant = bound.abs_terms()
            if classify(majorant) != SUMMABLE:
                return None
            try:
                region = majorant_region(majorant, start, DEFAULT_SERIES_TOL)
            except NoMajorant:
                return None
            k = region[0]
            _, rights, _ = sides(start, k)
            slopes = [right * hn for right, hn in zip(rights, h.column(start, k))]
            tail = head_sum([0.0] * (start - 1) + slopes, region).value
        left, right = head(h, start)
        return (None if left is None else left + tail, None if right is None else right + tail)

    def direction(h: Point) -> Optional[tuple]:
        if not h.tail:
            return head(h, h.tail_start)
        if kind is ScalarKind.NEG_SQRT:
            ok = (feasible(h, -1.0), feasible(h, 1.0))
            if ok == (False, False):
                return None, None
        # the majorant's terms never cancel, so its label is the same at
        # every step size > 0
        if classify(_line_majorant(f, x, h, 1.0)) != SUMMABLE:
            return None
        # from here on x and h are both closed forms
        start = max(x.tail_start, h.tail_start)
        if kind is ScalarKind.NEG_SQRT:
            found = sqrt_direction(h, start)
            if found is None:
                return None
            return tuple(side if side_ok else None for side, side_ok in zip(found, ok))
        kink = False
        if kind is not ScalarKind.ABS:
            # the partial's closed form, valid from x's tail start
            slope = walk.form.tail
        else:
            try:
                sgn, rank, alternating = _eventual_sign(x.tail, start)
                if sgn == 0:
                    # x's tail is zero: every tail term has its kink at 0,
                    # with one-sided slopes -+w|h_n|, and |h_n| = sgn h_n,
                    # times (-1)^n where h's tail alternates
                    kink = True
                    sgn, rank, alternating = _eventual_sign(h.tail, start)
            except ValueError:
                return None
            start = max(start, rank)
            slope = weight.scaled(sgn) * _ALTERNATING if alternating else weight.scaled(sgn)
        try:
            tail, _, _ = tail_sum(slope * h.tail, start, DEFAULT_SERIES_TOL)
        except ValueError:
            return None
        left, right = head(h, start)
        return (left - tail, right + tail) if kink else (left + tail, right + tail)

    walk = BasisPartials(
        sides, form, line, interval,
        lambda tol: _evaluate_separable(f, x, tol),
        lambda h: _separable_delta_line(f, x, h),
        affine=lambda: kind is ScalarKind.LINEAR,
        direction=direction,
    )
    return walk


def analytic_dir_deriv(f: FunctionExpr, x: Point, n: int) -> DirValue:
    """Closed-form derivative of f at x along the n-th basis direction."""
    if n < 1:
        raise ValueError(f"basis index must be >= 1, got {n}")
    return basis_partials(f, x).at(n)


# ---------------------------------------------------------------------------
# Exact differences (the cancellation-free probe path)
# ---------------------------------------------------------------------------


def delta_along_basis(f: FunctionExpr, x: Point, n: int, t: float) -> float:
    """f(x + t*e_n) - f(x), computed exactly as a finite expression.

    Along a basis direction only finitely many series terms move, so the
    difference needs no series evaluation at all; each scalar piece uses a
    cancellation-free arrangement.  This is what makes numeric difference
    quotients trustworthy at machine scale.
    """
    return basis_partials(f, x).line(((n, 1.0),))(t)


def delta_along(
    f: FunctionExpr, x: Point, h: Point, t: float, tol: float = DEFAULT_SERIES_TOL
) -> SeriesValue:
    """f(x + t*h) - f(x) as a certified value, for a general direction h.

    Differences are taken term by term before summation, so the result's
    error bound does not inherit the catastrophic cancellation of
    subtracting two full series evaluations.
    """
    return basis_partials(f, x).series_line(h)(t, tol)


#: Indices whose per-index constants a series line keeps.  Directions with
#: geometric tails need a few hundred at the quotient scan's tolerances;
#: beyond the bound each term is resolved afresh.
_TABLE_LIMIT = 4096


def _line_majorant(f: SeparableSeries, x: Point, h: Point, tau: float) -> SymSeq:
    """The majorant of a series line's difference terms beyond its tail
    start, at the step size tau = |t|.

    With h_abs = |h tail| * tau it is w h_abs for |.|, w |b| h_abs for
    linear pieces, w h_abs (2|x| + h_abs) for squares,
    w (|a| h_abs (2|x| + h_abs) + |b| h_abs) for affine quadratics and
    w |c| sqrt(h_abs) for sqrt pieces, as |sqrt(u+d) - sqrt(u)| <= sqrt(|d|)
    on the nonnegative domain; each factor is taken term by term in
    absolute value, so no coefficient cancels.
    """
    inner = f.inner
    kind = inner.kind
    w_abs = f.weight.abs_terms()
    h_abs = h.tail.abs_terms().scaled(tau)
    if kind is ScalarKind.ABS:
        return w_abs * h_abs
    if kind is ScalarKind.LINEAR:
        return w_abs * inner.b.abs_terms() * h_abs
    if kind is ScalarKind.NEG_SQRT:
        return w_abs * inner.c.abs_terms() * _sqrt_majorant(h_abs)
    x2 = x.tail.abs_terms().scaled(2)
    if kind is ScalarKind.SQUARE:
        return w_abs * h_abs * (x2 + h_abs)
    return w_abs * (inner.a.abs_terms() * h_abs * (x2 + h_abs) + inner.b.abs_terms() * h_abs)


def _separable_delta_line(
    f: SeparableSeries, x: Point, h: Point
) -> Callable[[float, float], SeriesValue]:
    """The series line of a separable leaf along h."""
    weight, inner = f.weight, f.inner
    kind = inner.kind

    def term(n: int) -> Callable[[float], float]:
        return inner.line(n, x.coordinate(n), weight.coordinate(n), h.coordinate(n))

    # Outside sqrt pieces the domain rank of x + t h is its tail start,
    # max(x.tail_start, h.tail_start), whatever t is.
    start = max(x.tail_start, h.tail_start)
    sqrt_piece = kind is ScalarKind.NEG_SQRT
    x_rank: Optional[int] = None
    # the n-th weighted term's line, t -> w_n * (u_n(x_n + t h_n) - u_n(x_n)),
    # for n = 1, 2, ... as far as the explicit regions of the steps so far
    # have reached, up to a bound that caps the memory of slowly converging
    # majorants (entry 0 unused)
    table: list = [None]
    # The certified region of each step's majorant, keyed by (|t|, tol,
    # first): the majorant depends on |t| alone, so the two sides of a
    # quotient scan share one majorant and one doubling search per step
    # size, and only the head sum runs per sign of t.
    regions: dict[tuple[float, float, int], tuple[int, float]] = {}

    def step(t: float, tol: float) -> SeriesValue:
        nonlocal x_rank
        first = start
        if sqrt_piece:
            xt = point_axpy(x, t, h)
            if x_rank is None:
                # raises afresh at every step while x is outside the domain
                x_rank = _separable_domain_rank(f, x)
            first = max(x_rank, _separable_domain_rank(f, xt), start)
        key = (abs(t), tol, first)
        k_bound = regions.get(key)
        if k_bound is None:
            major = _line_majorant(f, x, h, abs(t))
            if classify(major) != SUMMABLE:
                raise NoMajorant("difference terms have no summable majorant")
            k_bound = regions[key] = majorant_region(major, first, tol)
        k = k_bound[0]
        while len(table) <= min(k, _TABLE_LIMIT):
            table.append(term(len(table)))
        heads = [g(t) for g in table[1 : k + 1]]
        heads += [term(n)(t) for n in range(len(table), k + 1)]
        return head_sum(heads, k_bound)

    return step


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------


def scalar_to_json(u: ScalarConvex) -> dict:
    if u.kind is ScalarKind.ABS:
        return {"kind": "abs"}
    if u.kind is ScalarKind.SQUARE:
        return {"kind": "square"}
    if u.kind is ScalarKind.AFFINE_QUAD:
        return {"kind": "affine_quad", "a": coef_to_json(u.a), "b": coef_to_json(u.b)}
    if u.kind is ScalarKind.NEG_SQRT:
        return {"kind": "neg_sqrt", "c": coef_to_json(u.c)}
    return {"kind": "linear", "b": coef_to_json(u.b)}


#: The fields of each scalar piece's JSON object.
_SCALAR_FIELDS = {
    "abs": frozenset({"kind"}),
    "square": frozenset({"kind"}),
    "affine_quad": frozenset({"kind", "a", "b"}),
    "neg_sqrt": frozenset({"kind", "c"}),
    "linear": frozenset({"kind", "b"}),
}


def scalar_from_json(obj: dict) -> ScalarConvex:
    kind = json_kind(obj, "scalar piece", _SCALAR_FIELDS)
    if kind == "abs":
        return ScalarConvex.abs_()
    if kind == "square":
        return ScalarConvex.square()
    if kind == "affine_quad":
        return ScalarConvex.affine_quad(
            json_field(obj, "a", coef_from_json), json_field(obj, "b", coef_from_json)
        )
    if kind == "neg_sqrt":
        return ScalarConvex.neg_sqrt(json_field(obj, "c", coef_from_json))
    return ScalarConvex.linear(json_field(obj, "b", coef_from_json))


def function_to_json(f: FunctionExpr) -> dict:
    if isinstance(f, Constant):
        return {"kind": "constant", "c": f.c}
    if isinstance(f, LimsupSeminorm):
        return {"kind": "limsup"}
    if isinstance(f, LinearFunctional):
        return {"kind": "linear_functional", "p": dual_to_json(f.p)}
    if isinstance(f, SeparableSeries):
        return {
            "kind": "separable",
            "weight": coef_to_json(f.weight),
            "inner": scalar_to_json(f.inner),
        }
    if isinstance(f, Scale):
        return {"kind": "scale", "lam": f.lam, "inner": function_to_json(f.inner)}
    if isinstance(f, Sum):
        return {"kind": "sum", "terms": [function_to_json(g) for g in f.terms]}
    raise TypeError(f"unknown function expression {type(f).__name__}")


#: The fields of each function's JSON object.
_FUNCTION_FIELDS = {
    "constant": frozenset({"kind", "c"}),
    "limsup": frozenset({"kind"}),
    "linear_functional": frozenset({"kind", "p"}),
    "separable": frozenset({"kind", "weight", "inner"}),
    "scale": frozenset({"kind", "lam", "inner"}),
    "sum": frozenset({"kind", "terms"}),
}


def function_from_json(obj: dict) -> FunctionExpr:
    kind = json_kind(obj, "function", _FUNCTION_FIELDS)
    if kind == "constant":
        return Constant(json_field(obj, "c", json_number))
    if kind == "limsup":
        return LimsupSeminorm()
    if kind == "linear_functional":
        return LinearFunctional(json_field(obj, "p", dual_from_json))
    if kind == "separable":
        return SeparableSeries(
            json_field(obj, "weight", coef_from_json), json_field(obj, "inner", scalar_from_json)
        )
    if kind == "scale":
        return Scale(json_field(obj, "lam", json_number, 0.0), json_field(obj, "inner", function_from_json))
    return Sum(json_field(obj, "terms", json_list, function_from_json, True))
