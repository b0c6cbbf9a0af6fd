"""Closed-form sequence algebra: finite sums of terms ``c * rho**n * n**(-s)``.

Every coordinate tail, series weight, and basis-direction derivative that the
function grammar produces is, beyond a finite prefix, a sequence of this
shape.  The algebra supports exact arithmetic, an identically-zero test valid
for *all* indices, an eventual-sign decision procedure, and rigorously
bounded tail sums.  These three capabilities are what turn "for all n"
claims into finite checks.

Exact coefficients, ratios and powers are :class:`Dyadic` numbers m * 2**e.
Every double is one, and sums and products of dyadics are dyadics, so the
algebra's exact arithmetic runs on integer pairs without a gcd.  A value
that is not dyadic (the reciprocal of 3, say, or a caller's own
``Fraction(1, 3)``) is held as a Fraction, and arithmetic that mixes the
two returns a Fraction.  Both are exact; a float coefficient is not.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

from .errors import NoMajorant

#: Relative slop applied per explicitly summed term to cover accumulated
#: floating-point rounding in otherwise-certified sums.
_ULP = 2.2e-16

#: The numeric hash modulus is the Mersenne prime 2**_HASH_BITS - 1, so
#: 2**e is 2**(e mod _HASH_BITS) modulo it, for negative e too.
_HASH_BITS = sys.hash_info.modulus.bit_length()


def _binary(dyadic_op, fallback):
    """The forward and reverse methods of one Dyadic operator: ``dyadic_op``
    on two Dyadics (an int operand is made one), ``fallback`` on both
    operands as floats or as Fractions where the other operand is one."""

    def forward(a, b):
        if type(b) is not Dyadic:
            if isinstance(b, int):
                b = Dyadic.of(b)
            elif isinstance(b, float):
                return fallback(float(a), b)
            elif isinstance(b, Fraction):
                return fallback(Fraction(a), b)
            else:
                return NotImplemented
        return dyadic_op(a, b)

    def reverse(b, a):
        if isinstance(a, int):
            return dyadic_op(Dyadic.of(a), b)
        if isinstance(a, float):
            return fallback(a, float(b))
        if isinstance(a, Fraction):
            return fallback(a, Fraction(b))
        return NotImplemented

    return forward, reverse


class Dyadic:
    """The exact number m * 2**e, with m odd (or m == 0 and e == 0).

    The form is canonical, so equal values have equal fields.  A product
    needs no normalisation (odd times odd is odd) and a sum only strips
    trailing zero bits.  It compares, hashes and converts like the
    Fraction of its value: ``float()`` is correctly rounded and
    ``Fraction(d)`` works.  Arithmetic with an int or a Dyadic stays
    Dyadic, except a quotient that is not dyadic, which is a Fraction; with
    a Fraction it is a Fraction, and with a float a float.  Only the
    operations the algebra uses are defined: no powers, floor division or
    rounding.
    """

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int):
        # m odd or (0, 0); Dyadic.of brings any other pair to that form
        self.m = m
        self.e = e

    @staticmethod
    def of(m: int, e: int = 0) -> Dyadic:
        """m * 2**e in canonical form, for any int m."""
        if not m:
            return _ZERO
        zeros = (m & -m).bit_length() - 1
        return Dyadic(m >> zeros, e + zeros)

    @staticmethod
    def from_float(x: float) -> Dyadic:
        n, d = x.as_integer_ratio()
        return Dyadic.of(n, 1 - d.bit_length())

    # -- views ---------------------------------------------------------------

    def as_integer_ratio(self) -> tuple[int, int]:
        m, e = self.m, self.e
        return (m, 1 << -e) if e < 0 else (m << e, 1)

    @property
    def numerator(self) -> int:
        return self.as_integer_ratio()[0]

    @property
    def denominator(self) -> int:
        return self.as_integer_ratio()[1]

    def __float__(self) -> float:
        m, e = self.m, self.e
        if e >= -1074 and m.bit_length() <= 53:
            return math.ldexp(m, e)  # exact: m * 2**e is a double
        return m / (1 << -e) if e < 0 else float(m << e)  # correctly rounded

    def __bool__(self) -> bool:
        return self.m != 0

    def __hash__(self) -> int:
        h = hash(hash(abs(self.m)) << self.e % _HASH_BITS)
        h = h if self.m >= 0 else -h
        return -2 if h == -1 else h

    def __repr__(self) -> str:
        return f"Dyadic({self.m}, {self.e})"

    # -- comparison ----------------------------------------------------------

    def _compare(self, other, op):
        if type(other) is int:
            m, e = self.m, self.e
            return op(m << e, other) if e >= 0 else op(m, other << -e)
        if type(other) is not Dyadic and not isinstance(other, (int, Fraction)):
            if not isinstance(other, float):
                return NotImplemented
            if not math.isfinite(other):
                return op(0.0, other)
        n, d = self.as_integer_ratio()
        on, od = other.as_integer_ratio()
        return op(n * od, on * d)

    def __eq__(self, other):
        if type(other) is Dyadic:
            return self.m == other.m and self.e == other.e
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> Dyadic:
        return Dyadic(-self.m, self.e)

    def __abs__(self) -> Dyadic:
        return self if self.m >= 0 else Dyadic(-self.m, self.e)

    def _add(a: Dyadic, b: Dyadic) -> Dyadic:
        shift = a.e - b.e
        if shift >= 0:
            return Dyadic.of((a.m << shift) + b.m, b.e)
        return Dyadic.of(a.m + (b.m << -shift), a.e)

    def _sub(a: Dyadic, b: Dyadic) -> Dyadic:
        return a._add(-b)

    def _mul(a: Dyadic, b: Dyadic) -> Dyadic:
        m = a.m * b.m
        return Dyadic(m, a.e + b.e) if m else _ZERO

    def _truediv(a: Dyadic, b: Dyadic) -> Union[Dyadic, Fraction]:
        if b.m in (1, -1):
            return Dyadic(a.m * b.m, a.e - b.e)
        return Fraction(a) / Fraction(b)

    __add__, __radd__ = _binary(_add, operator.add)
    __sub__, __rsub__ = _binary(_sub, operator.sub)
    __mul__, __rmul__ = _binary(_mul, operator.mul)
    __truediv__, __rtruediv__ = _binary(_truediv, operator.truediv)


_ZERO, _ONE = Dyadic(0, 0), Dyadic(1, 0)
numbers.Rational.register(Dyadic)

Number = Union[Dyadic, Fraction, float]
#: The types of an exact coefficient or ratio, read by ``type(x) in``: an
#: isinstance check on Fraction goes through its ABC and costs far more.
_EXACT = frozenset((Dyadic, Fraction))


def _to_number(x) -> Number:
    """An exact number: a Dyadic for every float, int and dyadic Fraction,
    the caller's Fraction itself for any other."""
    if type(x) is Dyadic:
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite coefficient {x!r}")
        return Dyadic.from_float(x)
    if isinstance(x, int):
        return Dyadic.of(x)
    if isinstance(x, Fraction):
        d = x.denominator
        return x if d & (d - 1) else Dyadic.of(x.numerator, 1 - d.bit_length())
    raise TypeError(f"cannot use {type(x).__name__} as a coefficient")


def exact_sqrt(q: Number) -> tuple[Number, bool]:
    """Square root, exact when the operand is a perfect rational square.

    Returns (root, exact).  Inexact roots come back as floats.  A Dyadic
    m * 2**e is a square exactly when m is one and e is even.
    """
    if type(q) is Dyadic:
        if q.m < 0:
            raise ValueError("sqrt of negative value")
        root = math.isqrt(q.m)
        if root * root == q.m and not q.e % 2:
            return Dyadic(root, q.e // 2), True
        return math.sqrt(float(q)), False
    if isinstance(q, Fraction):
        if q < 0:
            raise ValueError("sqrt of negative value")
        rn = math.isqrt(q.numerator)
        rd = math.isqrt(q.denominator)
        if rn * rn == q.numerator and rd * rd == q.denominator:
            return Fraction(rn, rd), True
        return math.sqrt(float(q)), False
    if q < 0:
        raise ValueError("sqrt of negative value")
    return math.sqrt(q), False


@dataclass(frozen=True)
class SymTerm:
    """One term ``coef * ratio**n * n**(-npow)`` of a closed-form sequence."""

    coef: Number
    ratio: Number
    npow: Number

    @cached_property
    def _floats(self) -> Optional[tuple[float, float, float, float]]:
        """(coef, ratio, log|ratio|, -npow) as floats; None when coef is 0.

        Taken once per term on first use, not at construction, so an exact
        number beyond the float range still raises only where a value is
        needed.
        """
        if self.coef == 0:
            return None
        r = float(self.ratio)
        log_r = math.log(abs(r)) if r != 0.0 else 0.0
        return float(self.coef), r, log_r, -float(self.npow)

    @cached_property
    def _shape(self) -> tuple[float, float]:
        """(ratio, npow) as floats, for classification and dominance order.

        Kept apart from ``_floats``: the coefficient may lie beyond the
        float range where the ratio does not.  A ratio beyond it raises
        OverflowError at every read, as the plain conversion did.
        """
        return float(self.ratio), float(self.npow)

    def value_at(self, n: int) -> float:
        floats = self._floats
        if floats is None:
            return 0.0
        coef, r, log_r, neg_s = floats
        # r**n with r possibly negative and n large: compute via magnitude.
        if r == 0.0:
            power = 1.0 if n == 0 else 0.0
        else:
            logmag = n * log_r
            if logmag < -745.0:
                power = 0.0
            else:
                power = math.exp(logmag)
            if r < 0 and n % 2 == 1:
                power = -power
        return coef * power * float(n) ** neg_s

    @property
    def is_exact(self) -> bool:
        return type(self.coef) in _EXACT and type(self.ratio) in _EXACT


class SymSeq:
    """A finite sum of :class:`SymTerm`, canonicalized by (ratio, npow) key.

    ``exact`` is True when every coefficient survived in exact arithmetic,
    which is what entitles a zero test to the ANALYTIC grade.  Sequences
    compare and hash by their terms and ``exact``; the zero one is falsy.
    ``atoms`` holds a canonical form's atoms (:func:`point_form`) and is
    None on any other sequence.
    """

    __slots__ = ("terms", "exact", "atoms")

    def __init__(self, terms: Iterable[SymTerm] = (), exact: bool = True):
        merged: dict[tuple, SymTerm] = {}
        all_exact = exact
        for t in terms:
            if not t.is_exact:
                all_exact = False
            # Exact values as integer ratios: equal ratios and powers merge
            # whether held as Dyadics, Fractions or floats, unequal ones
            # never do, however close their doubles (and the key hashes
            # cheaply).
            key = (t.ratio.as_integer_ratio(), t.npow.as_integer_ratio())
            if key in merged:
                old = merged[key]
                coef = old.coef + t.coef
                merged[key] = SymTerm(coef, old.ratio, old.npow)
            else:
                merged[key] = t
        self.terms = tuple(t for t in merged.values() if t.coef or not t.is_exact)
        self.exact = all_exact
        self.atoms: Optional[tuple[tuple[str, float, float], ...]] = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymSeq):
            return NotImplemented
        return self.terms == other.terms and self.exact == other.exact

    def __hash__(self) -> int:
        return hash((self.terms, self.exact))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> SymSeq:
        return SymSeq(())

    @staticmethod
    def term(c, r, s) -> SymSeq:
        return SymSeq((SymTerm(_to_number(c), _to_number(r), _to_number(s)),))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: SymSeq) -> SymSeq:
        return SymSeq(self.terms + other.terms, exact=self.exact and other.exact)

    def __neg__(self) -> SymSeq:
        return SymSeq(
            tuple(SymTerm(-t.coef, t.ratio, t.npow) for t in self.terms),
            exact=self.exact,
        )

    def __sub__(self, other: SymSeq) -> SymSeq:
        return self + (-other)

    def scaled(self, c) -> SymSeq:
        c = _to_number(c)
        return SymSeq(
            tuple(SymTerm(t.coef * c, t.ratio, t.npow) for t in self.terms),
            exact=self.exact,
        )

    def __mul__(self, other: SymSeq) -> SymSeq:
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(SymTerm(a.coef * b.coef, a.ratio * b.ratio, a.npow + b.npow))
        return SymSeq(tuple(out), exact=self.exact and other.exact)

    def abs_terms(self) -> SymSeq:
        """Term-wise absolute value, |c| |rho|**n n**(-s): a majorant of |seq(n)|."""
        return SymSeq(
            tuple(SymTerm(abs(t.coef), abs(t.ratio), t.npow) for t in self.terms),
            exact=self.exact,
        )

    def sqrt(self) -> SymSeq:
        """Square root of a single-term, eventually positive sequence."""
        if len(self.terms) != 1:
            raise ValueError("sqrt needs a single-term sequence")
        t = self.terms[0]
        if t.coef <= 0 or t.ratio <= 0:
            raise ValueError("sqrt needs positive coefficient and ratio")
        rc, ec = exact_sqrt(t.coef)
        rr, er = exact_sqrt(t.ratio)
        return SymSeq(
            (SymTerm(rc, rr, t.npow / 2),),
            exact=self.exact and ec and er,
        )

    def reciprocal(self) -> SymSeq:
        if len(self.terms) != 1:
            raise ValueError("reciprocal needs a single-term sequence")
        t = self.terms[0]
        if t.coef == 0 or t.ratio == 0:
            raise ValueError("reciprocal of a vanishing term")
        return SymSeq((SymTerm(1 / t.coef, 1 / t.ratio, -t.npow),), exact=self.exact)

    # -- queries -----------------------------------------------------------

    def value_at(self, n: int) -> float:
        return sum((t.value_at(n) for t in self.terms), 0.0)

    def coordinate(self, n: int) -> float:
        """The value at index n of a canonical form (:func:`point_form`):
        its atoms' c, c * r**n or c / n, summed left to right.

        Coordinates and per-index coefficients read this way: value_at's
        exp(n log|r|) * n**-s differs in the last bits at most geometric
        and many harmonic indices.  Tail sums and sign tests keep value_at.
        """
        value = None
        for kind, c, r in self.atoms:
            v = c if kind == "const" else c / n if kind == "harmonic" else c * r**n
            value = v if value is None else value + v
        return 0.0 if value is None else value

    def column(self, a: int, b: int) -> list[float]:
        """[coordinate(n) for n in a..b], one list per atom, the atoms'
        lists summed left to right as coordinate sums them."""
        ns = range(a, b + 1)
        out = None
        for kind, c, r in self.atoms:
            if kind == "const":
                vs = [c] * len(ns)
            elif kind == "harmonic":
                vs = [c / n for n in ns]
            else:
                vs = [c * r**n for n in ns]
            out = vs if out is None else [p + v for p, v in zip(out, vs)]
        return [0.0] * len(ns) if out is None else out

    @property
    def is_zero(self) -> bool:
        """Identically zero for all n; trustworthy only with ``exact``."""
        if self.exact:
            return all(t.coef == 0 for t in self.terms)
        return all(abs(float(t.coef)) <= 1e-14 for t in self.terms)

    def eventual_sign(self, start: int = 1) -> tuple[int, int]:
        """Sign of the sequence for all n >= some rank.

        Returns ``(sign, valid_from)`` with sign in {-1, 0, +1}: the sequence
        has that strict sign for every n >= valid_from (sign 0 means
        identically zero from ``start``).  Raises ValueError when no single
        eventual sign exists (alternating dominant term).
        """
        live = [t for t in self.terms if t.coef != 0]
        if not live:
            return 0, start
        # Dominance order: larger |ratio| wins; ties broken by smaller npow.
        live.sort(key=lambda t: (-abs(t._shape[0]), t._shape[1]))
        dom = live[0]
        if dom._shape[0] < 0:
            # Check a same-magnitude positive-ratio partner that could mask it.
            raise ValueError("alternating dominant term; no eventual sign")
        rest = live[1:]
        sign = 1 if dom.coef > 0 else -1
        n = max(start, 2)
        for _ in range(200):
            if self._dominates(dom, rest, n):
                return sign, n
            n *= 2
        raise ValueError("could not certify dominance rank")

    @staticmethod
    def _dominates(dom: SymTerm, rest: list[SymTerm], n: int) -> bool:
        """Certify |dom(m)| > sum |rest(m)| for all m >= n.

        Each ratio q_i(m) = |rest_i(m)| / |dom(m)| must be < 1/len(rest) at m=n
        and nonincreasing beyond it; the step factor is
        (|r_i|/|r_d|) * (1 + 1/m)**(s_d - s_i), monotone in m, so checking it
        at m=n covers all larger m.
        """
        if not rest:
            return True
        dv = abs(dom.value_at(n))
        if dv == 0.0:
            return False
        budget = 1.0 / (len(rest) + 1)
        for t in rest:
            q = abs(t.value_at(n)) / dv
            if not q < budget:
                return False
            rr = abs(t._shape[0]) / abs(dom._shape[0])
            p = float(dom.npow - t.npow)
            step = rr * (1.0 + 1.0 / n) ** p
            if not step <= 1.0:
                return False
        return True

    def __repr__(self) -> str:
        if not self.terms:
            return "SymSeq(0)"
        bits = [
            f"{float(t.coef):g}*({float(t.ratio):g})^n*n^-{float(t.npow):g}"
            for t in self.terms
        ]
        return "SymSeq(" + " + ".join(bits) + (")" if self.exact else ", inexact)")


#: (ratio, npow) of the atoms whose shape does not depend on r.
_SHAPES = {"const": (_ONE, _ZERO), "harmonic": (_ONE, _ONE)}


def point_form(atoms: Iterable[tuple[str, float, float]]) -> SymSeq:
    """The canonical sum of checked atoms ("const", c, 0.0), ("geometric",
    c, r) and ("harmonic", c, 0.0), in finite floats: the form of every
    point's tail and per-index coefficient.

    Same-shape atoms merge left to right in float arithmetic, and those
    with c == 0 or r == 0 drop out.  The constant comes first, then the
    geometric atoms by ascending r, then the harmonic one.  The terms hold
    the merged doubles exactly, and the atoms stay for ``coordinate``.  A
    merged coefficient that overflows raises ValueError.
    """
    const_c = harm_c = 0.0
    geo: dict[float, float] = {}
    for kind, c, r in atoms:
        if kind == "const":
            const_c += c
        elif kind == "harmonic":
            harm_c += c
        else:
            geo[r] = geo.get(r, 0.0) + c
    kept = [("const", const_c, 0.0)] if const_c != 0.0 else []
    kept += [("geometric", geo[r], r) for r in sorted(geo) if geo[r] != 0.0 and r != 0.0]
    if harm_c != 0.0:
        kept.append(("harmonic", harm_c, 0.0))
    for _, c, _ in kept:
        if not math.isfinite(c):
            raise ValueError(f"tail coefficients must sum to a finite number, got {c}")
    seq = SymSeq(
        SymTerm(Dyadic.from_float(c), *(_SHAPES.get(kind) or (Dyadic.from_float(r), _ZERO)))
        for kind, c, r in kept
    )
    seq.atoms = tuple(kept)
    return seq


# ---------------------------------------------------------------------------
# Certified tail summation
# ---------------------------------------------------------------------------

SUMMABLE = "summable"
DIVERGENT = "divergent"
NOT_ABSOLUTE = "not_absolute"


def classify_term(t: SymTerm) -> str:
    if t.coef == 0:
        return SUMMABLE
    ratio, s = t._shape
    r = abs(ratio)
    if r < 1.0:
        return SUMMABLE
    if r > 1.0:
        return DIVERGENT
    if ratio > 0:
        return SUMMABLE if s > 1.0 else DIVERGENT
    # ratio == -1: alternating
    if s > 1.0:
        return SUMMABLE
    return NOT_ABSOLUTE if s > 0.0 else DIVERGENT


def classify(seq: SymSeq) -> str:
    worst = SUMMABLE
    for t in seq.terms:
        c = classify_term(t)
        if c == DIVERGENT:
            return DIVERGENT
        if c == NOT_ABSOLUTE:
            worst = NOT_ABSOLUTE
    return worst


def _power_tail(s: float, shift: float, k: int) -> tuple[float, float]:
    """``sum_{m>k} (m+shift)**(-s)`` for s > 1, with a rigorous error bound.

    Four-term Euler-Maclaurin expansion at m = k+1; the remainder of the
    expansion for a completely monotone integrand is bounded by the first
    omitted correction.
    """
    x = k + 1 + shift
    val = x ** (1 - s) / (s - 1) + 0.5 * x ** (-s) + (s / 12.0) * x ** (-s - 1)
    val -= (s * (s + 1) * (s + 2) / 720.0) * x ** (-s - 3)
    err = (s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0) * x ** (-s - 5)
    # Also account for one rounding ulp per arithmetic step.
    err += 8 * abs(val) * _ULP
    return val, err


def _geometric_tail_start(coef: float, r: float, p: float, budget: float) -> int:
    """Smallest k so that |sum_{n>k} coef * r**n * n**p| <= budget.

    Uses the ratio test: once |r|(1+1/n)**p <= q < 1 for all n >= k, the
    remainder is bounded by |term(k+1)| / (1-q).  A k beyond 2**40 raises
    NoMajorant: the sum exists, but no certificate of it is within reach.
    """
    a = abs(coef)
    if a == 0.0:
        return 1
    r = abs(r)
    q = (1.0 + r) / 2.0
    k = 4
    while r * (1.0 + 1.0 / k) ** p > q:
        k *= 2
        if k > 1 << 40:
            raise NoMajorant("geometric tail decays too slowly to certify")
    while True:
        t = a * r ** (k + 1) * float(k + 1) ** p
        if t / (1.0 - q) <= budget or t == 0.0:
            return k
        k = int(k * 1.5) + 1
        if k > 1 << 40:
            raise NoMajorant("geometric tail decays too slowly to certify")


def tail_sum(seq: SymSeq, start: int, tol: float) -> tuple[float, float, int]:
    """``sum_{n>=start} seq(n)`` with certified absolute error <= tol.

    Returns (value, error_bound, terms_used).  Raises ValueError labelled
    with the classification when the sum is divergent or only conditionally
    convergent (callers translate to their domain-specific errors), and
    NoMajorant when a geometric term decays too slowly to certify or a
    coefficient is beyond the double range.
    """
    return tail_sums(seq, tol)(start)


def _value_runs(values: Callable[[int, int], list[float]]) -> Callable[[int, int], list[float]]:
    """(a, b) -> values(a, b), one term's values for n in a..b (b >= a - 1),
    each computed once while the requested runs stay contiguous (a run that
    starts elsewhere starts the store afresh)."""
    lo, vals = 1, []

    def run(a: int, b: int) -> list[float]:
        nonlocal lo, vals
        if not lo <= a <= lo + len(vals):
            lo, vals = a, []
        end = lo + len(vals)
        if b >= end:
            vals.extend(values(end, b))
        return vals[a - lo : b - lo + 1]

    return run


def tail_sums(seq: SymSeq, tol: float) -> Callable[[int], tuple[float, float, int]]:
    """``start -> tail_sum(seq, start, tol)``, for one sequence at many starts.

    The classification, each live term's float constants and geometric
    cut-off are taken once, here, and each term's values once per run of
    indices; every call re-sums them with ``sum`` in the order a fresh
    tail_sum would, so its results are the same bit for bit.
    """
    label = classify(seq)
    if label != SUMMABLE:
        raise ValueError(label)
    try:
        live = [t._floats for t in seq.terms if t.coef != 0]
    except OverflowError:
        live = None
    if live is None or not all(math.isfinite(c) for c, _, _, _ in live):
        raise NoMajorant("a tail coefficient is beyond the double range")
    budget = tol / (2 * max(len(live), 1))
    plans = []
    for floats in live:
        c, r, _, neg_s = floats
        s = -neg_s
        cut = _geometric_tail_start(c, r, -s, budget) if abs(r) < 1.0 else None
        plans.append((c, r, s, cut, _value_runs(_term_values(floats))))

    def at(start: int) -> tuple[float, float, int]:
        value = 0.0
        err = 0.0
        used = 0
        for c, r, s, cut, values in plans:
            if cut is not None:
                k = max(start - 1, cut)
                part = sum(values(start, k))
                q = (1.0 + abs(r)) / 2.0
                rem = abs(c) * abs(r) ** (k + 1) * float(k + 1) ** (-s) / (1.0 - q)
                value += part
                err += rem + abs(part) * (k - start + 2) * _ULP
                used = max(used, k - start + 1)
            elif r > 0:
                # ratio == 1, s > 1: explicit head + Euler-Maclaurin tail
                k = max(start + 15, 64)
                part = sum(values(start, k))
                tail, terr = _power_tail(s, 0.0, k)
                value += part + c * tail
                err += abs(c) * terr + abs(part) * (k - start + 2) * _ULP
                used = max(used, k - start + 1)
            else:
                # ratio == -1, s > 1: split into even/odd power tails
                k = max(start + 15, 64)
                if k % 2 == 1:
                    k += 1
                part = sum(values(start, k))
                # even n = 2m > k  =>  m > k/2 ; odd n = 2m-1 > k  =>  m > k/2
                half = k // 2
                ev, e1 = _power_tail(s, 0.0, half)
                od, e2 = _power_tail(s, -0.5, half)
                tail = (2.0 ** (-s)) * (ev - od)
                value += part + c * tail
                err += abs(c) * (2.0 ** (-s)) * (e1 + e2)
                err += abs(part) * (k - start + 2) * _ULP
                used = max(used, k - start + 1)
        return value, err, used

    return at


def _term_values(floats: tuple[float, float, float, float]) -> Callable[[int, int], list[float]]:
    """(a, b) -> [value_at(n) for n in a..b] of the term with these
    ``_floats``, by value_at's operations in its order, in one loop whose
    branch on the ratio's sign is taken once."""
    coef, r, log_r, neg_s = floats
    exp = math.exp
    if r == 0.0:
        return lambda a, b: [
            coef * (1.0 if n == 0 else 0.0) * float(n) ** neg_s for n in range(a, b + 1)
        ]
    if r > 0.0:
        return lambda a, b: [
            coef * (0.0 if (m := n * log_r) < -745.0 else exp(m)) * float(n) ** neg_s
            for n in range(a, b + 1)
        ]

    def alternating(a: int, b: int) -> list[float]:
        out = []
        for n in range(a, b + 1):
            logmag = n * log_r
            power = 0.0 if logmag < -745.0 else exp(logmag)
            if n % 2 == 1:
                power = -power
            out.append(coef * power * float(n) ** neg_s)
        return out

    return alternating
