"""Points, dual elements, projections, and certified series on sequence spaces.

Points are exact objects: a finite prefix of coordinates plus a closed-form
tail, so every coordinate, pairing, and series below is evaluated against an
analytic expression rather than a truncation someone eyeballed.  All types
are immutable values and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import DomainViolation, NoMajorant, NonConvergentPairing
from .symseq import _ULP, SUMMABLE, PolyMajorant, SymSeq, classify, tail_sum, tail_sums

DEFAULT_SERIES_TOL = 1e-12

#: Most explicit terms a majorant-bounded series sums.  A majorant that
#: needs more decays too slowly for the head sum to finish in reasonable
#: time: sum n^-3 alone needs about 10^6 terms to certify 1e-12.
_HEAD_BUDGET = 1 << 16


class TailKind(str, Enum):
    ZERO = "zero"
    CONST = "const"
    GEOMETRIC = "geometric"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class TailRule:
    """Closed-form rule for coordinates beyond a point's prefix.

    The value at (1-based) index n is 0, c, c*r**n, or c/n depending on the
    kind.  Geometric rules require |r| < 1 so that tails stay bounded and
    geometric-type series over them stay summable.
    """

    kind: TailKind
    c: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.r)):
            raise ValueError(f"tail coefficients must be finite, got c={self.c}, r={self.r}")
        if self.kind is TailKind.GEOMETRIC and not abs(self.r) < 1.0:
            raise ValueError(f"geometric tail needs |r| < 1, got r={self.r}")
        if self.kind is not TailKind.GEOMETRIC and self.r != 0.0:
            raise ValueError(f"tail kind {self.kind.value!r} takes no ratio")
        if self.kind is TailKind.ZERO and self.c != 0.0:
            raise ValueError("zero tail takes no coefficient")

    @staticmethod
    def zero() -> TailRule:
        return TailRule(TailKind.ZERO)

    @staticmethod
    def const(c: float) -> TailRule:
        return TailRule(TailKind.CONST, c=float(c))

    @staticmethod
    def geometric(c: float, r: float) -> TailRule:
        return TailRule(TailKind.GEOMETRIC, c=float(c), r=float(r))

    @staticmethod
    def harmonic(c: float) -> TailRule:
        return TailRule(TailKind.HARMONIC, c=float(c))

    def value_at(self, n: int) -> float:
        if self.kind is TailKind.ZERO:
            return 0.0
        if self.kind is TailKind.CONST:
            return self.c
        if self.kind is TailKind.HARMONIC:
            return self.c / n
        return self.c * self.r**n

    def to_symseq(self) -> SymSeq:
        """The rule as a closed-form sequence, built once per rule."""
        return self._symseq

    @cached_property
    def _symseq(self) -> SymSeq:
        # kept in the instance's __dict__, outside the fields, so equality
        # and hashing never see it
        if self.kind is TailKind.ZERO:
            return SymSeq.zero()
        if self.kind is TailKind.CONST:
            return SymSeq.constant(self.c)
        if self.kind is TailKind.HARMONIC:
            return SymSeq.harmonic(self.c)
        return SymSeq.geometric(self.c, self.r)


def _canonical_tail(atoms: Iterable[TailRule]) -> tuple[TailRule, ...]:
    """Merge same-shape atoms, drop vanishing ones, order deterministically."""
    const_c = 0.0
    harm_c = 0.0
    geo: dict[float, float] = {}
    for a in atoms:
        if a.kind is TailKind.ZERO:
            continue
        elif a.kind is TailKind.CONST:
            const_c += a.c
        elif a.kind is TailKind.HARMONIC:
            harm_c += a.c
        else:
            geo[a.r] = geo.get(a.r, 0.0) + a.c
    out: list[TailRule] = []
    if const_c != 0.0:
        out.append(TailRule.const(const_c))
    for r in sorted(geo):
        if geo[r] != 0.0 and r != 0.0:
            out.append(TailRule.geometric(geo[r], r))
    if harm_c != 0.0:
        out.append(TailRule.harmonic(harm_c))
    return tuple(out)


def _coerce_tail(tail) -> tuple[TailRule, ...]:
    if isinstance(tail, TailRule):
        return _canonical_tail((tail,))
    return _canonical_tail(tail)


@dataclass(frozen=True)
class Point:
    """A sequence-space element: finite prefix plus closed-form tail.

    ``prefix[i]`` holds coordinate i+1; the tail atoms (summed together)
    give every coordinate beyond ``len(prefix)``.  A single TailRule is
    accepted anywhere a tail is expected; sums of atoms arise from point
    arithmetic and are kept in canonical form so equality is structural.
    """

    prefix: tuple[float, ...] = ()
    tail: tuple[TailRule, ...] = ()

    def __init__(self, prefix: Sequence[float] = (), tail=()):
        prefix = tuple(float(v) for v in prefix)
        if not all(map(math.isfinite, prefix)):
            raise ValueError(f"point coordinates must be finite, got {list(prefix)}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", _coerce_tail(tail))

    @staticmethod
    def zero() -> Point:
        return Point((), ())

    @property
    def tail_start(self) -> int:
        """First index governed by the tail rule."""
        return len(self.prefix) + 1

    def coordinate(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"coordinate index must be >= 1, got {n}")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return sum((a.value_at(n) for a in self.tail), 0.0)

    def tail_symseq(self) -> SymSeq:
        """The tail atoms' sum as one closed-form sequence, built once per point."""
        return self._tail_symseq

    @cached_property
    def _tail_symseq(self) -> SymSeq:
        out = SymSeq.zero()
        for a in self.tail:
            out = out + a.to_symseq()
        return out

    def is_finitely_supported(self) -> bool:
        return not self.tail

    def __repr__(self) -> str:
        tails = ",".join(
            f"{a.kind.value}({a.c:g}" + (f",{a.r:g})" if a.r else ")")
            for a in self.tail
        ) or "zero"
        return f"Point(prefix={list(self.prefix)!r}, tail={tails})"


# Dual elements share the prefix-plus-tail representation; pairings against
# points are certified series.  The name stays for signatures and callers.
DualPoint = Point


class SpaceKind(str, Enum):
    RN = "rn"
    ELL1 = "ell1"
    ELLINF = "ellinf"


@dataclass(frozen=True)
class SpaceDescriptor:
    """Which sequence space we are working in, and what its basis offers.

    The coordinate basis is topological for the metric space of all
    sequences and for ell1; it is not a topological basis for ellinf,
    which is why differentiability claims there are capped.
    """

    kind: SpaceKind

    @property
    def basis_is_topological(self) -> bool:
        return self.kind is not SpaceKind.ELLINF

    @staticmethod
    def rn() -> SpaceDescriptor:
        return SpaceDescriptor(SpaceKind.RN)

    @staticmethod
    def ell1() -> SpaceDescriptor:
        return SpaceDescriptor(SpaceKind.ELL1)

    @staticmethod
    def ellinf() -> SpaceDescriptor:
        return SpaceDescriptor(SpaceKind.ELLINF)


@dataclass(frozen=True)
class SeriesValue:
    """A numeric sum together with a proven bound on its error."""

    value: float
    error_bound: float
    terms_used: int

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error bound must be nonnegative")


# ---------------------------------------------------------------------------
# Basis vectors and projections
# ---------------------------------------------------------------------------


def basis_vector(n: int) -> Point:
    """The n-th coordinate basis vector (0, ..., 0, 1, 0, ...)."""
    if n < 1:
        raise ValueError(f"basis index must be >= 1, got {n}")
    return Point((0.0,) * (n - 1) + (1.0,), ())


dual_basis_vector = basis_vector


def project(x: Point, k: int, anchor: Point = Point((), ())) -> Point:
    """Anchored projection: anchor + P^k(x - anchor).

    The first k coordinates come from x, everything beyond from the anchor.
    With the zero anchor this is the plain truncation P^k(x).  The result is
    exactly representable (prefix out to max(k, both prefixes), tail of the
    anchor), and the operation is idempotent for fixed k and anchor.
    """
    if k < 0:
        raise ValueError(f"projection rank must be >= 0, got {k}")
    m = max(k, len(anchor.prefix))
    prefix = tuple(
        x.coordinate(n) if n <= k else anchor.coordinate(n) for n in range(1, m + 1)
    )
    return Point(prefix, anchor.tail)


# ---------------------------------------------------------------------------
# Point arithmetic
# ---------------------------------------------------------------------------


def point_add(x: Point, y: Point) -> Point:
    m = max(len(x.prefix), len(y.prefix))
    prefix = tuple(x.coordinate(n) + y.coordinate(n) for n in range(1, m + 1))
    # Any atom whose region starts inside the other prefix still evaluates
    # identically there because prefixes were extended to the common length.
    return Point(prefix, x.tail + y.tail)


def point_scale(c: float, x: Point) -> Point:
    c = float(c)
    scaled = tuple(
        TailRule(a.kind, c=c * a.c, r=a.r) if a.kind is not TailKind.ZERO else a
        for a in x.tail
    )
    return Point(tuple(c * v for v in x.prefix), scaled)


def point_sub(x: Point, y: Point) -> Point:
    return point_add(x, point_scale(-1.0, y))


def point_axpy(x: Point, t: float, h: Point) -> Point:
    """x + t*h, exact in the representation."""
    return point_add(x, point_scale(t, h))


def points_equal(x: Point, y: Point) -> bool:
    """Structural equality of canonical forms (exact, all coordinates)."""
    if x.prefix == y.prefix and x.tail == y.tail:
        return True
    m = max(len(x.prefix), len(y.prefix))
    if any(x.coordinate(n) != y.coordinate(n) for n in range(1, m + 1)):
        return False
    return x.tail == y.tail or (point_sub(x, y).tail_symseq().is_zero)


# ---------------------------------------------------------------------------
# Membership and norms
# ---------------------------------------------------------------------------


def in_ell1(x: Point) -> bool:
    """Absolute summability, decided from the tail rule."""
    return classify(x.tail_symseq()) == SUMMABLE


def in_space(x: Point, space: SpaceDescriptor) -> bool:
    return space.kind is not SpaceKind.ELL1 or in_ell1(x)


class CoordinateSigns(NamedTuple):
    """The answer of :func:`coordinate_signs`."""

    ok: Optional[bool]  # None: no certified tail sign and no violation near
    n: Optional[int]  # the first violating index found
    rank: int  # where the tail's certified sign starts (else its tail start)
    eventual: bool = False  # the violation is the tail's own sign from n = rank on
    unsettled: Optional[str] = None  # why the tail has no certified eventual sign


def coordinate_signs(x: Point, strict: bool = False) -> CoordinateSigns:
    """Is every coordinate of x >= 0 (> 0 when strict)?

    The one sign rule behind set membership, qualification's interior test
    and the domain of sqrt pieces.  Without a certified eventual sign the
    tail's first 256 coordinates are searched for a violation.
    """
    def first_bad(ns: range, value: Callable[[int], float]) -> Optional[int]:
        for n in ns:
            v = value(n)
            if v < 0.0 or (strict and v == 0.0):
                return n
        return None

    start = x.tail_start
    n = first_bad(range(1, start), x.coordinate)
    if n is not None:
        return CoordinateSigns(False, n, start)
    seq = x.tail_symseq()
    try:
        sgn, rank = seq.eventual_sign(start) if seq.terms else (0, start)
    except ValueError as exc:
        n = first_bad(range(start, start + 256), seq.value_at)
        return CoordinateSigns(None if n is None else False, n, start, unsettled=str(exc))
    rank = max(start, rank)
    if sgn < 0 or (sgn == 0 and strict):
        return CoordinateSigns(False, rank, rank, True)
    n = first_bad(range(start, rank), seq.value_at)
    return CoordinateSigns(n is None, n, rank)


def ell1_norm(x: Point, tol: float = DEFAULT_SERIES_TOL) -> SeriesValue:
    """Certified sum of |coordinates|; rejects points outside ell1."""
    if not in_ell1(x):
        raise DomainViolation("point is not absolutely summable")
    return certified_series(
        lambda n: abs(x.coordinate(n)),
        x.tail_start,
        tol,
        majorant=x.tail_symseq().abs_terms(),
    )


def tail_limit(x: Point) -> float:
    """lim x_n, with its sign.

    Geometric and harmonic components vanish at infinity, so the limit of
    the tail exists and equals the summed constant coefficients.
    """
    c = 0.0
    for a in x.tail:
        if a.kind is TailKind.CONST:
            c += a.c
    return c


def limsup_abs(x: Point) -> float:
    """limsup |x_n|: the magnitude of the tail's limit."""
    return abs(tail_limit(x))


# ---------------------------------------------------------------------------
# Pairings and certified series
# ---------------------------------------------------------------------------


def pair(p: DualPoint, x: Point, tol: float = DEFAULT_SERIES_TOL) -> SeriesValue:
    """Duality pairing <p, x> = sum of p_n * x_n, certified to tol.

    Raises NonConvergentPairing when the closed forms do not guarantee an
    absolutely convergent series (for example two constant tails over the
    space of all sequences).
    """
    return pairing(p, x)(tol)


def pairing(p: DualPoint, x: Point) -> Callable[[float], SeriesValue]:
    """The tolerance-independent half of :func:`pair`.

    The tail product and the explicit head sum are formed once; the
    returned step certifies the tail sum at a given tolerance and combines
    the two, so pairings of one p and x at many tolerances share the rest.
    """
    return coefficient_pairing(p.coordinate, len(p.prefix), p.tail_symseq(), x)


def coefficient_pairing(
    coefficient: Callable[[int], float], known: int, tail: SymSeq, x: Point
) -> Callable[[float], SeriesValue]:
    """:func:`pairing` of x with any coefficient sequence.

    ``coefficient(n)`` gives the coefficients through n = ``known`` and
    ``tail`` their closed form beyond; the explicit head runs through the
    longer of the two prefixes.
    """
    k0 = max(known, len(x.prefix))
    prod = tail * x.tail_symseq()
    head = sum(coefficient(n) * x.coordinate(n) for n in range(1, k0 + 1))

    def at_tol(tol: float) -> SeriesValue:
        try:
            return _head_plus_tail(head, prod, k0 + 1, tol)
        except ValueError as exc:
            raise NonConvergentPairing(
                f"pairing series not certified absolutely convergent ({exc})"
            ) from exc

    return at_tol


def _head_plus_tail(head: float, tail: SymSeq, start: int, tol: float) -> SeriesValue:
    """The one head-plus-tail sum: ``head``, the explicit sum of the terms
    below ``start``, plus tail's certified sum from ``start`` on within
    tol / 2, with both parts' rounding in the error.  Raises ValueError
    (from tail_sum) when the tail is not absolutely summable."""
    tval, terr, used = tail_sum(tail, start, tol / 2)
    err = terr + (abs(head) + abs(tval)) * (start + 1) * _ULP
    return SeriesValue(head + tval, err, start - 1 + used)


def certified_series(
    term_at: Callable[[int], float],
    tail_start: int,
    tol: float = DEFAULT_SERIES_TOL,
    *,
    tail: SymSeq | None = None,
    majorant: SymSeq | None = None,
) -> SeriesValue:
    """Sum of term_at(n) over n >= 1 with a proven error bound.

    Terms below ``tail_start`` are evaluated directly.  Beyond it, either
    ``tail`` gives the terms' exact closed form (summed analytically), or
    ``majorant`` bounds |term_at(n)| by a summable closed form, in which
    case the explicit region is doubled until the majorant's remainder
    fits inside tol; a region past _HEAD_BUDGET terms, or neither form,
    means no certificate is possible (NoMajorant).
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if tail is not None:
        if classify(tail) != SUMMABLE:
            raise NoMajorant(f"series tail is {classify(tail)}")
        head = sum(term_at(n) for n in range(1, tail_start))
        return _head_plus_tail(head, tail, tail_start, tol)
    if majorant is None:
        raise NoMajorant("no closed-form tail or majorant supplied")
    if classify(majorant) != SUMMABLE:
        raise NoMajorant(f"series majorant is {classify(majorant)}")
    region = majorant_region(majorant, tail_start, tol)
    return head_sum(map(term_at, range(1, region[0] + 1)), region)


def majorant_region(
    majorant: SymSeq | PolyMajorant, tail_start: int, tol: float, tau: float | None = None
) -> tuple[int, float]:
    """The region step of :func:`certified_series`: its doubling search.

    Returns ``(k, bound)``: the terms n <= k are summed explicitly, and
    ``bound`` certifies the majorant's remainder beyond k, within tol / 2.
    The region starts at tail_start - 1 and doubles (to 16 at least) until
    the remainder fits; past _HEAD_BUDGET terms it raises NoMajorant.  The
    majorant must classify SUMMABLE.  Each restart re-sums the majorant's
    terms from one :func:`tail_sums`, which computes them once per search.
    A :class:`PolyMajorant` is searched at the step size tau > 0, with the
    result of its ``at(tau)`` bit for bit.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if tau is None:
        remainder = tail_sums(majorant, tol / 4)
    else:
        remainder = majorant.tail_sums(tau, tol / 4)
    k = tail_start - 1
    while True:
        mval, merr, _ = remainder(k + 1)
        if mval + merr <= tol / 2 or not majorant.terms:
            return k, mval + merr
        k = max(2 * k, 16)
        if k > _HEAD_BUDGET:
            raise NoMajorant("majorant decays too slowly to certify")


def head_sum(terms: Iterable[float], region: tuple[int, float]) -> SeriesValue:
    """The head step of :func:`certified_series`: the sum of the terms
    n = 1..k of the explicit region (k, bound) of :func:`majorant_region`,
    with its remainder bound and the head's rounding as the error."""
    k, bound = region
    head = sum(terms)
    err = bound + abs(head) * (k + 1) * _ULP
    return SeriesValue(head, err, k)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

_TAIL_KEYS = {"kind", "c", "r"}


def _tail_to_json(atoms: tuple[TailRule, ...]):
    def one(a: TailRule) -> dict:
        d: dict = {"kind": a.kind.value}
        if a.kind in (TailKind.CONST, TailKind.HARMONIC):
            d["c"] = a.c
        elif a.kind is TailKind.GEOMETRIC:
            d["c"] = a.c
            d["r"] = a.r
        return d

    if not atoms:
        return {"kind": "zero"}
    if len(atoms) == 1:
        return one(atoms[0])
    return [one(a) for a in atoms]


def _tail_from_json(obj) -> tuple[TailRule, ...]:
    if isinstance(obj, list):
        return _canonical_tail(_tail_atom_from_json(a) for a in obj)
    return _canonical_tail((_tail_atom_from_json(obj),))


def _tail_atom_from_json(obj) -> TailRule:
    if not isinstance(obj, dict):
        raise ValueError(f"tail must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _TAIL_KEYS
    if unknown:
        raise ValueError(f"unknown tail fields: {sorted(unknown)}")
    kind = obj.get("kind")
    allowed = {"zero": {"kind"}, "const": {"kind", "c"}, "harmonic": {"kind", "c"}}
    if kind in allowed and set(obj) != allowed[kind]:
        raise ValueError(f"{kind} tail takes exactly fields {sorted(allowed[kind])}")
    if kind == "zero":
        return TailRule.zero()
    if kind == "const":
        return TailRule.const(float(obj["c"]))
    if kind == "harmonic":
        return TailRule.harmonic(float(obj["c"]))
    if kind == "geometric":
        return TailRule.geometric(float(obj["c"]), float(obj["r"]))
    raise ValueError(f"unknown tail kind {kind!r}")


def point_to_json(x: Point) -> dict:
    return {"prefix": list(x.prefix), "tail": _tail_to_json(x.tail)}


def point_from_json(obj: dict) -> Point:
    if not isinstance(obj, dict):
        raise ValueError("point must be a JSON object")
    unknown = set(obj) - {"prefix", "tail"}
    if unknown:
        raise ValueError(f"unknown point fields: {sorted(unknown)}")
    prefix = obj.get("prefix", [])
    if not isinstance(prefix, list):
        raise ValueError("point prefix must be a list")
    return Point([float(v) for v in prefix], _tail_from_json(obj.get("tail", {"kind": "zero"})))


dual_to_json = point_to_json
dual_from_json = point_from_json


def space_to_json(s: SpaceDescriptor) -> dict:
    return {"kind": s.kind.value}


def space_from_json(obj: dict) -> SpaceDescriptor:
    if not isinstance(obj, dict):
        raise ValueError("space must be a JSON object")
    unknown = set(obj) - {"kind"}
    if unknown:
        raise ValueError(f"unknown space fields: {sorted(unknown)}")
    kind = obj.get("kind")
    if kind == "rn":
        return SpaceDescriptor.rn()
    if kind == "ell1":
        return SpaceDescriptor.ell1()
    if kind == "ellinf":
        return SpaceDescriptor.ellinf()
    raise ValueError(f"unknown space kind {kind!r}")
