"""Points, dual elements, projections, and certified series on sequence spaces.

Points are exact objects: a finite prefix of coordinates plus a closed-form
tail, so every coordinate, pairing, and series below is evaluated against an
analytic expression rather than a truncation someone eyeballed.  The tail is
a canonical SymSeq summing TailRule's constant, geometric and harmonic atoms,
the one sequence type of tails, coefficients and derivative forms.  All types
are immutable values and all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import DomainViolation, NoMajorant, NonConvergentPairing, ShapeError
from .symseq import _ULP, SUMMABLE, SymSeq, classify, point_form, tail_sum, tail_sums

DEFAULT_SERIES_TOL = 1e-12

#: Most explicit terms a majorant-bounded series sums.  A majorant that
#: needs more decays too slowly for the head sum to finish in reasonable
#: time: sum n^-3 alone needs about 10^6 terms to certify 1e-12.
_HEAD_BUDGET = 1 << 16


def _atom(kind: str, c, r=0.0) -> tuple[str, float, float]:
    """One closed-form atom (kind, c, r) in floats, checked: finite, and
    |r| < 1 for a geometric one."""
    c, r = float(c), float(r)
    if not (math.isfinite(c) and math.isfinite(r)):
        raise ValueError(f"tail coefficients must be finite, got c={c}, r={r}")
    if kind == "geometric" and not abs(r) < 1.0:
        raise ValueError(f"geometric tail needs |r| < 1, got r={r}")
    return kind, c, r


class TailRule:
    """The closed-form atoms that a point's tail or a per-index coefficient
    sums: 0, c, c*r**n with |r| < 1, or c/n at (1-based) index n.

    Each constructor returns its atom as a canonical one-term SymSeq
    (symseq.point_form; the zero atom has no terms), so geometric-type
    series over a tail stay summable and tails stay bounded.
    """

    @staticmethod
    def zero() -> SymSeq:
        return point_form(())

    @staticmethod
    def const(c: float) -> SymSeq:
        return point_form((_atom("const", c),))

    @staticmethod
    def geometric(c: float, r: float) -> SymSeq:
        return point_form((_atom("geometric", c, r),))

    @staticmethod
    def harmonic(c: float) -> SymSeq:
        return point_form((_atom("harmonic", c),))


def _term_atom(t) -> tuple[str, float, float]:
    """The checked atom of a SymTerm of one of the three shapes."""
    if t.ratio == 1 and t.npow in (0, 1):
        return _atom("harmonic" if t.npow else "const", t.coef)
    if t.npow != 0:
        raise ValueError(
            f"a tail sums constant, geometric and harmonic terms, not {SymSeq((t,))!r}"
        )
    return _atom("geometric", t.coef, t.ratio)


def to_point_form(tail) -> SymSeq:
    """tail, a SymSeq or an iterable of SymSeqs, as one canonical form.

    A canonical form is returned as it is, so a tail passed on from one
    point to the next is never canonicalized again.  Any other sequence
    is rounded into the form: its coefficients and ratios become doubles.
    """
    if isinstance(tail, SymSeq):
        if tail.atoms is not None:
            return tail
        tail = (tail,)
    return point_form(
        atom
        for seq in tail
        for atom in (seq.atoms if seq.atoms is not None else map(_term_atom, seq.terms))
    )


@dataclass(frozen=True)
class Point:
    """A sequence-space element: finite prefix plus closed-form tail.

    ``prefix[i]`` holds coordinate i+1, and the tail, a canonical SymSeq
    (:func:`to_point_form`), gives every coordinate beyond ``len(prefix)``.
    A SymSeq or an iterable of them (TailRule atoms, say) is accepted
    anywhere a tail is expected; the canonical form makes equality
    structural.
    """

    prefix: tuple[float, ...] = ()
    tail: SymSeq = TailRule.zero()

    def __init__(self, prefix: Sequence[float] = (), tail=()):
        prefix = tuple(float(v) for v in prefix)
        if not all(map(math.isfinite, prefix)):
            raise ValueError(f"point coordinates must be finite, got {list(prefix)}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", to_point_form(tail))

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
        # the sum over the tail starts at 0.0, so a -0.0 reads as 0.0
        return 0.0 + self.tail.coordinate(n)

    def column(self, a: int, b: int) -> list[float]:
        """[coordinate(n) for n in a..b]: a slice of the prefix, then the
        tail's column."""
        if a < 1:
            raise ValueError(f"coordinate index must be >= 1, got {a}")
        cut = len(self.prefix)
        out = list(self.prefix[a - 1 : min(b, cut)])
        if b > cut:
            out += [0.0 + v for v in self.tail.column(max(a, cut + 1), b)]
        return out

    def is_finitely_supported(self) -> bool:
        return not self.tail

    def __repr__(self) -> str:
        tails = ",".join(
            f"{kind}({c:g}" + (f",{r:g})" if r else ")") for kind, c, r in self.tail.atoms
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


def bounded_value(value: float, err: float, used: int) -> SeriesValue:
    """SeriesValue(value, err, used), with an infinite bound where the
    value is not finite: an overflow, never a certified +inf."""
    return SeriesValue(value, err if math.isfinite(value) else math.inf, used)


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
    return Point(prefix, (x.tail, y.tail))


def point_scale(c: float, x: Point) -> Point:
    c = float(c)
    scaled = point_form(_atom(kind, c * a, r) for kind, a, r in x.tail.atoms)
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
    return x.tail == y.tail or (point_sub(x, y).tail.is_zero)


# ---------------------------------------------------------------------------
# Membership and norms
# ---------------------------------------------------------------------------


def in_ell1(x: Point) -> bool:
    """Absolute summability, decided from the tail rule."""
    return classify(x.tail) == SUMMABLE


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
    seq = x.tail
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
        majorant=x.tail.abs_terms(),
    )


def tail_limit(x: Point) -> float:
    """lim x_n, with its sign.

    Geometric and harmonic components vanish at infinity, so the limit of
    the tail exists and equals the summed constant coefficients.
    """
    return sum((c for kind, c, _ in x.tail.atoms if kind == "const"), 0.0)


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
    space of all sequences), or when its tail decays too slowly to certify.
    """
    return pairing(p, x)(tol)


def pairing(p: DualPoint, x: Point) -> Callable[[float], SeriesValue]:
    """The tolerance-independent half of :func:`pair`.

    The tail product and the explicit head sum are formed once; the
    returned step certifies the tail sum at a given tolerance and combines
    the two, so pairings of one p and x at many tolerances share the rest.
    """
    return coefficient_pairing(p.coordinate, len(p.prefix), p.tail, x)


def coefficient_pairing(
    coefficient: Callable[[int], float], known: int, tail: SymSeq, x: Point
) -> Callable[[float], SeriesValue]:
    """:func:`pairing` of x with any coefficient sequence.

    ``coefficient(n)`` gives the coefficients through n = ``known`` and
    ``tail`` their closed form beyond; the explicit head runs through the
    longer of the two prefixes.
    """
    k0 = max(known, len(x.prefix))
    prod = tail * x.tail
    head = sum(coefficient(n) * x.coordinate(n) for n in range(1, k0 + 1))

    def at_tol(tol: float) -> SeriesValue:
        try:
            return _head_plus_tail(head, prod, k0 + 1, tol)
        except (ValueError, NoMajorant) as exc:
            raise NonConvergentPairing(
                f"pairing series not certified absolutely convergent ({exc})"
            ) from exc

    return at_tol


def _head_plus_tail(head: float, tail: SymSeq, start: int, tol: float) -> SeriesValue:
    """The one head-plus-tail sum: ``head``, the explicit sum of the terms
    below ``start``, plus tail's certified sum from ``start`` on within
    tol / 2, with both parts' rounding in the error (infinite where the sum
    is not finite).  Raises ValueError (from tail_sum) when the tail is not
    absolutely summable, and NoMajorant when it decays too slowly to
    certify."""
    tval, terr, used = tail_sum(tail, start, tol / 2)
    err = terr + (abs(head) + abs(tval)) * (start + 1) * _ULP
    return bounded_value(head + tval, err, start - 1 + used)


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


def majorant_region(majorant: SymSeq, tail_start: int, tol: float) -> tuple[int, float]:
    """The region step of :func:`certified_series`: its doubling search.

    Returns ``(k, bound)``: the terms n <= k are summed explicitly, and
    ``bound`` certifies the majorant's remainder beyond k, within tol / 2.
    The region starts at tail_start - 1 and doubles (to 16 at least) until
    the remainder fits; past _HEAD_BUDGET terms it raises NoMajorant.  The
    majorant must classify SUMMABLE.  Each restart re-sums the majorant's
    terms from one :func:`tail_sums`, which computes them once per search.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    remainder = tail_sums(majorant, tol / 4)
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
    with its remainder bound and the head's rounding as the error, or an
    infinite error where the head is not finite."""
    k, bound = region
    head = sum(terms)
    return bounded_value(head, bound + abs(head) * (k + 1) * _ULP, k)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

# The decoders are the formats' run-time check.  A document off the shape
# that schemas/scenario.schema.json describes raises ShapeError, naming the
# path of the offending field; a value the shape admits but the mathematics
# does not (a non-finite coefficient, |r| >= 1) raises the plain ValueError
# of the constructor it reaches.


def _describe(value) -> str:
    """A JSON value as a refusal names it: a scalar as JSON, a container by kind."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return json.dumps(value, default=repr)


def json_field(obj: dict, key, decode: Callable, *args):
    """decode(obj[key], *args), with key put in front of the path of any
    ShapeError it raises."""
    try:
        return decode(obj[key], *args)
    except ShapeError as exc:
        exc.path.insert(0, key)
        raise


def json_fields(obj, what: str, required: frozenset, optional: frozenset = frozenset()) -> None:
    """obj is an object with every required field and no field outside
    required | optional."""
    if not isinstance(obj, dict):
        raise ShapeError(f"{what} must be an object, got {_describe(obj)}")
    missing = required - obj.keys()
    if missing:
        raise ShapeError(f"{what} requires this field", min(missing))
    unknown = obj.keys() - required - optional
    if unknown:
        raise ShapeError(f"not a field of {what}", min(unknown, key=str))


def json_enum(value, choices) -> str:
    """value, one of the strings in choices."""
    if not isinstance(value, str) or value not in choices:
        raise ShapeError(f"expected one of {', '.join(choices)}, got {_describe(value)}")
    return value


def json_kind(obj, noun: str, fields: dict, optional: frozenset = frozenset()) -> str:
    """The kind of obj, an object with a kind in fields and exactly the
    fields of its kind there, those in optional only where present."""
    if not isinstance(obj, dict):
        raise ShapeError(f"a {noun} must be an object, got {_describe(obj)}")
    if "kind" not in obj:
        raise ShapeError(f"a {noun} requires this field", "kind")
    kind = json_field(obj, "kind", json_enum, fields)
    allowed = fields[kind]
    json_fields(obj, f"the {kind} {noun}", allowed - optional, allowed & optional)
    return kind


def json_number(value, low: Optional[float] = None, strict: bool = False) -> float:
    """value as a float: a JSON number, so neither a boolean nor a numeric
    string, and at least low (above it when strict) where low is given,
    compared as JSON Schema's minimum and exclusiveMinimum compare."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeError(f"expected a number, got {_describe(value)}")
    if low is not None and (value <= low if strict else value < low):
        raise ShapeError(f"expected a number {'>' if strict else '>='} {low:g}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value} does not fit in a double") from None


def json_integer(value, low: int) -> int:
    """value as an int: a JSON integer, which as in JSON Schema includes an
    integer-valued float such as 2.0, and at least low."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ShapeError(f"expected an integer, got {_describe(value)}")
    if value < low:
        raise ShapeError(f"expected an integer >= {low}, got {value!r}")
    return int(value)


def json_list(value, decode: Callable, nonempty: bool = False) -> list:
    """value as a list, nonempty where asked, with each item decoded and its
    index put in front of the path of a ShapeError."""
    if not isinstance(value, list):
        raise ShapeError(f"expected a list, got {_describe(value)}")
    if nonempty and not value:
        raise ShapeError("expected a nonempty list")
    out = []
    for i, item in enumerate(value):
        try:
            out.append(decode(item))
        except ShapeError as exc:
            exc.path.insert(0, i)
            raise
    return out


#: The fields of each atom's JSON object.
_ATOM_FIELDS = {
    "zero": frozenset({"kind"}),
    "const": frozenset({"kind", "c"}),
    "geometric": frozenset({"kind", "c", "r"}),
    "harmonic": frozenset({"kind", "c"}),
}
_POINT_FIELDS = frozenset({"prefix", "tail"})
_SPACE_FIELDS = {kind.value: frozenset({"kind"}) for kind in SpaceKind}


def _tail_to_json(tail: SymSeq):
    """A canonical form as JSON: one atom object, a list of them, or zero."""
    atoms = [
        {"kind": kind, "c": c, "r": r} if kind == "geometric" else {"kind": kind, "c": c}
        for kind, c, r in tail.atoms
    ]
    if not atoms:
        return {"kind": "zero"}
    return atoms[0] if len(atoms) == 1 else atoms


def _tail_from_json(obj) -> SymSeq:
    """A tail: one atom object, or a nonempty list of them."""
    if isinstance(obj, list):
        return point_form(json_list(obj, _atom_from_json, nonempty=True))
    return point_form((_atom_from_json(obj),))


def _atom_from_json(obj) -> tuple[str, float, float]:
    """The one term decoder: an atom object, with exactly its kind's fields."""
    kind = json_kind(obj, "tail atom", _ATOM_FIELDS)
    if kind == "zero":
        return _atom("const", 0.0)
    c = json_field(obj, "c", json_number)
    return _atom(kind, c, json_field(obj, "r", json_number) if kind == "geometric" else 0.0)


def coef_to_json(form: SymSeq):
    """A per-index coefficient: a constant (or zero) as a bare number, any
    other atom as its tail atom.  The scenario format has no form for a
    coefficient of several atoms, so one raises ValueError."""
    atoms = form.atoms
    if not atoms:
        return 0.0
    if len(atoms) > 1:
        raise ValueError(f"coefficient {form!r} has several atoms; the format takes one")
    if atoms[0][0] == "const":
        return atoms[0][1]
    return _tail_to_json(form)


def coef_from_json(obj) -> SymSeq:
    """The inverse of :func:`coef_to_json`: a number, or a single tail atom."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return TailRule.const(json_number(obj))
    if not isinstance(obj, dict):
        raise ShapeError(f"expected a number or a tail atom, got {_describe(obj)}")
    return point_form((_atom_from_json(obj),))


def point_to_json(x: Point) -> dict:
    return {"prefix": list(x.prefix), "tail": _tail_to_json(x.tail)}


def point_from_json(obj: dict) -> Point:
    json_fields(obj, "a point", frozenset(), _POINT_FIELDS)
    prefix = json_field(obj, "prefix", json_list, json_number) if "prefix" in obj else []
    tail = json_field(obj, "tail", _tail_from_json) if "tail" in obj else TailRule.zero()
    return Point(prefix, tail)


dual_to_json = point_to_json
dual_from_json = point_from_json


def space_to_json(s: SpaceDescriptor) -> dict:
    return {"kind": s.kind.value}


def space_from_json(obj: dict) -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind(json_kind(obj, "space", _SPACE_FIELDS)))
