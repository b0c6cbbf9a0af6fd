"""Certificate-producing decision procedures for optimality on sequence spaces.

Each check answers a "for all n" or "for all x" question with an explicit
verdict and an explicit grade: ANALYTIC_ALL_N when the claim was settled by
exact closed-form reasoning over every index, NUMERIC_FIRST_N when only
finitely many indices were sampled.  INCONCLUSIVE is a first-class verdict:
when a hypothesis (qualification, pseudo-semicontinuity, existence of the
directional derivatives) cannot be established, the procedures refuse to
convert stationarity into claims in either direction.

Positive verdicts never rest on extrapolation; negative verdicts always
carry a machine-checkable witness.

Each hypothesis is one shared stage, looked up by name when a certifier
runs: check_qualification (membership and qualification), check_psc,
_basis_profile (the basis partials exist) and _basis_residual
(stationarity).  An unmet one is INCONCLUSIVE through _inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, Union

from .derivative import dir_deriv
from .errors import (
    DomainLimited,
    DomainViolation,
    InfeasiblePoint,
    NoCertifiedValue,
    NoMajorant,
    NonConvergentPairing,
)
from .funcs import (
    DirValue,
    FunctionExpr,
    ScalarConvex,
    SeparableSeries,
    _as_form,
    basis_partials,
    drop_kept_walk,
    evaluate,
    function_from_json,
    function_to_json,
    is_finite,
    scalar_from_json,
    scalar_to_json,
)
from .sampling import random_direction, random_point, rng_from_seed
from .seqspace import (
    DEFAULT_SERIES_TOL,
    DualPoint,
    Point,
    SeriesValue,
    SpaceDescriptor,
    TailRule,
    coef_from_json,
    coefficient_pairing,
    coef_to_json,
    coordinate_signs,
    in_ell1,
    in_space,
    json_field,
    json_integer,
    json_kind,
    json_list,
    limsup_abs,
    point_from_json,
    point_sub,
    point_to_json,
    project,
)
from .symseq import SUMMABLE, SymSeq, classify, tail_sum


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------


class SetKind(str, Enum):
    WHOLE_SPACE = "whole_space"
    POSITIVE_CONE_ELL1 = "positive_cone_ell1"
    BOX = "box"


@dataclass(frozen=True)
class SetDescriptor:
    """A convex feasible set with closed-form coordinate structure.

    All three variants are coordinate rectangles, which is what makes the
    projection-stability half of qualification automatic: replacing a tail
    of coordinates by the anchor's cannot leave the set.

    Box bounds are points; when ``bound_count`` is set the bounds apply to
    coordinates 1..bound_count only and the rest are free (a finite slab,
    e.g. {x : x_1 >= 1}).  A missing bound means that side is free.
    """

    kind: SetKind
    lower: Optional[Point] = None
    upper: Optional[Point] = None
    bound_count: Optional[int] = None

    @staticmethod
    def whole_space() -> SetDescriptor:
        return SetDescriptor(SetKind.WHOLE_SPACE)

    @staticmethod
    def positive_cone_ell1() -> SetDescriptor:
        return SetDescriptor(SetKind.POSITIVE_CONE_ELL1)

    @staticmethod
    def box(
        lower: Optional[Point],
        upper: Optional[Point],
        bound_count: Optional[int] = None,
    ) -> SetDescriptor:
        if lower is None and upper is None:
            return SetDescriptor.whole_space()
        return SetDescriptor(SetKind.BOX, lower=lower, upper=upper, bound_count=bound_count)


def _bounded_index(s: SetDescriptor, n: int) -> bool:
    return s.bound_count is None or n <= s.bound_count


def coordinate_interval(s: SetDescriptor, n: int) -> tuple[float, float]:
    """The feasible interval for coordinate n (closed ends where finite)."""
    if s.kind is SetKind.WHOLE_SPACE:
        return -math.inf, math.inf
    if s.kind is SetKind.POSITIVE_CONE_ELL1:
        return 0.0, math.inf
    lo = -math.inf
    hi = math.inf
    if _bounded_index(s, n):
        if s.lower is not None:
            lo = s.lower.coordinate(n)
        if s.upper is not None:
            hi = s.upper.coordinate(n)
    return lo, hi


def _rectangle_position(
    s: SetDescriptor, x: Point, strict: bool
) -> tuple[Optional[bool], Optional[int], Optional[str]]:
    """Is x in the set (strict False), or strictly inside every face that
    bounds it (strict True)?

    Returns (ok, n, face), tri-state like seqspace.coordinate_signs: (True,
    None, None) when certified, (False, n, face) with a witness coordinate n,
    (None, None, face) when a tail comparison could not be certified either
    way.  face names the box bound compared, "lower" or "upper", and is
    None for the cone and for a box with bound_count.
    """
    if s.kind is SetKind.WHOLE_SPACE:
        return True, None, None
    if s.kind is SetKind.POSITIVE_CONE_ELL1:
        if not in_ell1(x):
            return False, 0, None
        signs = coordinate_signs(x, strict)
        return signs.ok, signs.n, None
    if s.bound_count is not None:
        for n in range(1, s.bound_count + 1):
            lo, hi = coordinate_interval(s, n)
            v = x.coordinate(n)
            if not (lo < v < hi if strict else lo <= v <= hi):
                return False, n, None
        return True, None, None
    for bound, face in ((s.lower, "lower"), (s.upper, "upper")):
        if bound is None:
            continue
        diff = point_sub(x, bound) if face == "lower" else point_sub(bound, x)
        signs = coordinate_signs(diff, strict)
        if signs.ok is not True:
            return signs.ok, signs.n, face
    return True, None, None


def set_membership(s: SetDescriptor, x: Point) -> tuple[Optional[bool], Optional[int]]:
    """Membership with a witness coordinate on failure.

    Tri-state like seqspace.coordinate_signs: None means the tail
    comparison could not be certified in either direction.
    """
    ok, n, _ = _rectangle_position(s, x, strict=False)
    return ok, n


def set_to_json(s: SetDescriptor) -> dict:
    if s.kind is SetKind.BOX:
        out: dict = {"kind": "box"}
        if s.lower is not None:
            out["lower"] = point_to_json(s.lower)
        if s.upper is not None:
            out["upper"] = point_to_json(s.upper)
        if s.bound_count is not None:
            out["bound_count"] = s.bound_count
        return out
    return {"kind": s.kind.value}


#: The fields of each set's JSON object; a box's bounds are optional.
_SET_FIELDS = {
    "whole_space": frozenset({"kind"}),
    "positive_cone_ell1": frozenset({"kind"}),
    "box": frozenset({"kind", "lower", "upper", "bound_count"}),
}
_BOX_BOUNDS = frozenset({"lower", "upper", "bound_count"})


def set_from_json(obj: dict) -> SetDescriptor:
    kind = json_kind(obj, "set", _SET_FIELDS, _BOX_BOUNDS)
    if kind == "whole_space":
        return SetDescriptor.whole_space()
    if kind == "positive_cone_ell1":
        return SetDescriptor.positive_cone_ell1()
    return SetDescriptor.box(
        json_field(obj, "lower", point_from_json) if "lower" in obj else None,
        json_field(obj, "upper", point_from_json) if "upper" in obj else None,
        json_field(obj, "bound_count", json_integer, 1) if "bound_count" in obj else None,
    )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class Verdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class GradeKind(str, Enum):
    ANALYTIC_ALL_N = "analytic_all_n"
    NUMERIC_FIRST_N = "numeric_first_n"


@dataclass(frozen=True)
class Grade:
    kind: GradeKind
    n: Optional[int] = None

    @staticmethod
    def analytic() -> Grade:
        return Grade(GradeKind.ANALYTIC_ALL_N)

    @staticmethod
    def numeric(n: int) -> Grade:
        return Grade(GradeKind.NUMERIC_FIRST_N, n)

    def render(self) -> str:
        if self.kind is GradeKind.ANALYTIC_ALL_N:
            return "analytic_all_n"
        return f"numeric_first_n({self.n})"


@dataclass(frozen=True)
class Certificate:
    """Verdict plus the evidence that justifies it.

    FAILS always carries a witness dict concrete enough to recheck by hand:
    a coordinate index with its offending value, or a probe point with both
    function values.
    """

    verdict: Verdict
    grade: Grade
    reason: Optional[str] = None
    witness: Optional[dict] = None
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "grade": self.grade.render(),
            "reason": self.reason,
            "witness": self.witness,
            "evidence": self.evidence,
        }


def _inconclusive(grade: Grade, reason: str, evidence=None, witness=None) -> Certificate:
    """The one refusal: a hypothesis the reduction needs is not established."""
    return Certificate(Verdict.INCONCLUSIVE, grade, reason, witness, evidence or {})


def _first_unmet(checks: Sequence[tuple], evidence: dict) -> Optional[Certificate]:
    """_inconclusive for the first unmet of ``checks``, ordered (unmet, grade, reason)."""
    return next((_inconclusive(g, why, evidence) for unmet, g, why in checks if unmet), None)


@dataclass(frozen=True)
class CertifyOptions:
    """Shared knobs: how many indices to sample, match tolerance, depths."""

    coords: int = 64
    tol: float = 1e-7
    psc_depth: int = 32
    seed: int = 42

    def __post_init__(self):
        # the bounds of the scenario schema's "parameters"
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        for name, low in (("coords", 1), ("psc_depth", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# Qualification
# ---------------------------------------------------------------------------


def check_qualification(s: SetDescriptor, x_star: Point, n_max: int = 64) -> Certificate:
    """Is the feasible set qualified at the anchor?

    Two conditions: every truncation P^k(x*) lies in the relative interior
    of the truncated set, and anchored projections never leave the set.
    The second holds for all three variants because they are coordinate
    rectangles; the first reduces to strict coordinate inequalities checked
    in closed form over all k.
    """
    ok_member, wit = set_membership(s, x_star)
    if ok_member is None:
        return Certificate(
            Verdict.INCONCLUSIVE,
            Grade.numeric(n_max),
            reason="anchor membership could not be certified from the tail forms",
        )
    if not ok_member:
        return Certificate(
            Verdict.FAILS,
            Grade.analytic(),
            reason="anchor is not in the set",
            witness={"condition": "membership", "k": wit},
        )
    # A strict tail comparison is uncertifiable only where the non-strict
    # membership comparison above already was.
    ok, wit, face = _rectangle_position(s, x_star, strict=True)
    if not ok:
        if s.kind is SetKind.POSITIVE_CONE_ELL1:
            reason = "a truncation touches the cone boundary"
        elif face is None:
            reason = "anchor touches a box face"
        else:
            reason = f"anchor touches the {face} box face"
        return Certificate(
            Verdict.FAILS,
            Grade.analytic(),
            reason=reason,
            witness={"condition": "interior", "k": wit},
        )
    interior, stability = _INTERIOR_EVIDENCE[s.kind]
    return Certificate(
        Verdict.HOLDS, Grade.analytic(), evidence={"interior": interior, "stability": stability}
    )


_INTERIOR_EVIDENCE = {
    SetKind.WHOLE_SPACE: ("whole space", "trivial"),
    SetKind.POSITIVE_CONE_ELL1: ("all coordinates strictly positive", "coordinate rectangle"),
    SetKind.BOX: ("strictly inside all faces", "coordinate rectangle"),
}


# ---------------------------------------------------------------------------
# Pseudo-semicontinuity
# ---------------------------------------------------------------------------


def anchored_truncation(x_star: Point, x: Point, k: int) -> Point:
    """x* + P^k(x - x*): the probe points of the pseudo-semicontinuity test."""
    return project(x, k, x_star)


@lru_cache(maxsize=4)
def _random_probes(seed: int) -> tuple[Point, ...]:
    """The 10 random points default_psc_probes draws after its three fixed
    probes, drawn once per seed; points are immutable, so calls share them."""
    rng = rng_from_seed(seed)
    return tuple(random_point(rng) for _ in range(10))


@lru_cache(maxsize=4)
def _random_directions(seed: int) -> tuple[Point, ...]:
    """gateaux_detect's 40 validation directions, drawn once per seed as
    _random_probes are; it takes them in order until it has three samples."""
    rng = rng_from_seed(seed)
    return tuple(random_direction(rng, summable=True) for _ in range(40))


def default_psc_probes(x_star: Point, opts: CertifyOptions) -> list[Point]:
    """Zero point, the anchor, a one-coordinate bump, then random points."""
    bump_prefix = list(x_star.prefix) or [x_star.coordinate(1)]
    bump_prefix[0] += 1.0
    probes = [Point((), ()), x_star, Point(bump_prefix, x_star.tail)]
    probes.extend(_random_probes(opts.seed))
    return probes


def check_psc(f: FunctionExpr, x_star: Point, depth: int = 32) -> Certificate:
    """Does limsup_k f(x* + P^k(x - x*)) <= f(x) hold for all x?

    Analytic rule: every series and linear part converges along anchored
    truncations to its value (absolutely convergent tails), so the whole
    expression is pseudo-semicontinuous exactly when its limsup parts are,
    which happens iff the anchor's limsup vanishes or those parts have
    weight zero.  The rule alone decides; finitely many truncations cannot
    bound a limsup, so probes are evidence only (check_psc_numeric).  On
    FAILS, ``depth`` sets the truncations the witness reports.
    """
    lam = basis_partials(f, x_star).limsup_weight()
    p_star = limsup_abs(x_star)
    if lam == 0.0 or p_star == 0.0:
        evidence = {
            "rule": "series and linear parts converge along anchored truncations",
            "limsup_weight": lam,
            "limsup_at_anchor": p_star,
        }
        return Certificate(Verdict.HOLDS, Grade.analytic(), evidence=evidence)
    # The zero point is always a counterexample in this regime.
    zero = Point((), ())
    ks = sorted({max(1, depth // 2), depth})
    values = []
    for k in ks:
        z = anchored_truncation(x_star, zero, k)
        try:
            values.append({"k": k, "f_at_truncation": evaluate(f, z).value})
        except NoCertifiedValue:
            continue
    f_zero = evaluate(f, zero).value
    return Certificate(
        Verdict.FAILS,
        Grade.analytic(),
        reason="limsup part with nonvanishing anchor limsup",
        witness={
            "probe": point_to_json(zero),
            "limsup_at_anchor": p_star,
            "limsup_at_probe": 0.0,
            "f_at_probe": f_zero,
            "f_along_truncations": values,
        },
        evidence={"limsup_weight": lam},
    )


def check_psc_numeric(
    f: FunctionExpr,
    s: SetDescriptor,
    x_star: Point,
    probes: Sequence[Point],
    depth: int,
) -> dict:
    """Truncation evidence for pseudo-semicontinuity, never a verdict.

    For every certified member x of the set with a finite f(x), evaluates
    f(z_k) - f(x) at the anchored truncations z_k, k = depth/2 .. depth.
    Returns the number of such probes and the largest excess (None when no
    truncation could be evaluated).  A positive excess is no counterexample:
    f(z_k) may converge to f(x) from above.
    """
    checked = 0
    excesses = []
    for x in probes:
        if set_membership(s, x)[0] is not True:
            continue
        try:
            fx = evaluate(f, x)
        except NoCertifiedValue:
            continue
        checked += 1
        if not is_finite(fx):
            continue
        for k in range(max(1, depth // 2), depth + 1):
            try:
                fz = evaluate(f, anchored_truncation(x_star, x, k))
            except NoCertifiedValue:
                continue
            excesses.append(fz.value - fx.value)
    return {"probes_checked": checked, "max_truncation_excess": max(excesses, default=None)}


# ---------------------------------------------------------------------------
# Closed-form derivative profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BasisProfile:
    """n -> sum_j c_j f_j'(x*; e_n) over every n; see _basis_profile."""

    values: list[Optional[float]]
    head: list[float]
    rule: str
    tail: Optional[SymSeq]
    valid_from: int
    missing: Optional[int]
    part: Optional[int]
    kink: Optional[DirValue]


def _first_none(col: tuple, start: int) -> Optional[int]:
    """The first n >= start at which col[n - 1] is None, else None."""
    try:
        return col.index(None, start - 1) + 1
    except ValueError:
        return None


def _basis_profile(
    parts: Sequence[tuple[float, FunctionExpr]], x_star: Point, coords: int, tail_from: int = 1
) -> _BasisProfile:
    """The one place that reads the basis partials, of a weighted sum of parts.

    Reads one funcs.basis_partials walk per part (c_j, f_j) and profiles
    n -> sum_j c_j f_j'(x*; e_n).  A part with c_j == 0 adds nothing, so
    it gets no walk and its kinks and forms do not count; ``part`` still
    indexes ``parts``.  ``values`` holds the profile for n <= coords,
    None where some part's partial does not exist, and ``head`` the same
    sums extended up to where the closed forms start: through
    valid_from - 1 when every part's form holds (valid_from is the largest
    over the parts, and at least ``tail_from``), through a part's kink
    index - 1 when its form has a kink.  ``rule`` is "kink" or "numeric"
    when some part's form is, else "ok"; ``tail`` is the weighted sum of
    the forms, None unless every one is "ok".

    ``missing`` is the smallest n at which some part's partial does not
    exist, ``part`` that part's index and ``kink`` its one-sided
    derivatives there: per part, the first None of its walk's head
    column, else the form's kink.  ``head`` stops before it.  None means
    every partial exists at every n the head covers, and at every n from
    valid_from on when ``tail`` is set.

    The values come from each walk's kept head column, and ``kink`` is
    the one DirValue built.  Each index n <= coords is read, so the
    smallest that raises does; past coords the column is read only up to
    the first missing partial, so an index beyond it never raises.
    """
    walks = [(j, c, basis_partials(f, x_star)) for j, (c, f) in enumerate(parts) if c != 0.0]
    forms = [bp.form for _, _, bp in walks]
    valid_from = max([tail_from, *(form.valid_from for form in forms)])
    columns, cuts = [], []
    missing = part = kink = None
    for (j, _, bp), form in zip(walks, forms):
        stop = valid_from if form.status == "ok" else (form.kink_at or 1)
        col = bp.column(coords)
        if len(col) < coords:
            # every head index is read, so the first that raises does
            bp.at(len(col) + 1)
        miss = _first_none(col, 1)
        if miss is None and stop - 1 > coords:
            # past coords the reads stop at the first missing partial, so
            # an index that raises beyond it is never read
            col = bp.column(stop - 1)
            miss = _first_none(col, coords + 1)
            if miss is None and len(col) < stop - 1:
                bp.at(len(col) + 1)
        at_kink = None
        if miss is None and form.status == "kink":
            miss = form.kink_at
            at_kink = bp.at(miss)
        if miss is not None and (missing is None or miss < missing):
            missing, part = miss, j
            kink = bp.at(miss) if at_kink is None else at_kink
        columns.append(col)
        cuts.append(miss - 1 if miss else len(col))

    cut = min(cuts, default=coords)
    # one list pass per part: each index's sum starts at 0.0 and adds
    # c_j f_j'(x*; e_n) in order, None once one of them is missing
    row = [0.0] * max(coords, cut)
    for (_, c, _), col in zip(walks, columns):
        row = [None if t is None or v is None else t + c * v for t, v in zip(row, col)]
    tail: Optional[SymSeq] = SymSeq.zero()
    for (_, c, _), form in zip(walks, forms):
        tail = None if tail is None or form.tail is None else tail + form.tail.scaled(c)
    statuses = {form.status for form in forms}
    return _BasisProfile(
        values=row[:coords],
        head=row[:cut],
        rule=next((s for s in ("kink", "numeric") if s in statuses), "ok"),
        tail=tail,
        valid_from=valid_from,
        missing=missing,
        part=part,
        kink=kink,
    )


# ---------------------------------------------------------------------------
# Top-level certifiers
# ---------------------------------------------------------------------------


def _basis_residual(
    parts: Sequence[tuple[float, FunctionExpr]], x_star: Point, p: Point, opts: CertifyOptions
) -> tuple[_BasisProfile, str, Optional[int], Optional[float], Grade]:
    """Is r_n = sum_j c_j f_j'(x*; e_n) - p_n zero for every n?

    The one stationarity decision: subgradient_test (one part, p the
    dual), certify_min (one part, p = 0) and kkt_certify (the Lagrangian's
    parts, p = 0).  The head comes from _basis_profile, which runs it
    through valid_from - 1, so a missing partial anywhere below valid_from
    is decided before any violation.  Returns (profile, answer, n, r_n,
    grade), the answer being the first of these that applies:

    1. ("kink", n, None) for the smallest n at which some part's partial
       does not exist.
    2. ("exact", None, None) when the closed form of r_n is exactly zero
       and every head value below valid_from is == 0.0: r_n = 0 for every n.
    3. ("head", n, r_n) for the first head index with |r_n| > tol.
    4. ("tail", n, r_n) for the first n in rank..rank+4095 with
       |r_n| > tol, where the closed form's eventual_sign(valid_from)
       certifies a nonzero sign from rank on; a closed form whose eventual
       sign is 0 or cannot be certified is not scanned.
    5. ("none", None, None): no violation was found.

    Only "exact" is graded analytic; without a closed form the head alone,
    the first opts.coords indices, decides.
    """
    prof = _basis_profile(parts, x_star, opts.coords, p.tail_start)
    sampled = Grade.numeric(opts.coords)
    if prof.missing is not None:
        return prof, "kink", prof.missing, None, sampled
    head = [v - pn for v, pn in zip(prof.head, p.column(1, len(prof.head)))]
    tail = None if prof.tail is None else prof.tail - p.tail
    if (
        tail is not None
        and tail.is_zero
        and tail.exact
        and all(v == 0.0 for v in head[: prof.valid_from - 1])
    ):
        return prof, "exact", None, None, Grade.analytic()
    for n, v in enumerate(head, start=1):
        if abs(v) > opts.tol:
            return prof, "head", n, v, sampled
    if tail is not None and not tail.is_zero:
        try:
            sgn, rank = tail.eventual_sign(prof.valid_from)
        except ValueError:
            sgn = 0
        if sgn != 0:
            for n in range(rank, rank + 4096):
                v = tail.value_at(n)
                if abs(v) > opts.tol:
                    return prof, "tail", n, v, sampled
    return prof, "none", None, None, sampled


def certify_min(
    f: FunctionExpr,
    s: SetDescriptor,
    x_star: Point,
    opts: CertifyOptions = CertifyOptions(),
    probes: Optional[Sequence[Point]] = None,
) -> Certificate:
    """Is x* a global minimizer of f over the set?

    Theorem first, probes second.  Stationarity is the subgradient test at
    p = 0 (_basis_residual): the closed form decides every n where there is
    one, the sampled head where there is none.  Under established
    qualification a nonzero basis derivative refutes x* at once: Fermat's
    rule says a minimizer over a qualified set has f'(x*; +-e_n) >= 0 for
    every n (Rockafellar, Convex Analysis, Sec. 23), and only the
    sufficiency direction needs pseudo-semicontinuity.  That FAILS carries
    the coordinate witness {n, derivative}, which suffices: x* - t sign(r_n)
    e_n descends for small t > 0.  Its evidence has no psc check and no
    probe log, since neither ran, and no probe, the caller's included, is
    evaluated.

    Where the theorem is silent (a kink, no violation found, qualification
    not established) and on the way to HOLDS, pseudo-semicontinuity is
    checked and the probes are swept: a probe that beats the anchor gives
    FAILS with the probe as witness.  HOLDS needs all three hypotheses;
    anything else that blocks the decision gives INCONCLUSIVE.
    """
    qual = check_qualification(s, x_star, opts.coords)
    prof, stat, stat_n, stat_r, stat_grade = _basis_residual(
        [(1.0, f)], x_star, Point.zero(), opts
    )
    f_star = evaluate(f, x_star)
    evidence = {
        "qualification": qual.to_json(),
        "stationarity": {
            "derivatives": [{"n": i, "analytic": v} for i, v in enumerate(prof.values, start=1)],
            "symbolic": prof.rule,
        },
        "f_at_anchor": f_star.value,
    }
    if is_finite(f_star) and stat in ("head", "tail") and qual.verdict is Verdict.HOLDS:
        # the sweep that follows on every other path replaces x*'s kept
        # walk; returning before it, drop that walk, or the next operation
        # on these objects (a repeated pass) would get it for free
        drop_kept_walk()
        return Certificate(
            Verdict.FAILS,
            stat_grade,
            reason="a basis directional derivative is nonzero",
            witness={"n": stat_n, "derivative": stat_r},
            evidence=evidence,
        )
    # after the questions about x*: a failing check evaluates f elsewhere,
    # which replaces x*'s kept walk
    psc = check_psc(f, x_star, depth=opts.psc_depth)
    if not is_finite(f_star):
        # every probe is compared against f(x*), so it must be finite
        raise DomainViolation("f(x*) is not finite; probe values have nothing to compare against")
    evidence.update(psc=psc.to_json(), probe_log=[])
    found_probe = None
    for x in [*(probes or ()), *default_psc_probes(x_star, opts)]:
        entry = {"probe": point_to_json(x)}
        evidence["probe_log"].append(entry)
        if set_membership(s, x)[0] is not True:
            entry["skipped"] = "not a certified member"
            continue
        try:
            # the anchor probe is x* itself, whose value is already certified
            fx = f_star if x is x_star else evaluate(f, x)
        except NoCertifiedValue as exc:
            entry["skipped"] = type(exc).__name__
            continue
        entry["f"] = fx.value
        margin = f_star.value - f_star.error_bound - (fx.value + fx.error_bound)
        if found_probe is None and is_finite(fx) and margin > opts.tol:
            found_probe = {
                "probe": point_to_json(x),
                "f_at_probe": fx.value,
                "f_at_anchor": f_star.value,
            }

    if found_probe is not None:
        return Certificate(
            Verdict.FAILS,
            Grade.numeric(opts.coords),
            reason="a feasible probe point has a smaller value",
            witness=found_probe,
            evidence=evidence,
        )
    no_psc = "pseudo-semicontinuity not established and no better probe found"
    unmet = _first_unmet(
        [
            (stat == "kink", stat_grade, f"directional derivative does not exist at n={stat_n}"),
            (qual.verdict is not Verdict.HOLDS, qual.grade, "qualification not established"),
            (psc.verdict is not Verdict.HOLDS, psc.grade, no_psc),
        ],
        evidence,
    )
    # qualification and psc only ever hold graded analytic, so the
    # stationarity grade is the whole claim's
    return unmet or Certificate(Verdict.HOLDS, stat_grade, evidence=evidence)


def subgradient_test(
    f: FunctionExpr,
    x_star: Point,
    p: DualPoint,
    opts: CertifyOptions = CertifyOptions(),
) -> Certificate:
    """Is p a subgradient of f at x*?

    Reduces to f'(x*; e_n) = p_n for every n (_basis_residual), under
    pseudo-semicontinuity of f with respect to x* (whole-space setting).
    """
    psc = check_psc(f, x_star, depth=opts.psc_depth)
    if psc.verdict is not Verdict.HOLDS:
        why = "pseudo-semicontinuity not established"
        return _inconclusive(psc.grade, why, {"psc": psc.to_json()})
    prof, where, n, _, grade = _basis_residual([(1.0, f)], x_star, p, opts)
    if where == "kink":
        return _inconclusive(grade, f"directional derivative does not exist at n={n}")
    duals = p.column(1, len(prof.values))
    table = [
        {"n": i, "derivative": v, "dual": pn}
        for i, (v, pn) in enumerate(zip(prof.values, duals), start=1)
    ]
    evidence = {"matches": table, "psc": psc.to_json()}
    if where in ("exact", "none"):
        return Certificate(Verdict.HOLDS, grade, evidence=evidence)
    in_tail = where == "tail"
    return Certificate(
        Verdict.FAILS,
        grade,
        reason="derivative and dual coordinate disagree" + (" in the tail" if in_tail else ""),
        witness={
            "n": n,
            "derivative": prof.tail.value_at(n) if in_tail else prof.head[n - 1],
            "dual": p.coordinate(n),
        },
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Gateaux detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateauxDerivative:
    """The assembled derivative: h -> sum of f'(x*; e_n) * h_n.

    ``known`` holds the leading coefficients; ``tail`` their closed form
    beyond that (None when only the sampled prefix is known, in which case
    apply is defined for directions supported inside the prefix).
    """

    known: tuple[float, ...]
    tail: Optional[SymSeq] = None

    def coefficient(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"coefficient index must be >= 1, got {n}")
        if n <= len(self.known):
            return self.known[n - 1]
        if self.tail is None:
            raise NonConvergentPairing(
                f"coefficient {n} is beyond the sampled prefix and no closed form is known"
            )
        return self.tail.value_at(n)

    def apply(self, h: Point) -> SeriesValue:
        """Certified pairing of the coefficient sequence with h."""
        tail = self.tail
        if tail is None:
            if not h.is_finitely_supported() or len(h.prefix) > len(self.known):
                raise NonConvergentPairing(
                    "direction reaches past the sampled coefficients"
                )
            tail = SymSeq.zero()
        return coefficient_pairing(self.coefficient, len(self.known), tail, h)(DEFAULT_SERIES_TOL)


def gateaux_detect(
    f: FunctionExpr,
    space: SpaceDescriptor,
    x_star: Point,
    opts: CertifyOptions = CertifyOptions(),
    witness_directions: Sequence[Point] = (),
) -> tuple[Certificate, Optional[GateauxDerivative]]:
    """Is f Gateaux-differentiable at x*, and what is the derivative?

    One pipeline for every space: a missing basis partial, then a supplied
    direction with left != right, gives FAILS (directions outside the space
    or without a certified directional derivative are skipped).  Otherwise a space without
    a topological basis, or a limsup part of f, gives INCONCLUSIVE; else the
    derivative is assembled from the basis partials and validated against
    direct directional derivatives on sample directions (one with no
    feasible step gives INCONCLUSIVE).  Raises InfeasiblePoint when x* is
    not in the space.
    """
    if not in_space(x_star, space):
        raise InfeasiblePoint(f"anchor is not in the space {space.kind.value}")
    sampled = Grade.numeric(opts.coords)
    prof = _basis_profile([(1.0, f)], x_star, opts.coords)
    if prof.missing is not None:
        return Certificate(
            Verdict.FAILS,
            Grade.analytic(),
            "directional derivative missing along a basis direction",
            {"n": prof.missing, "left": prof.kink.left, "right": prof.kink.right},
        ), None
    for h in witness_directions:
        if not in_space(h, space):
            continue
        try:
            res = dir_deriv(f, x_star, h)
        except (NoCertifiedValue, DomainLimited):
            continue
        if not res.exists:
            return Certificate(
                Verdict.FAILS,
                sampled,
                "a direction with unequal one-sided derivatives",
                {"direction": point_to_json(h), "left": res.left, "right": res.right},
                {"basis_kink": None},  # every basis partial exists here
            ), None
    if not space.basis_is_topological:
        return _inconclusive(
            sampled,
            "basis is not topological; existence along basis directions is not sufficient",
            {"basis_derivatives_exist": True},
        ), None
    if basis_partials(f, x_star).limsup_weight() != 0.0:
        return _inconclusive(
            sampled, "expression has a limsup part, which is not continuous on this space"
        ), None
    if prof.tail is not None:
        deriv = GateauxDerivative(known=tuple(prof.head[: prof.valid_from - 1]), tail=prof.tail)
        grade = Grade.analytic()
    else:
        deriv = GateauxDerivative(known=tuple(prof.values), tail=None)
        grade = sampled

    # Validate the assembly against direct directional derivatives.
    samples = []
    for h in _random_directions(opts.seed):
        if len(samples) == 3:
            break
        try:
            applied = deriv.apply(h)
            direct = dir_deriv(f, x_star, h)
        except NoCertifiedValue:
            continue
        except DomainLimited:
            return _inconclusive(
                grade,
                "a validation direction has no feasible step on either side of x*",
                witness={"direction": point_to_json(h)},
            ), None
        if not direct.exists:
            continue
        gap = abs(applied.value - direct.value)
        samples.append({"gap": gap})
        if gap > max(opts.tol, 1e-6):
            return _inconclusive(
                grade,
                "assembled derivative disagrees with a direct directional derivative",
                {"validation_gap": gap},
            ), None
    # without a closed form only the sampled coefficients are known
    head_len = 8 if deriv.tail is not None else min(8, len(deriv.known))
    cert = Certificate(
        Verdict.HOLDS,
        grade,
        evidence={
            "coefficients_head": [deriv.coefficient(n) for n in range(1, head_len + 1)],
            "validation_samples": samples,
        },
    )
    return cert, deriv


# ---------------------------------------------------------------------------
# Term-wise differentiation of function series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalFamily:
    """The family f_k(x) = weight(k) * inner_k(x_k): one coordinate each."""

    weight: SymSeq
    inner: ScalarConvex

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_form(self.weight))


@dataclass(frozen=True)
class ScaledFamily:
    """The family f_k(x) = coeffs(k) * base(x): shared shape, scaled."""

    coeffs: SymSeq
    base: FunctionExpr

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_form(self.coeffs))


SeriesFamily = Union[DiagonalFamily, ScaledFamily, Sequence[FunctionExpr]]


def family_to_json(family: SeriesFamily) -> dict:
    if isinstance(family, DiagonalFamily):
        return {
            "kind": "diagonal",
            "weight": coef_to_json(family.weight),
            "inner": scalar_to_json(family.inner),
        }
    if isinstance(family, ScaledFamily):
        return {
            "kind": "scaled",
            "coeffs": coef_to_json(family.coeffs),
            "base": function_to_json(family.base),
        }
    return {"kind": "list", "terms": [function_to_json(g) for g in family]}


#: The fields of each family's JSON object.
_FAMILY_FIELDS = {
    "diagonal": frozenset({"kind", "weight", "inner"}),
    "scaled": frozenset({"kind", "coeffs", "base"}),
    "list": frozenset({"kind", "terms"}),
}


def family_from_json(obj: dict) -> SeriesFamily:
    kind = json_kind(obj, "family", _FAMILY_FIELDS)
    if kind == "diagonal":
        return DiagonalFamily(
            json_field(obj, "weight", coef_from_json), json_field(obj, "inner", scalar_from_json)
        )
    if kind == "scaled":
        return ScaledFamily(
            json_field(obj, "coeffs", coef_from_json), json_field(obj, "base", function_from_json)
        )
    return json_field(obj, "terms", json_list, function_from_json, True)


def series_differentiate(
    family: SeriesFamily,
    x_star: Point,
    radii: SymSeq = TailRule.const(1.0),
    opts: CertifyOptions = CertifyOptions(),
) -> tuple[Certificate, tuple[float, ...]]:
    """Differentiate a series of convex functions term by term at x*.

    Verifies, along each basis direction n with interval half-width
    radii(n): (i) every term is differentiable on the interval, (ii) the
    derivative series converges, (iii) uniformly so over the interval.
    On HOLDS the per-direction derivative of the sum is the sum of the
    term derivatives, returned for n up to opts.coords.

    Raises NoMajorant when the derivative tail has no summable bound.
    """
    n_max = opts.coords
    radii = _as_form(radii)
    radii_vals = [radii.coordinate(n) for n in range(1, n_max + 1)]
    if any(a <= 0.0 for a in radii_vals):
        raise ValueError("interval radii must be positive")
    sampled = Grade.numeric(n_max)

    if isinstance(family, ScaledFamily):
        base = _basis_profile([(1.0, family.base)], x_star, n_max)
        if base.missing is not None:
            return Certificate(
                Verdict.FAILS, sampled, "base derivative missing at the anchor", {"n": base.missing}
            ), ()
        base_values = base.values
        coeff_seq = family.coeffs
        if classify(coeff_seq) != SUMMABLE:
            if any(v != 0.0 for v in base_values):
                raise NoMajorant(
                    "coefficient series is not absolutely summable and the base derivative is nonzero"
                )
            return (
                Certificate(
                    Verdict.HOLDS,
                    sampled,
                    evidence={"rule": "base derivative vanishes at every sampled n"},
                ),
                tuple(0.0 for _ in base_values),
            )
        walk = basis_partials(family.base, x_star)
        for n, a in enumerate(radii_vals, start=1):
            why, unbounded = walk.interval(n, a)
            if why is not None:
                return Certificate(Verdict.FAILS, sampled, why, {"n": n}), ()
            if unbounded:
                raise NoMajorant(
                    f"no finite derivative envelope on the interval at n={n}"
                )
        total, terr, _ = tail_sum(coeff_seq, 1, 1e-12)
        values = tuple(total * v for v in base_values)
        cert = Certificate(
            Verdict.HOLDS,
            Grade.analytic(),
            evidence={
                "rule": "summable coefficients times a bounded derivative envelope",
                "coefficient_sum": total,
            },
        )
        return cert, values

    # A finite list of terms, or a diagonal family as the one-term list of
    # its sum: term k moves only coordinate k, so along e_n just one term is
    # live, pointwise and uniform convergence of the derivative series are
    # immediate and only condition (i) needs work.  Its witness names no term.
    diagonal = isinstance(family, DiagonalFamily)
    terms = [SeparableSeries(family.weight, family.inner)] if diagonal else list(family)
    walks = [basis_partials(g, x_star) for g in terms]
    for n, a in enumerate(radii_vals, start=1):
        for idx, walk in enumerate(walks):
            why, _ = walk.interval(n, a)
            if why is not None:
                witness = {"n": n} if diagonal else {"term": idx, "n": n}
                return Certificate(Verdict.FAILS, sampled, why, witness), ()
    prof = _basis_profile([(1.0, g) for g in terms], x_star, n_max)
    if prof.missing is not None:
        witness = {"n": prof.missing} if diagonal else {"term": prof.part, "n": prof.missing}
        return Certificate(
            Verdict.FAILS, sampled, "term derivative missing at the anchor", witness
        ), ()
    rule = (
        "one live term per direction; tail of the derivative series is identically zero"
        if diagonal
        else "finite family; conditions (ii) and (iii) are finite sums"
    )
    return Certificate(Verdict.HOLDS, Grade.analytic(), evidence={"rule": rule}), tuple(prof.values)


# ---------------------------------------------------------------------------
# KKT
# ---------------------------------------------------------------------------


def kkt_certify(
    f: FunctionExpr,
    inequalities: Sequence[FunctionExpr],
    equalities: Sequence[FunctionExpr],
    s: SetDescriptor,
    x_star: Point,
    lam: Sequence[float],
    nu: Sequence[float],
    opts: CertifyOptions = CertifyOptions(),
) -> Certificate:
    """Do the supplied multipliers certify x* as a constrained minimizer?

    Checks, in order: membership of x* in the base set, feasibility, the
    multiplier signs (nu_k < 0 only on an affine h_k), qualification,
    pseudo-semicontinuity of every function, complementary slackness, and
    per-coordinate stationarity of f' + sum(lam_j g_j') + sum(nu_k h_k').
    The implication runs one way: any hypothesis failure is INCONCLUSIVE,
    never a non-optimality claim.

    Raises ValueError when the multiplier counts differ from the constraint
    counts or a multiplier is not finite, and InfeasiblePoint when x* is
    outside the base set or violates a constraint.
    """
    if len(lam) != len(inequalities) or len(nu) != len(equalities):
        raise ValueError("multiplier counts must match constraint counts")
    for name, values in (("lambda", lam), ("nu", nu)):
        for j, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError(f"multiplier {name}_{j} is not finite: {v}")
    # one decision for membership and, read further down, qualification
    qual = check_qualification(s, x_star, opts.coords)
    if qual.verdict is Verdict.INCONCLUSIVE:
        return qual  # membership could not be certified from the tail forms
    if qual.witness is not None and qual.witness["condition"] == "membership":
        raise InfeasiblePoint(f"anchor outside the base set (coordinate {qual.witness['k']})")
    sampled = Grade.numeric(opts.coords)
    g_vals = []
    for j, g in enumerate(inequalities):
        gv = evaluate(g, x_star)
        g_vals.append(gv.value)
        if gv.value - gv.error_bound > opts.tol:
            raise InfeasiblePoint(f"inequality {j} is violated: g(x*) = {gv.value:.6g}")
    h_vals = []
    for j, h in enumerate(equalities):
        hv = evaluate(h, x_star)
        h_vals.append(hv.value)
        if abs(hv.value) - hv.error_bound > opts.tol:
            raise InfeasiblePoint(f"equality {j} is violated: h(x*) = {hv.value:.6g}")
    evidence: dict = {"g_values": g_vals, "h_values": h_vals}

    for j, l in enumerate(lam):
        if l < 0.0:
            why = f"multiplier {j} is negative; hypothesis not satisfied"
            return _inconclusive(sampled, why, evidence)
    # sufficiency needs every part nu_k h_k convex: nu_k < 0 only on affine h_k
    for k, (v, h) in enumerate(zip(nu, equalities)):
        if v < 0.0 and not basis_partials(h, x_star).affine():
            why = f"multiplier {k} is negative on a non-affine equality"
            return _inconclusive(sampled, why, evidence)

    evidence["qualification"] = qual.to_json()
    if qual.verdict is not Verdict.HOLDS:
        return _inconclusive(qual.grade, "qualification not established", evidence)
    for name, fn in [("objective", f)] + [
        (f"inequality_{j}", g) for j, g in enumerate(inequalities)
    ] + [(f"equality_{j}", h) for j, h in enumerate(equalities)]:
        psc = check_psc(fn, x_star, depth=opts.psc_depth)
        if psc.verdict is not Verdict.HOLDS:
            evidence["psc_failure"] = {name: psc.to_json()}
            why = f"pseudo-semicontinuity not established for {name}"
            return _inconclusive(psc.grade, why, evidence)

    slack = [l * gv for l, gv in zip(lam, g_vals)]
    evidence["complementary_slackness"] = slack
    for j, sv in enumerate(slack):
        if abs(sv) > opts.tol:
            why = f"complementary slackness fails for inequality {j}"
            return _inconclusive(sampled, why, evidence, {"j": j, "lambda_times_g": sv})

    # Stationarity of the Lagrangian derivative, coordinate by coordinate.
    parts = [(1.0, f), *zip(lam, inequalities), *zip(nu, equalities)]
    prof, where, n, r, grade = _basis_residual(parts, x_star, Point.zero(), opts)
    if where == "kink":
        return _inconclusive(sampled, f"directional derivative missing at n={n}", evidence)
    evidence["stationarity"] = [
        {"n": i, "lagrangian_derivative": v}
        for i, v in enumerate(prof.head[: min(opts.coords, 16)], start=1)
    ]
    if where in ("exact", "none"):
        return Certificate(Verdict.HOLDS, grade, evidence=evidence)
    why = f"stationarity fails at n={n}; sufficiency cannot conclude"
    return _inconclusive(sampled, why, evidence, {"n": n, "lagrangian_derivative": r})
