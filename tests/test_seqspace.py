"""Points, anchored projections, pairings, and their JSON forms."""

import json
import math

import mpmath
import pytest

from seqcert.errors import NoMajorant
from seqcert.funcs import (
    ScalarConvex,
    SeparableSeries,
    delta_along,
    function_from_json,
    function_to_json,
)
from seqcert.seqspace import (
    _HEAD_BUDGET,
    DualPoint,
    Point,
    SpaceDescriptor,
    TailRule,
    basis_vector,
    certified_series,
    coordinate_signs,
    dual_basis_vector,
    dual_from_json,
    dual_to_json,
    ell1_norm,
    in_ell1,
    limsup_abs,
    majorant_region,
    pair,
    point_add,
    point_axpy,
    point_from_json,
    point_scale,
    point_sub,
    point_to_json,
    points_equal,
    project,
    space_from_json,
    space_to_json,
)
from seqcert.symseq import SymSeq

mpmath.mp.dps = 30


# coordinates and tails -------------------------------------------------------


def test_prefix_then_tail_coordinates():
    x = Point([3.0, -1.0], (TailRule.geometric(1.0, 0.5),))
    assert x.coordinate(1) == 3.0
    assert x.coordinate(2) == -1.0
    # tails are indexed by the absolute position n, not the offset past
    # the prefix: coordinate 3 is 0.5^3, not 0.5^1
    assert x.coordinate(3) == pytest.approx(0.5**3)
    assert x.coordinate(10) == pytest.approx(0.5**10)


def test_tail_indexing_is_independent_of_prefix_length():
    bare = Point([], (TailRule.harmonic(1.0),))
    padded = Point([bare.coordinate(1), bare.coordinate(2)], (TailRule.harmonic(1.0),))
    for n in range(1, 12):
        assert padded.coordinate(n) == bare.coordinate(n)


def test_composite_tail_sums_atoms():
    x = Point([], (TailRule.geometric(1.0, 0.5), TailRule.harmonic(2.0)))
    assert x.coordinate(4) == pytest.approx(0.5**4 + 2.0 / 4)


def test_coordinate_index_must_be_positive():
    with pytest.raises(ValueError):
        Point([1.0], ()).coordinate(0)


def test_zero_and_finite_support():
    z = Point.zero()
    assert z.is_finitely_supported()
    assert Point([1.0, 2.0], ()).is_finitely_supported()
    assert not Point([], (TailRule.const(1.0),)).is_finitely_supported()


def test_basis_vector_is_biorthogonal_prefix():
    e3 = basis_vector(3)
    for n in range(1, 8):
        assert e3.coordinate(n) == (1.0 if n == 3 else 0.0)


# arithmetic ------------------------------------------------------------------


def test_point_add_and_sub_coordinatewise():
    x = Point([1.0], (TailRule.geometric(1.0, 0.5),))
    y = Point([2.0, 3.0], (TailRule.harmonic(1.0),))
    s = point_add(x, y)
    d = point_sub(x, y)
    for n in range(1, 10):
        assert s.coordinate(n) == pytest.approx(x.coordinate(n) + y.coordinate(n))
        assert d.coordinate(n) == pytest.approx(x.coordinate(n) - y.coordinate(n))


def test_point_scale_and_axpy():
    x = Point([1.0, -2.0], (TailRule.geometric(3.0, 0.25),))
    h = Point([0.5], (TailRule.harmonic(-1.0),))
    y = point_axpy(x, 2.0, h)
    for n in range(1, 10):
        assert point_scale(1.5, x).coordinate(n) == pytest.approx(1.5 * x.coordinate(n))
        assert y.coordinate(n) == pytest.approx(x.coordinate(n) + 2.0 * h.coordinate(n))


def test_exact_cancellation_of_equal_tails():
    x = Point([], (TailRule.geometric(1.0, 0.5),))
    d = point_sub(x, x)
    assert d.is_finitely_supported()
    assert points_equal(d, Point.zero())


# projections -----------------------------------------------------------------


def test_plain_projection_truncates():
    x = Point([], (TailRule.harmonic(1.0),))
    p = project(x, 3)
    assert [p.coordinate(n) for n in range(1, 6)] == [1.0, 0.5, 1 / 3, 0.0, 0.0]


def test_anchored_projection_keeps_anchor_tail():
    x = Point([], (TailRule.const(2.0),))
    anchor = Point([], (TailRule.harmonic(1.0),))
    p = project(x, 2, anchor)
    assert p.coordinate(1) == 2.0
    assert p.coordinate(2) == 2.0
    for n in range(3, 9):
        assert p.coordinate(n) == anchor.coordinate(n)


def test_projection_idempotent_and_nested():
    x = Point([1.0, 2.0], (TailRule.geometric(1.0, 0.5),))
    anchor = Point([], (TailRule.harmonic(0.5),))
    p4 = project(x, 4, anchor)
    assert points_equal(project(p4, 4, anchor), p4)
    # nesting: projecting deeper after k keeps the first k coordinates
    p6 = project(x, 6, anchor)
    for n in range(1, 5):
        assert p6.coordinate(n) == p4.coordinate(n)


def test_projection_rank_zero_gives_the_anchor():
    x = Point([7.0], (TailRule.const(1.0),))
    anchor = Point([], (TailRule.harmonic(0.5),))
    assert points_equal(project(x, 0, anchor), anchor)
    with pytest.raises(ValueError):
        project(x, -1)


# norms, memberships, pairing -------------------------------------------------


def test_ell1_norm_against_reference():
    x = Point([1.0, -2.0], (TailRule.geometric(1.0, 0.5),))
    got = ell1_norm(x)
    ref = 3.0 + float(mpmath.nsum(lambda n: mpmath.mpf(0.5) ** n, [3, mpmath.inf]))
    assert abs(got.value - ref) <= got.error_bound + 1e-12


def test_majorant_series_gives_up_past_the_head_budget():
    # the remainder of sum n^-3 drops below 1e-12 only after about 10^6
    # explicit terms, past the head budget; a coarser tolerance fits inside it
    with pytest.raises(NoMajorant, match="decays too slowly"):
        certified_series(lambda n: n**-3.0, 1, 1e-12, majorant=SymSeq.term(1.0, 1.0, 3))
    sv = certified_series(lambda n: n**-3.0, 1, 1e-6, majorant=SymSeq.term(1.0, 1.0, 3))
    assert sv.terms_used <= _HEAD_BUDGET
    assert abs(sv.value - float(mpmath.zeta(3))) <= sv.error_bound


def test_a_nan_tolerance_is_rejected():
    # every "remainder <= tol" test is False against NaN: a majorant without
    # terms was certified at once, one with terms doubled its region to the
    # head budget and raised a NoMajorant that misnamed the cause
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square())
    x = Point([0.5], (TailRule.geometric(1.0, 0.5),))
    h = Point([1.0], (TailRule.geometric(0.8, 0.6),))
    for t in (0.0, 1e-3):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            delta_along(f, x, h, t, math.nan)
    majorant = SymSeq.term(1.0, 0.5, 0)
    for bad in (math.nan, 0.0, -1e-12):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            certified_series(lambda n: 0.5**n, 1, bad, majorant=majorant)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            majorant_region(majorant, 1, bad)


def test_in_ell1_detects_divergence():
    assert in_ell1(Point([], (TailRule.geometric(1.0, 0.5),)))
    assert not in_ell1(Point([], (TailRule.harmonic(1.0),)))
    assert not in_ell1(Point([], (TailRule.const(0.1),)))


def test_sup_and_limsup():
    x = Point([5.0, -7.0], (TailRule.const(2.0), TailRule.harmonic(1.0)))
    # the transient harmonic part decays; only the constant survives
    assert limsup_abs(x) == pytest.approx(2.0)
    assert limsup_abs(Point([9.0], (TailRule.harmonic(3.0),))) == 0.0


def test_pair_against_reference():
    p = DualPoint([1.0, 2.0], (TailRule.geometric(1.0, 0.5),))
    x = Point([3.0], (TailRule.harmonic(1.0),))
    got = pair(p, x)
    ref = float(
        3
        + 2 * mpmath.mpf(1) / 2
        + mpmath.nsum(lambda n: mpmath.mpf(0.5) ** n / n, [3, mpmath.inf])
    )
    assert abs(got.value - ref) <= got.error_bound + 1e-12


def test_pair_rejects_divergent_pairing():
    p = DualPoint([], (TailRule.const(1.0),))
    x = Point([], (TailRule.const(1.0),))
    with pytest.raises(Exception):
        pair(p, x)


# JSON ------------------------------------------------------------------------


def test_points_and_tail_rules_reject_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Point([0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            TailRule.const(bad)
        with pytest.raises(ValueError, match="finite"):
            TailRule.geometric(bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            point_from_json({"prefix": [], "tail": {"kind": "harmonic", "c": bad}})


def test_point_json_round_trip():
    pts = [
        Point.zero(),
        Point([1.5, -2.0], ()),
        Point([], (TailRule.geometric(1.0, 0.5),)),
        Point([0.25], (TailRule.geometric(1.0, -0.5), TailRule.harmonic(2.0))),
        Point([], (TailRule.const(3.0),)),
    ]
    for x in pts:
        back = point_from_json(point_to_json(x))
        assert points_equal(back, x)


def test_point_json_rejects_unknown_fields():
    with pytest.raises(ValueError):
        point_from_json({"prefix": [], "tail": {"kind": "zero"}, "extra": 1})
    with pytest.raises(ValueError):
        point_from_json({"prefix": [], "tail": {"kind": "const", "c": 1.0, "r": 2.0}})
    with pytest.raises(ValueError):
        point_from_json({"prefix": [], "tail": {"kind": "wavelet", "c": 1.0}})


def test_dual_json_round_trip():
    p = DualPoint([1.0], (TailRule.geometric(2.0, 0.25),))
    q = dual_from_json(dual_to_json(p))
    assert list(q.prefix) == list(p.prefix)
    assert q.tail == p.tail


def test_dual_points_are_points():
    assert DualPoint is Point
    assert DualPoint([1.0], (TailRule.const(2.0),)) == Point([1.0], (TailRule.const(2.0),))
    assert dual_to_json is point_to_json and dual_from_json is point_from_json
    assert dual_basis_vector(3) == basis_vector(3)
    with pytest.raises(ValueError):
        dual_basis_vector(0)


def test_space_json_round_trip():
    for s in (SpaceDescriptor.rn(), SpaceDescriptor.ell1(), SpaceDescriptor.ellinf()):
        assert space_from_json(space_to_json(s)) == s
    with pytest.raises(ValueError):
        space_from_json({"kind": "hilbert"})


def test_tail_normalization_drops_zero_atoms():
    x = Point([], (TailRule.zero(), TailRule.geometric(1.0, 0.5)))
    assert x.coordinate(2) == pytest.approx(0.25)


def test_coordinate_signs_name_the_rule_that_decided():
    # a certified positive tail after a zero below its rank
    x = Point([2.0], (TailRule.const(1.0), TailRule.geometric(-4.0, 0.5)))
    assert coordinate_signs(x).ok is True
    assert coordinate_signs(x, strict=True)[:2] == (False, 2)
    rank = coordinate_signs(x).rank
    assert rank > x.tail_start and all(x.coordinate(n) > 0.0 for n in range(rank, rank + 64))
    # eventually negative: the violation is the tail's own sign
    down = coordinate_signs(Point([1.0], (TailRule.const(-1.0), TailRule.geometric(3.0, 0.5))))
    assert (down.ok, down.eventual, down.n) == (False, True, down.rank)
    # oscillating: a concrete violation when one is near, else no verdict
    wave = coordinate_signs(Point([], (TailRule.geometric(1.0, -0.5),)))
    assert (wave.ok, wave.n, wave.eventual) == (False, 1, False) and wave.unsettled
    calm = Point([1.0], (TailRule.geometric(0.3, -0.5), TailRule.geometric(1.0, 0.5)))
    assert coordinate_signs(calm).ok is None
    # a zero tail is nonnegative but never strictly positive
    assert coordinate_signs(Point([1.0])) == (True, None, 2, False, None)
    assert coordinate_signs(Point([1.0]), strict=True)[:2] == (False, 2)


def test_a_tail_is_one_canonical_closed_form():
    atoms = (
        TailRule.harmonic(2.0),
        TailRule.geometric(0.5, 0.25),
        TailRule.const(1.0),
        TailRule.geometric(-1.0, -0.5),
    )
    x = Point([1.0, -2.0], atoms)
    assert isinstance(x.tail, SymSeq) and x.tail.exact
    # const, geometric by ascending r, harmonic: the order of every tail sum
    assert [(t.ratio, t.npow) for t in x.tail.terms] == [(1, 0), (-0.5, 0), (0.25, 0), (1, 1)]
    # the same point from its atoms in another order, or from point arithmetic
    for y in (
        Point([1.0, -2.0], atoms[::-1]),
        point_add(Point([1.0, 0.0], atoms[:2]), Point([0.0, -2.0], atoms[2:])),
        point_scale(0.5, point_scale(2.0, x)),
    ):
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
    # a tail passed on to another point is kept as it is
    assert Point([3.0], x.tail).tail is x.tail
    # coefficients stay doubles: merging rounds as float arithmetic does,
    # where exact sums of the scaled coefficients would drift from it
    tenth = point_scale(0.1, Point([], TailRule.const(1.0)))
    thrice = point_add(point_add(tenth, tenth), tenth)
    assert thrice == Point([], TailRule.const(0.1 + 0.1 + 0.1))
    assert thrice.tail != TailRule.const(1.0).scaled(0.1) + TailRule.const(0.2)


def test_a_zero_tail_is_falsy():
    assert not TailRule.zero() and not Point([1.0]).tail
    assert not Point([], (TailRule.geometric(0.0, 0.5), TailRule.geometric(1.0, 0.0))).tail
    x = Point([1.0], TailRule.harmonic(-1.0))
    assert x.tail and not point_sub(x, x).tail and point_sub(x, x).is_finitely_supported()


@pytest.mark.parametrize("c", [0.0, -0.0])
def test_degenerate_forms_round_trip_to_zero(c):
    atom = {"kind": "geometric", "c": c, "r": 0.5}
    x = point_from_json({"prefix": [], "tail": atom})
    assert json.dumps(point_to_json(x)) == '{"prefix": [], "tail": {"kind": "zero"}}'
    inner = {"kind": "linear", "b": atom}
    f = function_from_json({"kind": "separable", "weight": atom, "inner": inner})
    assert json.dumps(function_to_json(f)) == (
        '{"kind": "separable", "weight": 0.0, "inner": {"kind": "linear", "b": 0.0}}'
    )
