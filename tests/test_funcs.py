"""The expression grammar: certified evaluation, exact one-coordinate
deltas, closed-form directional derivatives, and the JSON codec.

Every derived constant is checked against an mpmath reference computed
in-test, never against a value the code itself produced.
"""

import math
import random

import mpmath
import pytest

from seqcert.errors import DomainViolation, NegativeScale, NoMajorant, NonConvergentPairing
from seqcert.funcs import (
    Constant,
    DirStatus,
    LimsupSeminorm,
    LinearFunctional,
    PartialsForm,
    ScalarConvex,
    Scale,
    SeparableSeries,
    Sum,
    analytic_dir_deriv,
    basis_partials,
    delta_along,
    delta_along_basis,
    evaluate,
    function_from_json,
    function_to_json,
    scale,
)
from seqcert.sampling import random_direction, random_function, random_point
from seqcert.seqspace import (
    DualPoint,
    Point,
    SeriesValue,
    SpaceDescriptor,
    TailRule,
    basis_vector,
    pair,
    point_axpy,
    point_scale,
)
from seqcert.symseq import point_form
from test_series_digest import fuzz_instance

mpmath.mp.dps = 40

BETA = 0.5


def example3_objective():
    return Sum(
        (
            LimsupSeminorm(),
            SeparableSeries(
                TailRule.geometric(1.0, BETA),
                ScalarConvex.affine_quad(1.0, TailRule.harmonic(-1.0)),
            ),
        )
    )


def example3_anchor():
    return Point([], (TailRule.harmonic(0.5),))


def example4_objective():
    return Sum(
        (
            SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0)),
            SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.neg_sqrt(2.0)),
        )
    )


def example4_anchor():
    return Point([], (TailRule.geometric(1.0, BETA * BETA),))


def example5_objective():
    return Sum(
        (
            LimsupSeminorm(),
            SeparableSeries(
                TailRule.geometric(1.0, BETA), ScalarConvex.affine_quad(1.0, -2.0)
            ),
        )
    )


# evaluation against references ------------------------------------------------


def test_weighted_quadratic_series_value():
    # sum beta^n ((1/2n)^2 - (1/2n)/n) = -(1/4) Li_2(beta)
    ref = float(-mpmath.polylog(2, mpmath.mpf(1) / 2) / 4)
    got = evaluate(example3_objective(), example3_anchor())
    assert abs(got.value - ref) <= got.error_bound + 1e-12
    assert got.value == pytest.approx(-0.1455601316162531, abs=1e-12)


def test_weighted_sqrt_objective_value():
    # sum beta^{2n} - 2 sum beta^n sqrt(beta^{2n}) = -beta^2/(1-beta^2)
    got = evaluate(example4_objective(), example4_anchor())
    assert got.value == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_limsup_quadratic_values_at_ones_and_half():
    g = example5_objective()
    ones = Point([], (TailRule.const(1.0),))
    half = Point([], (TailRule.const(0.5),))
    assert evaluate(g, ones).value == pytest.approx(0.0, abs=1e-9)
    assert evaluate(g, half).value == pytest.approx(-0.25, abs=1e-9)


def test_quadratic_at_first_basis_vector():
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    got = evaluate(f, basis_vector(1))
    assert got.value == pytest.approx(BETA, abs=1e-12)


def test_constant_and_linear_functional():
    c = Constant(2.5)
    assert evaluate(c, Point.zero()).value == 2.5
    lf = LinearFunctional(DualPoint([-1.0], ()))
    x = Point([3.0, 9.0], ())
    assert evaluate(lf, x).value == pytest.approx(-3.0)
    g = Sum((Constant(1.0), lf))
    assert evaluate(g, x).value == pytest.approx(-2.0)


def test_negated_dual_flips_every_sign_exactly():
    p = DualPoint([1.5, 0.0, -0.0], (TailRule.geometric(-0.0, 0.5), TailRule.harmonic(2.0)))
    neg = point_scale(-1.0, p)
    # -v, signed zeros included
    assert [math.copysign(1.0, v) for v in neg.prefix] == [-1.0, -1.0, 1.0]
    assert neg.prefix[0] == -1.5
    assert [(t.coef, t.ratio, t.npow) for t in neg.tail.terms] == [
        (-t.coef, t.ratio, t.npow) for t in p.tail.terms
    ]
    x = Point([2.0, 1.0], (TailRule.geometric(1.0, 0.25),))
    g = Sum((Constant(1.0), LinearFunctional(neg)))
    assert evaluate(g, x).value == pytest.approx(1.0 - evaluate(LinearFunctional(p), x).value)


def test_divergent_series_evaluates_to_plus_infinity():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    got = evaluate(f, Point([], (TailRule.const(1.0),)))
    assert got.value == math.inf


def test_sqrt_domain_violation():
    f = example4_objective()
    with pytest.raises(DomainViolation):
        evaluate(f, Point([-0.1], (TailRule.geometric(1.0, 0.25),)))


def test_an_overflow_is_never_a_certified_plus_infinity():
    # <p, x> = -1e600 is finite, but its float overflows: the leaf answers
    # -inf with an infinite bound, and a sum or scale of it must keep that
    # bound rather than read the -inf as a certified +inf
    linear = LinearFunctional(DualPoint((-1e300,), ()))
    x = Point((1e300,), ())
    for f in (linear, Sum([linear]), Scale(2.0, linear), Sum([Constant(1.0), linear])):
        got = evaluate(f, x)
        assert got.value == -math.inf and got.error_bound == math.inf, f
    # finite parts whose sum or product overflows are no certified +inf either
    for f in (Sum([Constant(1e308), Constant(1e308)]), Scale(1e10, Constant(1e300))):
        got = evaluate(f, x)
        assert got.value == math.inf and got.error_bound == math.inf, f
    # a series diverging to +inf stays one under a sum or a scale, whatever
    # the other parts' values: fuzz seed 17's anchor, and a sum with an overflow
    rng = random.Random(17)
    space = rng.choice((SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf))()
    f, anchor = random_function(rng, space), random_point(rng, space=space)
    assert isinstance(f, Scale)
    assert evaluate(f, anchor) == SeriesValue(math.inf, 0.0, 0)
    divergent = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    ones = Point((1e300,), (TailRule.const(1.0),))
    assert evaluate(Sum([linear, divergent]), ones) == SeriesValue(math.inf, 0.0, 1)


def test_a_coefficient_beyond_the_double_range_is_no_certified_value():
    # x_n = 1e200 * 0.5^n: the tail of sum x_n^2 has the coefficient 1e400,
    # which no double holds, so the sum is not certified, nor is a pairing
    # of two such tails; neither overflows out of the tail sum
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    tail = TailRule.geometric(1e200, 0.5)
    with pytest.raises(NoMajorant, match="beyond the double range"):
        evaluate(f, Point((), tail))
    with pytest.raises(NonConvergentPairing, match="beyond the double range"):
        pair(DualPoint((), tail), Point((), tail))
    # two atoms whose merged coefficient overflows are no tail at all
    with pytest.raises(ValueError, match="must sum to a finite number"):
        Point((), (TailRule.const(1e308), TailRule.const(1e308)))


def test_an_overflowed_difference_or_head_has_an_infinite_bound():
    # |2e308| - 1e308 is finite, but its float overflows: the limsup leaf's
    # step, and a sum or scale of it, is no certified +inf
    big = Point((), (TailRule.const(1e308),))
    limsup = LimsupSeminorm()
    for f in (limsup, Sum([limsup, Constant(1.0)]), Scale(2.0, limsup)):
        got = delta_along(f, big, big, 1.0)
        assert got.value == math.inf and got.error_bound == math.inf, f
    # a head whose terms sum +inf and -inf to NaN has an infinite bound
    x = Point((1e300, -1e300), ())
    separable = SeparableSeries(TailRule.const(1e300), ScalarConvex.linear(1.0))
    for got in (evaluate(separable, x), pair(DualPoint((1e300, 1e300), ()), x)):
        assert math.isnan(got.value) and got.error_bound == math.inf


def _scaled_record(lam, answer):
    """lam times a pair or a list pair of sides, None staying None."""
    return [None if v is None else lam * v for v in answer]


def test_a_scale_answers_lam_times_its_part_bit_for_bit():
    # the weighted-sum node starts a Scale at -0.0, so -0.0 + lam * v keeps
    # a -0.0 partial, and a Sum at 0.0, which turns it into 0.0
    square = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    x = Point((-0.0,), ())
    assert repr(basis_partials(Scale(2.0, square), x).sides(1, 1)[0]) == "[-0.0]"
    assert repr(basis_partials(Sum([square]), x).sides(1, 1)[0]) == "[0.0]"
    # over fuzz seeds 0-299, Scale(lam, f) answers lam times f's own walk
    # along every answer the node combines, compared by repr
    for seed in range(300):
        _, f, x = fuzz_instance(seed)
        rng = random.Random(seed)
        lam = rng.choice((0.5, 1.0, 3.0, 1e-3))
        walk, scaled = basis_partials(f, x), basis_partials(Scale(lam, f), x)
        lefts, rights, err = walk.sides(1, 64)
        got = scaled.sides(1, 64)
        want = (_scaled_record(lam, lefts), _scaled_record(lam, rights))
        assert repr(got[:2]) == repr(want), seed
        assert repr(got[2]) == repr(err), seed
        form = walk.form
        if form.status == "ok":
            form = PartialsForm("ok", form.valid_from, form.tail.scaled(lam))
        assert scaled.form == form, seed
        for _ in range(3):
            h = random_direction(rng, summable=True)
            want, got = _direction_record(walk, h), _direction_record(scaled, h)
            if isinstance(want, tuple):
                want = tuple(_scaled_record(lam, want))
            assert repr(got) == repr(want), (seed, h)
        part = walk.value(1e-12 / max(lam, 1.0))
        got = scaled.value(1e-12)
        if isinstance(part, SeriesValue):
            assert repr(got.value) == repr(lam * part.value), seed
            assert got.terms_used == part.terms_used, seed
        else:
            assert (type(got), str(got)) == (type(part), str(part)), seed


def _direction_record(walk, h):
    try:
        return walk.direction(h)
    except Exception as exc:  # the exception itself is part of the outcome
        return f"{type(exc).__name__}: {exc}"


def test_a_sqrt_series_diverging_to_minus_infinity_has_one_name():
    # sum (1.45/n)(-0.89 sqrt x_n) = -inf at a tail of one atom or several:
    # x_n >= 0.88 either way, so the terms are at most -1.45*0.89*sqrt(0.88)/n
    f = SeparableSeries(TailRule.harmonic(1.45), ScalarConvex.neg_sqrt(0.89))
    for tail in ((TailRule.const(0.88),), (TailRule.const(0.88), TailRule.geometric(0.22, 0.547))):
        with pytest.raises(DomainViolation, match="series diverges to -infinity"):
            evaluate(f, Point((), tail))
    # a convergent tail of several atoms still sums through its majorant
    decaying = (TailRule.geometric(0.5, 0.25), TailRule.geometric(0.22, 0.5))
    got = evaluate(f, Point((), decaying)).value
    want = mpmath.nsum(
        lambda n: -1.45 / n * 0.89 * mpmath.sqrt(0.5 * 0.25**n + 0.22 * 0.5**n), [1, mpmath.inf]
    )
    assert got == pytest.approx(float(want), rel=1e-9)


def test_scale_doubles_and_rejects_negative():
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    x = Point([], (TailRule.const(1.0),))
    assert evaluate(scale(2.0, f), x).value == pytest.approx(
        2.0 * evaluate(f, x).value
    )
    with pytest.raises(NegativeScale):
        scale(-1.0, f)
    with pytest.raises(NegativeScale):
        Scale(-0.5, f)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_constants_and_scales_must_be_finite(bad):
    # A non-finite constant or scale has no certified value: -inf would be
    # read as +inf by the value step, and NaN slips past the sign check.
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    with pytest.raises(ValueError, match="must be finite"):
        Constant(bad)
    for make in (Scale, scale):
        with pytest.raises(ValueError, match="must be finite"):
            make(bad, f)
        with pytest.raises(ValueError, match="must be finite"):
            make(bad, LimsupSeminorm())


def test_limsup_ignores_prefix():
    p = LimsupSeminorm()
    assert evaluate(p, Point([100.0], (TailRule.harmonic(1.0),))).value == 0.0
    assert evaluate(p, Point([0.0], (TailRule.const(0.75),))).value == 0.75


# exact one-coordinate deltas ----------------------------------------------


def test_delta_along_basis_matches_closed_form():
    f = example3_objective()
    x = example3_anchor()
    n, t = 3, 1e-6
    # only the n-th series term moves; limsup ignores finite changes
    xn = mpmath.mpf(x.coordinate(n))
    ref = float(
        mpmath.mpf(BETA) ** n * ((xn + t) ** 2 - (xn + t) / n - (xn**2 - xn / n))
    )
    # the delta is evaluated in double precision from the expanded form, so
    # allow rounding of order eps * |x_n| / t relative to the true value
    assert delta_along_basis(f, x, n, t) == pytest.approx(ref, rel=1e-9)


def test_delta_along_basis_is_cancellation_free():
    # at t = 1e-9 a subtraction of full evaluations would lose ~7 digits;
    # the exact delta keeps the quotient pinned at the closed form
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    x = Point([], (TailRule.const(1.0),))
    t = 1e-9
    q = delta_along_basis(f, x, 2, t) / t
    assert q == pytest.approx(BETA**2 * (2.0 + t), rel=1e-9)


def test_delta_along_basis_domain_violation():
    f = example4_objective()
    with pytest.raises(DomainViolation):
        delta_along_basis(f, Point.zero(), 1, -1.0)


# closed-form directional derivatives ---------------------------------------


def test_square_derivative_exists():
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    x = Point([], (TailRule.const(1.0),))
    dv = analytic_dir_deriv(f, x, 3)
    assert dv.status is DirStatus.EXISTS
    assert dv.value == pytest.approx(2.0 * BETA**3)


def test_abs_kink_at_zero_coordinate():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_())
    dv = analytic_dir_deriv(f, Point([1.0], ()), 2)
    assert dv.status is DirStatus.NOT_DIFFERENTIABLE
    assert dv.left == pytest.approx(-1.0)
    assert dv.right == pytest.approx(1.0)


def test_abs_away_from_zero_is_signed():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_())
    dv = analytic_dir_deriv(f, Point([-2.0], ()), 1)
    assert dv.status is DirStatus.EXISTS
    assert dv.value == pytest.approx(-1.0)


def test_sqrt_boundary_has_infinite_slope():
    f = example4_objective()
    dv = analytic_dir_deriv(f, Point.zero(), 1)
    assert dv.status is DirStatus.NOT_DIFFERENTIABLE
    assert dv.right == -math.inf or dv.right is None


def test_limsup_basis_derivative_is_zero():
    dv = analytic_dir_deriv(LimsupSeminorm(), Point([], (TailRule.const(1.0),)), 4)
    assert dv.status is DirStatus.EXISTS
    assert dv.value == 0.0


def test_linear_functional_derivative_is_coefficient():
    lf = LinearFunctional(DualPoint([2.0, -3.0], ()))
    for n, want in ((1, 2.0), (2, -3.0), (5, 0.0)):
        dv = analytic_dir_deriv(lf, Point.zero(), n)
        assert dv.status is DirStatus.EXISTS
        assert dv.value == pytest.approx(want)


def test_stationarity_of_weighted_quadratic_at_anchor():
    f = example3_objective()
    x = example3_anchor()
    for n in (1, 2, 5, 17):
        dv = analytic_dir_deriv(f, x, n)
        assert dv.status is DirStatus.EXISTS
        assert dv.value == 0.0


def test_stationarity_of_sqrt_objective_at_anchor():
    f = example4_objective()
    x = example4_anchor()
    for n in (1, 2, 5, 17):
        dv = analytic_dir_deriv(f, x, n)
        assert dv.status is DirStatus.EXISTS
        assert dv.value == 0.0


# evaluation difference consistency -----------------------------------------


def test_delta_consistent_with_full_evaluations():
    f = example3_objective()
    x = example3_anchor()
    t = 0.25
    moved = point_axpy(x, t, basis_vector(2))
    lhs = delta_along_basis(f, x, 2, t)
    a, b = evaluate(f, moved), evaluate(f, x)
    assert lhs == pytest.approx(a.value - b.value, abs=a.error_bound + b.error_bound + 1e-10)


# JSON codec -----------------------------------------------------------------


def test_function_json_round_trips():
    funcs = [
        example3_objective(),
        example4_objective(),
        example5_objective(),
        Constant(1.0),
        LimsupSeminorm(),
        LinearFunctional(DualPoint([1.0], (TailRule.geometric(1.0, 0.5),))),
        scale(2.0, SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.abs_())),
    ]
    x = Point([0.3, 0.7], (TailRule.geometric(0.9, 0.4),))
    for f in funcs:
        g = function_from_json(function_to_json(f))
        vf, vg = evaluate(f, x), evaluate(g, x)
        assert vg.value == pytest.approx(vf.value, abs=vf.error_bound + vg.error_bound)


def test_function_json_rejects_unknown_kind_and_fields():
    with pytest.raises(ValueError):
        function_from_json({"kind": "max"})
    with pytest.raises(ValueError):
        function_from_json({"kind": "limsup", "extra": 1})
    with pytest.raises(ValueError):
        function_from_json(
            {"kind": "separable", "weight": 1.0, "inner": {"kind": "square", "a": 1}}
        )
    with pytest.raises(ValueError):
        function_from_json({"kind": "sum", "terms": "not-a-list"})


def test_a_coefficient_of_several_atoms_has_no_json_form():
    # the format writes a coefficient as a number or one tail atom, so the
    # encoder refuses what the decoder could not read back
    two = point_form([("const", 1.0, 0.0), ("harmonic", 1.0, 0.0)])
    for f in (
        SeparableSeries(two, ScalarConvex.square()),
        SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(two)),
    ):
        with pytest.raises(ValueError, match="has several atoms"):
            function_to_json(f)
    for one in (TailRule.const(2.0), TailRule.harmonic(1.0), TailRule.geometric(1.0, 0.5)):
        obj = function_to_json(SeparableSeries(one, ScalarConvex.linear(one)))
        assert function_to_json(function_from_json(obj)) == obj


def test_constant_weight_encodes_as_bare_number():
    f = SeparableSeries(TailRule.const(2.0), ScalarConvex.square())
    obj = function_to_json(f)
    assert obj["weight"] == 2.0
