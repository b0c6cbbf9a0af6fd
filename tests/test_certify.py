"""The certifiers: qualification, pseudo-semicontinuity along anchored
truncations, minimality, subgradients, differentiability detection,
term-wise series differentiation, and KKT."""

import hashlib
import math
import random
import sys
import time

import pytest

from seqcert.certify import (
    CertifyOptions,
    _basis_profile,
    _basis_residual,
    DiagonalFamily,
    Grade,
    ScaledFamily,
    SetDescriptor,
    Verdict,
    anchored_truncation,
    certify_min,
    check_psc,
    check_psc_numeric,
    check_qualification,
    default_psc_probes,
    coordinate_interval,
    family_from_json,
    family_to_json,
    gateaux_detect,
    kkt_certify,
    series_differentiate,
    set_from_json,
    set_membership,
    set_to_json,
    subgradient_test,
)
from seqcert.derivative import dir_deriv
from seqcert.errors import DomainViolation, InfeasiblePoint, NoMajorant, NonConvergentPairing
from seqcert.funcs import (
    Constant,
    DirStatus,
    LimsupSeminorm,
    LinearFunctional,
    ScalarConvex,
    Scale,
    SeparableSeries,
    Sum,
    basis_partials,
    evaluate,
)
from seqcert.reduce import build_reduced, minimize_reduced
from seqcert.sampling import random_direction, random_dual, random_function, random_point
from seqcert.seqspace import (
    DualPoint,
    Point,
    SpaceDescriptor,
    TailRule,
    basis_vector,
    point_axpy,
)

from quotient_scan import quotient_scan

BETA = 0.5
OPTS = CertifyOptions()


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


def quad_series():
    return SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())


# sets -------------------------------------------------------------------------


def test_whole_space_membership_and_intervals():
    s = SetDescriptor.whole_space()
    assert set_membership(s, Point([9.0], (TailRule.const(-3.0),))) == (True, None)
    assert coordinate_interval(s, 5) == (-math.inf, math.inf)


def test_cone_membership():
    s = SetDescriptor.positive_cone_ell1()
    assert set_membership(s, Point([], (TailRule.geometric(1.0, 0.5),))) == (True, None)
    ok, n = set_membership(s, Point([-0.1], ()))
    assert ok is False and n == 1
    # summable but not nonneg / nonneg but not summable
    ok, _ = set_membership(s, Point([], (TailRule.harmonic(1.0),)))
    assert ok is False
    assert coordinate_interval(s, 1) == (0.0, math.inf)


def test_box_membership_and_intervals():
    lower = Point([1.0], ())
    s = SetDescriptor.box(lower=lower, upper=None, bound_count=1)
    assert set_membership(s, Point([2.0, -5.0], ())) == (True, None)
    ok, n = set_membership(s, Point([0.5], ()))
    assert ok is False and n == 1
    assert coordinate_interval(s, 1) == (1.0, math.inf)
    assert coordinate_interval(s, 2) == (-math.inf, math.inf)


def test_set_json_round_trip():
    sets = [
        SetDescriptor.whole_space(),
        SetDescriptor.positive_cone_ell1(),
        SetDescriptor.box(lower=Point([1.0], ()), upper=None, bound_count=1),
    ]
    for s in sets:
        assert set_to_json(set_from_json(set_to_json(s))) == set_to_json(s)
    with pytest.raises(ValueError):
        set_from_json({"kind": "ball"})
    with pytest.raises(ValueError):
        set_from_json({"kind": "whole_space", "radius": 1})


# qualification -----------------------------------------------------------------


def test_whole_space_is_qualified_everywhere():
    cert = check_qualification(SetDescriptor.whole_space(), Point([-9.0], ()))
    assert cert.verdict is Verdict.HOLDS
    assert cert.grade.render() == "analytic_all_n"


def test_cone_qualified_at_strictly_positive_point():
    cert = check_qualification(
        SetDescriptor.positive_cone_ell1(), example4_anchor()
    )
    assert cert.verdict is Verdict.HOLDS
    assert cert.grade.render() == "analytic_all_n"


def test_cone_not_qualified_with_zero_coordinate():
    x = Point([0.5, 0.0], (TailRule.geometric(1.0, 0.25),))
    cert = check_qualification(SetDescriptor.positive_cone_ell1(), x)
    assert cert.verdict is Verdict.FAILS
    assert cert.witness == {"condition": "interior", "k": 2}


def test_infeasible_anchor_fails_qualification():
    cert = check_qualification(SetDescriptor.positive_cone_ell1(), Point([-1.0], ()))
    assert cert.verdict is Verdict.FAILS


def test_box_face_anchor_not_qualified():
    s = SetDescriptor.box(lower=Point([1.0], ()), upper=None, bound_count=1)
    cert = check_qualification(s, basis_vector(1))
    assert cert.verdict is Verdict.FAILS
    strict = check_qualification(s, Point([1.5], ()))
    assert strict.verdict is Verdict.HOLDS


# pseudo-semicontinuity ----------------------------------------------------------


def test_limsup_psc_holds_when_anchor_limsup_vanishes():
    cert = check_psc(LimsupSeminorm(), example3_anchor())
    assert cert.verdict is Verdict.HOLDS
    assert cert.grade.render() == "analytic_all_n"


def test_limsup_psc_fails_at_ones_with_zero_witness():
    ones = Point([], (TailRule.const(1.0),))
    cert = check_psc(LimsupSeminorm(), ones)
    assert cert.verdict is Verdict.FAILS
    w = cert.witness
    assert w["limsup_at_anchor"] == pytest.approx(1.0)
    assert w["limsup_at_probe"] == pytest.approx(0.0)
    for row in w["f_along_truncations"]:
        assert row["f_at_truncation"] == pytest.approx(1.0)


def test_series_only_functions_are_psc():
    cert = check_psc(quad_series(), Point([2.0], ()))
    assert cert.verdict is Verdict.HOLDS


def test_psc_sum_rule():
    f = quad_series()
    g = SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.abs_())
    x = Point([0.5], (TailRule.geometric(1.0, 0.5),))
    assert check_psc(f, x).verdict is Verdict.HOLDS
    assert check_psc(g, x).verdict is Verdict.HOLDS
    assert check_psc(Sum((f, g)), x).verdict is Verdict.HOLDS


def test_anchored_truncation_shape():
    x = Point([], (TailRule.const(2.0),))
    anchor = example3_anchor()
    t = anchored_truncation(anchor, x, 3)
    assert t.coordinate(2) == 2.0
    assert t.coordinate(4) == anchor.coordinate(4)


# certify_min -------------------------------------------------------------------


def test_minimum_certified_for_weighted_quadratic():
    cert = certify_min(
        example3_objective(), SetDescriptor.whole_space(), example3_anchor(), OPTS
    )
    assert cert.verdict is Verdict.HOLDS
    assert cert.grade.render() == "analytic_all_n"
    assert cert.evidence["f_at_anchor"] == pytest.approx(-0.1455601316162531, abs=1e-10)


def test_minimum_certified_on_positive_cone():
    cert = certify_min(
        example4_objective(), SetDescriptor.positive_cone_ell1(), example4_anchor(), OPTS
    )
    assert cert.verdict is Verdict.HOLDS
    assert cert.grade.render() == "analytic_all_n"
    assert cert.evidence["f_at_anchor"] == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_vanishing_derivatives_do_not_certify_without_psc():
    g = example5_objective()
    ones = Point([], (TailRule.const(1.0),))
    half = Point([], (TailRule.const(0.5),))
    cert = certify_min(g, SetDescriptor.whole_space(), ones, OPTS, probes=(half,))
    assert cert.verdict is Verdict.FAILS
    w = cert.witness
    assert w["f_at_anchor"] == pytest.approx(0.0, abs=1e-9)
    assert w["f_at_probe"] == pytest.approx(-0.25, abs=1e-9)
    # every basis derivative still vanishes: the failure is not stationarity
    stat_rows = cert.evidence["stationarity"]["derivatives"]
    for row in stat_rows[:8]:
        assert row["analytic"] == pytest.approx(0.0, abs=1e-12)


def test_example5_without_probe_is_inconclusive_at_best():
    # psc fails at the all-ones anchor; without the disproving probe the
    # verdict must not be HOLDS
    g = example5_objective()
    ones = Point([], (TailRule.const(1.0),))
    cert = certify_min(g, SetDescriptor.whole_space(), ones, OPTS)
    assert cert.verdict is not Verdict.HOLDS


def test_nonstationary_anchor_fails_with_concrete_witness():
    cert = certify_min(
        quad_series(), SetDescriptor.whole_space(), Point([1.0], ()), OPTS
    )
    assert cert.verdict is Verdict.FAILS
    # witness is a probe that beats the anchor, or the offending index
    w = cert.witness
    assert ("probe" in w and w["f_at_probe"] < w["f_at_anchor"]) or w.get("n") == 1
    # either way, evidence records the nonzero derivative at n = 1
    row = cert.evidence["stationarity"]["derivatives"][0]
    assert row["analytic"] == pytest.approx(2 * BETA, rel=1e-9)


def test_kink_at_anchor_is_inconclusive():
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.abs_())
    cert = certify_min(f, SetDescriptor.whole_space(), Point.zero(), OPTS)
    # |.| has a kink at 0 in every coordinate: no stationarity decision,
    # and 0 really is the minimum, so FAILS would be wrong
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_certificate_json_shape():
    cert = certify_min(
        example3_objective(), SetDescriptor.whole_space(), example3_anchor(), OPTS
    )
    obj = cert.to_json()
    assert obj["verdict"] == "holds"
    assert obj["grade"] == "analytic_all_n"
    assert set(obj) == {"verdict", "grade", "reason", "witness", "evidence"}


# subgradient --------------------------------------------------------------------


def test_gradient_is_the_subgradient_at_smooth_points():
    f = quad_series()
    x = Point([], (TailRule.const(1.0),))
    p = DualPoint([], (TailRule.geometric(2.0, BETA),))
    cert = subgradient_test(f, x, p, OPTS)
    assert cert.verdict is Verdict.HOLDS
    assert cert.grade.render() == "analytic_all_n"


def test_rounded_ratio_products_do_not_earn_the_exact_grade():
    # r3 is the double nearest r1*r2: at x* = 0.5 r2^n the basis derivatives
    # (r1 r2)^n - r3^n are tiny but not exactly zero for any n, so the
    # stationarity can hold only at the sampled grade
    r1, r2 = 0.207491395289921, 0.7779469895497861
    r3 = r1 * r2
    quad = SeparableSeries(TailRule.geometric(1.0, r1), ScalarConvex.square())
    f = Sum((quad, LinearFunctional(DualPoint((), TailRule.geometric(-1.0, r3)))))
    x_star = Point((), TailRule.geometric(0.5, r2))
    cert = certify_min(f, SetDescriptor.whole_space(), x_star, OPTS)
    assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.numeric(OPTS.coords))
    sub = subgradient_test(quad, x_star, DualPoint((), TailRule.geometric(1.0, r3)), OPTS)
    assert (sub.verdict, sub.grade) == (Verdict.HOLDS, Grade.numeric(OPTS.coords))


def test_a_non_finite_dual_is_rejected_not_certified():
    # |f'(x*; e_1) - p_1| > tol is False for p_1 = NaN: such a dual would
    # match every derivative, so it must not be representable
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square())
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            subgradient_test(f, Point([1.0]), DualPoint([bad]), OPTS)


def test_wrong_dual_fails_with_index_witness():
    f = quad_series()
    x = Point([], (TailRule.const(1.0),))
    p = DualPoint([0.7], (TailRule.geometric(2.0, BETA),))  # off at n = 1
    cert = subgradient_test(f, x, p, OPTS)
    assert cert.verdict is Verdict.FAILS
    assert cert.witness["n"] == 1


def test_subgradient_inequality_holds_on_samples():
    from seqcert.sampling import random_point, rng_from_seed
    from seqcert.seqspace import pair, point_sub

    f = quad_series()
    x_star = Point([], (TailRule.const(1.0),))
    p = DualPoint([], (TailRule.geometric(2.0, BETA),))
    assert subgradient_test(f, x_star, p, OPTS).verdict is Verdict.HOLDS
    rng = rng_from_seed(7)
    f_star = evaluate(f, x_star)
    checked = 0
    while checked < 50:
        x = random_point(rng)
        fx = evaluate(f, x)
        if not math.isfinite(fx.value):
            continue
        inner = pair(p, point_sub(x, x_star))
        slack = fx.error_bound + f_star.error_bound + inner.error_bound + 1e-7
        assert fx.value >= f_star.value + inner.value - slack
        checked += 1


def test_subgradient_inconclusive_at_kink():
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.abs_())
    cert = subgradient_test(f, Point.zero(), DualPoint([0.0], ()), OPTS)
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_missing_derivative_below_valid_from_is_decided_before_a_violation():
    # the closed form holds from n = 7, past the 4 sampled coordinates; the
    # derivative at n = 1 disagrees with p, but the one at n = 6 is missing
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.abs_())
    x_star = Point([1.0] * 5 + [0.0], (TailRule.const(1.0),))
    opts = CertifyOptions(coords=4)
    cert = subgradient_test(f, x_star, DualPoint([5.0]), opts)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.reason == "directional derivative does not exist at n=6"
    kkt = kkt_certify(f, [], [], SetDescriptor.whole_space(), x_star, [], [], opts)
    assert kkt.verdict is Verdict.INCONCLUSIVE
    assert kkt.reason == "directional derivative missing at n=6"


def test_subgradient_inconclusive_without_psc():
    f = Sum((LimsupSeminorm(), quad_series()))
    ones = Point([], (TailRule.const(1.0),))
    cert = subgradient_test(f, ones, DualPoint([], (TailRule.geometric(2.0, BETA),)), OPTS)
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_tail_witness_of_a_zero_derivative_is_a_float():
    # f' = 0 everywhere; p_n = 2e-7 (1 - 0.99^n) exceeds the tolerance far out
    p = DualPoint([], (TailRule.const(2e-7), TailRule.geometric(-2e-7, 0.99)))
    cert = subgradient_test(Constant(0.0), Point.zero(), p, OPTS)
    assert cert.verdict is Verdict.FAILS
    assert cert.reason == "derivative and dual coordinate disagree in the tail"
    assert type(cert.witness["derivative"]) is float
    assert cert.witness["derivative"] == 0.0


# gateaux ------------------------------------------------------------------------


def test_l1_norm_differentiable_when_no_coordinate_vanishes():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_())
    x = Point([1.0, -2.0], (TailRule.geometric(1.0, 0.5),))
    cert, deriv = gateaux_detect(f, SpaceDescriptor.ell1(), x, OPTS)
    assert cert.verdict is Verdict.HOLDS
    assert deriv is not None
    assert deriv.coefficient(1) == pytest.approx(1.0)
    assert deriv.coefficient(2) == pytest.approx(-1.0)
    assert deriv.coefficient(3) == pytest.approx(1.0)


def test_l1_norm_kink_witnessed_at_zero_coordinate():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_())
    x = Point([1.0, 0.0, 2.0], ())  # zero tail: kink at n = 2 first
    cert, deriv = gateaux_detect(f, SpaceDescriptor.ell1(), x, OPTS)
    assert cert.verdict is Verdict.FAILS
    assert cert.witness["n"] == 2
    assert deriv is None


def test_linfty_basis_existence_never_upgrades():
    cert, _ = gateaux_detect(quad_series(), SpaceDescriptor.ellinf(), Point.zero(), OPTS)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert "basis" in (cert.reason or "")


def test_linfty_witness_direction_disproves():
    ones = Point([], (TailRule.const(1.0),))
    cert, _ = gateaux_detect(
        LimsupSeminorm(), SpaceDescriptor.ellinf(), Point.zero(), OPTS,
        witness_directions=(ones,),
    )
    assert cert.verdict is Verdict.FAILS
    assert cert.witness["left"] == pytest.approx(-1.0, abs=1e-7)
    assert cert.witness["right"] == pytest.approx(1.0, abs=1e-7)


def test_limsup_on_linfty_is_inconclusive_without_witness():
    cert, _ = gateaux_detect(
        LimsupSeminorm(), SpaceDescriptor.ellinf(), Point.zero(), OPTS
    )
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_witness_directions_are_read_on_every_space():
    # on rn the limsup is not continuous, but a supplied direction still
    # exhibits its kink at 0
    ones = Point([], (TailRule.const(1.0),))
    cert, deriv = gateaux_detect(
        LimsupSeminorm(), SpaceDescriptor.rn(), Point.zero(), OPTS, witness_directions=(ones,)
    )
    assert (cert.verdict, cert.grade.render()) == (Verdict.FAILS, f"numeric_first_n({OPTS.coords})")
    assert (cert.witness["left"], cert.witness["right"]) == (-1.0, 1.0)
    assert deriv is None


def test_witness_direction_without_certified_quotients_is_skipped():
    # along the all-ones direction the delta series of sum (1/n) x_n^2 has
    # no summable majorant; the direction is skipped and the basis decides
    f = SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.square())
    ones = Point([], (TailRule.const(1.0),))
    with pytest.raises(NoMajorant):
        dir_deriv(f, Point.zero(), ones)
    for space, verdict in (
        (SpaceDescriptor.rn(), Verdict.HOLDS),
        (SpaceDescriptor.ellinf(), Verdict.INCONCLUSIVE),
    ):
        cert, _ = gateaux_detect(f, space, Point.zero(), OPTS, witness_directions=(ones,))
        assert cert.verdict is verdict


def test_witness_direction_outside_the_space_is_skipped():
    # limsup |x_n| vanishes on l1, so the all-ones direction, which is not
    # in l1, must not disprove differentiability there
    ones = Point([], (TailRule.const(1.0),))
    cert, _ = gateaux_detect(
        LimsupSeminorm(), SpaceDescriptor.ell1(), Point.zero(), OPTS, witness_directions=(ones,)
    )
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_missing_partial_is_decided_before_witness_directions():
    # the closed-form kink at n = 1 outranks a numeric direction witness
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())
    e1 = basis_vector(1)
    for space in (SpaceDescriptor.rn(), SpaceDescriptor.ell1(), SpaceDescriptor.ellinf()):
        cert, _ = gateaux_detect(f, space, Point.zero(), OPTS, witness_directions=(e1,))
        assert (cert.verdict, cert.grade.render()) == (Verdict.FAILS, "analytic_all_n")
        assert cert.witness == {"n": 1, "left": -0.5, "right": 0.5}


def test_gateaux_anchor_outside_the_space_is_rejected():
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square())
    ones = Point([], (TailRule.const(1.0),))
    with pytest.raises(InfeasiblePoint):
        gateaux_detect(f, SpaceDescriptor.ell1(), ones, OPTS)
    cert, _ = gateaux_detect(f, SpaceDescriptor.rn(), ones, OPTS)
    assert cert.verdict is Verdict.HOLDS


def test_a_coefficient_beyond_the_double_range_overflows_no_certifier():
    # f = sum x_n^2 at x*_n = 1e200 * 0.5^n sums the coefficient 1e400,
    # which no double holds: f(x*) has no certified value
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    big = Point((), TailRule.geometric(1e200, 0.5))
    # certify_min does not yet decide x* in dom f before its stages, so the
    # undecided value is raised as the documented error, not an OverflowError
    with pytest.raises(NoMajorant, match="beyond the double range"):
        certify_min(f, SetDescriptor.whole_space(), big, OPTS)
    # the partials 2 x*_n have a closed form; the validation directions,
    # which need f(x*), are skipped
    cert, _ = gateaux_detect(f, SpaceDescriptor.ell1(), big, OPTS)
    assert cert.verdict is Verdict.HOLDS and cert.evidence["validation_samples"] == []
    # a witness direction whose slope tail overflows is skipped, as one
    # without a certified directional derivative is
    x = Point((), TailRule.geometric(1.0, 0.5))
    h = Point((), TailRule.geometric(1e308, 0.5))
    with pytest.raises(NoMajorant, match="beyond the double range"):
        dir_deriv(f, x, h)
    cert, _ = gateaux_detect(f, SpaceDescriptor.rn(), x, OPTS, witness_directions=(h,))
    assert cert == gateaux_detect(f, SpaceDescriptor.rn(), x, OPTS)[0]


def test_space_descriptor_is_its_kind():
    for space, topological in (
        (SpaceDescriptor.rn(), True),
        (SpaceDescriptor.ell1(), True),
        (SpaceDescriptor.ellinf(), False),
    ):
        assert space.basis_is_topological is topological
        assert space == SpaceDescriptor(space.kind)


def test_smooth_series_on_l1_assembles_derivative():
    f = quad_series()
    x = Point([0.5], (TailRule.geometric(1.0, 0.5),))
    cert, deriv = gateaux_detect(f, SpaceDescriptor.ell1(), x, OPTS)
    assert cert.verdict is Verdict.HOLDS
    assert deriv is not None
    h = Point([1.0, -1.0], (TailRule.geometric(0.5, 0.5),))
    applied = deriv.apply(h)
    direct = dir_deriv(f, x, h)
    assert applied.value == pytest.approx(direct.value, abs=1e-6)


def test_gateaux_apply_is_linear():
    f = quad_series()
    x = Point([0.5], (TailRule.geometric(1.0, 0.5),))
    _, deriv = gateaux_detect(f, SpaceDescriptor.ell1(), x, OPTS)
    h1 = Point([1.0], (TailRule.geometric(1.0, 0.25),))
    h2 = Point([-0.5, 2.0], ())
    lhs = deriv.apply(point_axpy(h2, 3.0, h1))
    rhs = 3.0 * deriv.apply(h1).value + deriv.apply(h2).value
    assert lhs.value == pytest.approx(rhs, abs=1e-9)


def test_gateaux_coefficients_start_at_index_one():
    # known is (1.0, 1.5); Python's negative indexing used to answer
    # coefficient(0) with 1.5 and coefficient(-1) with 1.0
    cert, deriv = gateaux_detect(quad_series(), SpaceDescriptor.ell1(), Point([1.0, 3.0]), OPTS)
    assert cert.verdict is Verdict.HOLDS
    assert deriv.known[:2] == (1.0, 1.5)
    assert (deriv.coefficient(1), deriv.coefficient(2)) == (1.0, 1.5)
    for n in (0, -1):
        with pytest.raises(ValueError, match="coefficient index must be >= 1"):
            deriv.coefficient(n)


def test_apply_rejects_directions_past_sampled_head():
    f = quad_series()
    x = Point([0.5], (TailRule.geometric(1.0, 0.5),))
    _, deriv = gateaux_detect(f, SpaceDescriptor.ell1(), x, OPTS)
    if deriv is not None and deriv.tail is None:
        with pytest.raises(NonConvergentPairing):
            deriv.apply(Point([], (TailRule.geometric(1.0, 0.5),)))


# series families ----------------------------------------------------------------


def test_diagonal_family_differentiaties_termwise():
    fam = DiagonalFamily(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    x = Point([], (TailRule.const(0.5),))
    cert, values = series_differentiate(fam, x, opts=OPTS)
    assert cert.verdict is Verdict.HOLDS
    assert cert.grade.render() == "analytic_all_n"
    for n, v in enumerate(values[:8], start=1):
        assert v == pytest.approx(BETA**n * 2 * 0.5, rel=1e-9)


def test_diagonal_family_kink_fails():
    fam = DiagonalFamily(TailRule.geometric(1.0, BETA), ScalarConvex.abs_())
    cert, _ = series_differentiate(fam, Point.zero(), opts=OPTS)
    assert cert.verdict is Verdict.FAILS


def test_diagonal_family_kink_past_the_sampled_coordinates_fails():
    # the first four terms are smooth at x*; the term at n = 9 has its kink
    # there, where x* turns zero
    fam = DiagonalFamily(TailRule.geometric(1.0, BETA), ScalarConvex.abs_())
    cert, _ = series_differentiate(fam, Point([1.0] * 8), opts=CertifyOptions(coords=4))
    assert cert.verdict is Verdict.FAILS
    assert cert.witness == {"n": 9}


def test_list_family_kink_past_the_sampled_coordinates_fails():
    # the same function as one list term: its partial along e_9 is missing
    # too, past the 4 sampled coordinates
    fam = [SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.abs_())]
    cert, _ = series_differentiate(fam, Point([1.0] * 8), opts=CertifyOptions(coords=4))
    assert cert.verdict is Verdict.FAILS
    assert cert.witness == {"term": 0, "n": 9}


def test_scaled_family_without_majorant_raises():
    base = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    fam = ScaledFamily(TailRule.harmonic(1.0), base)  # coefficients not summable
    x = Point([], (TailRule.const(1.0),))
    with pytest.raises(NoMajorant):
        series_differentiate(fam, x, opts=OPTS)


def test_scaled_family_with_summable_coefficients():
    base = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    fam = ScaledFamily(TailRule.geometric(1.0, 0.5), base)
    x = Point([], (TailRule.const(1.0),))
    cert, values = series_differentiate(fam, x, opts=OPTS)
    assert cert.verdict is Verdict.HOLDS


def test_list_family_is_finite_sums():
    fam = [quad_series(), SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0))]
    x = Point([0.5], ())
    cert, values = series_differentiate(fam, x, opts=OPTS)
    assert cert.verdict is Verdict.HOLDS


def test_family_json_round_trip():
    fams = [
        DiagonalFamily(TailRule.geometric(1.0, BETA), ScalarConvex.square()),
        ScaledFamily(TailRule.geometric(1.0, 0.5), quad_series()),
        [quad_series(), Constant(1.0)],
    ]
    for fam in fams:
        obj = family_to_json(fam)
        assert family_to_json(family_from_json(obj)) == obj
    with pytest.raises(ValueError):
        family_from_json({"kind": "mystery"})


# kkt ------------------------------------------------------------------------------


def kkt_pieces():
    f = quad_series()
    g1 = Sum((Constant(1.0), LinearFunctional(DualPoint([-1.0], ()))))
    return f, g1


def test_kkt_multiplier_certificate_three_ways():
    f, g1 = kkt_pieces()
    x_star = basis_vector(1)
    cert = kkt_certify(
        f, [g1], [], SetDescriptor.whole_space(), x_star, [2 * BETA], [], OPTS
    )
    assert cert.verdict is Verdict.HOLDS
    assert cert.grade.render() == "analytic_all_n"

    wrong = kkt_certify(
        f, [g1], [], SetDescriptor.whole_space(), x_star, [0.0], [], OPTS
    )
    assert wrong.verdict is Verdict.INCONCLUSIVE
    assert wrong.witness["n"] == 1

    with pytest.raises(InfeasiblePoint):
        kkt_certify(f, [g1], [], SetDescriptor.whole_space(), Point.zero(), [1.0], [], OPTS)


def test_kkt_witness_is_the_first_failing_index_with_its_sign():
    # f'(x*; e_n) = 0.5^n * 2 x_n: -1 at n = 1, then 0.75 at n = 3
    f, x_star = quad_series(), Point([-1.0, 0.0, 3.0])
    kkt = kkt_certify(f, [], [], SetDescriptor.whole_space(), x_star, [], [], OPTS)
    assert kkt.verdict is Verdict.INCONCLUSIVE
    assert kkt.reason == "stationarity fails at n=1; sufficiency cannot conclude"
    assert kkt.witness == {"n": 1, "lagrangian_derivative": -1.0}
    sub = subgradient_test(f, x_star, DualPoint.zero(), OPTS)
    assert sub.witness == {"n": 1, "derivative": -1.0, "dual": 0.0}
    # the first violation is named, not the largest (0.75 at n = 3)
    x_star = Point([-0.5, 0.0, 3.0])
    kkt = kkt_certify(f, [], [], SetDescriptor.whole_space(), x_star, [], [], OPTS)
    assert kkt.witness == {"n": 1, "lagrangian_derivative": -0.5}


def test_kkt_negative_multiplier_is_inconclusive():
    f, g1 = kkt_pieces()
    cert = kkt_certify(
        f, [g1], [], SetDescriptor.whole_space(), basis_vector(1), [-1.0], [], OPTS
    )
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_kkt_negative_multiplier_on_a_nonaffine_equality_is_inconclusive():
    # f = sum 0.5^n x_n and h = sum 0.5^n x_n^2 - 1 at x* = (1, 1, ...): with
    # nu = -0.5 the Lagrangian is stationary, but x* maximizes f on {h = 0}
    # (x = (-1, -1, ...) is feasible with f = -1 < 1)
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.linear(1.0))
    h = Sum((SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square()), Constant(-1.0)))
    ws = SetDescriptor.whole_space()
    ones = Point([], (TailRule.const(1.0),))
    cert = kkt_certify(f, [], [h], ws, ones, [], [-0.5], OPTS)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.reason == "multiplier 0 is negative on a non-affine equality"
    # the mirrored anchor is the true minimizer, with nu = +0.5
    minus_ones = Point([], (TailRule.const(-1.0),))
    cert = kkt_certify(f, [], [h], ws, minus_ones, [], [0.5], OPTS)
    assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())


def test_kkt_negative_multiplier_on_an_affine_equality_is_admissible():
    # h = sum 0.5^n x_n - 1 is affine, so nu < 0 keeps nu h convex
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.linear(1.0))
    h = Sum((
        Scale(2.0, SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.linear(0.5))),
        Constant(-1.0),
    ))
    ones = Point([], (TailRule.const(1.0),))
    cert = kkt_certify(f, [], [h], SetDescriptor.whole_space(), ones, [], [-1.0], OPTS)
    assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())


def test_kkt_multiplier_count_mismatch():
    f, g1 = kkt_pieces()
    with pytest.raises(ValueError):
        kkt_certify(f, [g1], [], SetDescriptor.whole_space(), basis_vector(1), [], [], OPTS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kkt_rejects_a_non_finite_multiplier(bad):
    # NaN passes the sign checks (every comparison is False) and used to
    # surface as SymSeq's "non-finite coefficient" from deep inside
    f, ws = quad_series(), SetDescriptor.whole_space()
    e1 = LinearFunctional(DualPoint([1.0]))
    with pytest.raises(ValueError, match=r"^multiplier lambda_0 is not finite"):
        kkt_certify(f, [e1], [], ws, Point.zero(), [bad], [], OPTS)
    with pytest.raises(ValueError, match=r"^multiplier nu_1 is not finite"):
        kkt_certify(f, [], [e1, e1], ws, Point.zero(), [], [0.0, bad], OPTS)


def test_kkt_admits_a_negative_multiplier_on_a_zero_scaled_equality():
    # 0 * h is the zero function whatever h is, so nu * (0 * h) is affine
    # and nu < 0 keeps the Lagrangian convex
    f, ws = quad_series(), SetDescriptor.whole_space()
    h = Scale(0.0, quad_series())
    cert = kkt_certify(f, [], [h], ws, Point.zero(), [], [-1.0], OPTS)
    assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())


def test_kkt_slackness_violation_is_inconclusive():
    f = quad_series()
    # inactive constraint x_1 <= 2 with a positive multiplier
    g1 = Sum((Constant(-2.0), LinearFunctional(DualPoint([1.0], ()))))
    cert = kkt_certify(
        f, [g1], [], SetDescriptor.whole_space(), basis_vector(1), [1.0], [], OPTS
    )
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert "slack" in (cert.reason or "")


def test_kkt_dominance_on_feasible_probes():
    f, g1 = kkt_pieces()
    x_star = basis_vector(1)
    cert = kkt_certify(
        f, [g1], [], SetDescriptor.whole_space(), x_star, [2 * BETA], [], OPTS
    )
    assert cert.verdict is Verdict.HOLDS
    from seqcert.sampling import random_point, rng_from_seed

    f_star = evaluate(f, x_star)
    rng = rng_from_seed(11)
    checked = 0
    while checked < 50:
        x = random_point(rng)
        gx = evaluate(g1, x)
        if gx.value > -gx.error_bound:
            continue  # not certifiably feasible
        fx = evaluate(f, x)
        if not math.isfinite(fx.value):
            continue
        assert f_star.value <= fx.value + f_star.error_bound + fx.error_bound + 1e-7
        checked += 1


def test_kkt_oracle_cross_check_on_constraint_truncations():
    # the constrained region {x_1 >= 1} as a coordinate box; reduced
    # minimization must stay at the anchor value f(x*) = beta
    f, _ = kkt_pieces()
    x_star = basis_vector(1)
    box = SetDescriptor.box(lower=Point([1.0], ()), upper=None, bound_count=1)
    for k in (1, 2, 4):
        prob = build_reduced(f, box, x_star, k)
        _, value, _ = minimize_reduced(prob)
        assert value.value == pytest.approx(BETA, abs=1e-6)


# closed forms valid only past the sampled coordinates ------------------------------


def fuzz_instance(seed):
    """The grammar_fuzz benchmark's instance for this seed: space, f, x, p."""
    rng = random.Random(seed)
    space = rng.choice((SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf))()
    f = random_function(rng, space)
    x = random_point(rng, space=space)
    return space, f, x, random_dual(rng)


def test_fuzz_instance_with_a_late_closed_form():
    space, f, x_star, p = fuzz_instance(54)
    assert basis_partials(f, x_star).form.valid_from == 192 > OPTS.coords + 1
    cert, deriv = gateaux_detect(f, space, x_star, OPTS)
    assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())
    assert len(deriv.known) == 191
    sub = subgradient_test(f, x_star, p, OPTS)
    assert (sub.verdict, sub.grade) == (Verdict.FAILS, Grade.numeric(OPTS.coords))
    assert sub.witness["n"] == 1
    best = certify_min(f, SetDescriptor.whole_space(), x_star, OPTS)
    assert best.verdict is Verdict.FAILS
    assert best.reason == "a basis directional derivative is nonzero"
    assert best.witness["n"] == 1


#: sha256 of certify_min's (verdict, grade) on fuzz seeds 0-299, one line
#: per seed; recorded when the sweep still ran before every stationarity
#: FAILS, so returning that FAILS first moved none of them (CPython 3.11).
VERDICT_GRADE_DIGEST = "de709dd167402a1493daddcd1fb27b93c80a0f5a8b7b323b90d487ff4812bcda"


def descends(f, x_star, n, r_n):
    """Does x* - t sign(r_n) e_n beat x* for some t = 2^-k, k <= 60, by
    more than both error bounds?"""
    fx = evaluate(f, x_star)
    for k in range(61):
        probe = point_axpy(x_star, -math.copysign(2.0**-k, r_n), basis_vector(n))
        fp = evaluate(f, probe)
        if fx.value - fp.value > fx.error_bound + fp.error_bound:
            return True
    return False


def test_every_stationarity_fails_is_a_descent_direction():
    # a stationarity FAILS returns before the probe sweep, so no probe
    # cross-checks it there; the coordinate witness's descent probe does
    h = hashlib.sha256()
    refuted = 0
    for seed in range(300):
        _, f, x_star, _ = fuzz_instance(seed)
        try:
            cert = certify_min(f, SetDescriptor.whole_space(), x_star, OPTS)
        except Exception as exc:  # the exception is part of the record
            h.update(repr((type(exc).__name__,)).encode() + b"\n")
            continue
        h.update(repr((cert.verdict.value, cert.grade.render())).encode() + b"\n")
        if cert.reason == "a basis directional derivative is nonzero":
            assert "probe_log" not in cert.evidence and "psc" not in cert.evidence
            assert descends(f, x_star, cert.witness["n"], cert.witness["derivative"]), seed
            refuted += 1
    assert refuted == 259
    # float sums, and so grades at the margin, may differ on other interpreters
    if sys.version_info[:2] == (3, 11):
        assert h.hexdigest() == VERDICT_GRADE_DIGEST


def test_the_gateaux_derivative_is_a_subgradient():
    # Phelps, Convex Functions, Monotone Operators and Differentiability,
    # Prop. 1.8: where f is Gateaux differentiable, f'(x*) is a subgradient.
    # Every closed-form derivative whose tail a point can hold is checked.
    checked = 0
    for seed in range(300):
        space, f, x_star, _ = fuzz_instance(seed)
        cert, deriv = gateaux_detect(f, space, x_star, OPTS)
        if cert.verdict is not Verdict.HOLDS or deriv.tail is None:
            continue
        try:
            p = Point(deriv.known, deriv.tail)
        except ValueError:
            continue  # a tail like r**n / n, which a point cannot hold
        sub = subgradient_test(f, x_star, p, OPTS)
        assert sub.verdict is Verdict.HOLDS, (seed, sub)
        checked += 1
    assert checked == 123


def geometric_quadratic():
    return SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square())


def test_kkt_grades_a_late_closed_form_like_certify_min():
    # f'(x*; e_n) = 0 for every n, but the closed form holds only from n = 7
    f, x_star = geometric_quadratic(), Point([0.0] * 6)
    opts = CertifyOptions(coords=4)
    assert basis_partials(f, x_star).form.valid_from == 7
    best = certify_min(f, SetDescriptor.whole_space(), x_star, opts)
    kkt = kkt_certify(f, [], [], SetDescriptor.whole_space(), x_star, [], [], opts)
    assert best.grade.render() == kkt.grade.render() == "analytic_all_n"
    assert best.verdict is kkt.verdict is Verdict.HOLDS


def test_violation_between_the_sampled_coordinates_and_the_closed_form():
    # f'(x*; e_6) = 2 * 0.5^6 != 0 lies between coords and the closed form
    f, x_star = geometric_quadratic(), Point([0.0] * 5 + [1.0])
    opts = CertifyOptions(coords=4)
    sub = subgradient_test(f, x_star, DualPoint.zero(), opts)
    assert sub.verdict is Verdict.FAILS
    assert sub.witness == {"n": 6, "derivative": 0.03125, "dual": 0.0}
    kkt = kkt_certify(f, [], [], SetDescriptor.whole_space(), x_star, [], [], opts)
    assert kkt.verdict is Verdict.INCONCLUSIVE
    assert kkt.witness == {"n": 6, "lagrangian_derivative": 0.03125}


def test_violation_found_only_by_the_tail_scan():
    # p_n = 2e-7 (1 - 0.99^n) stays within the tolerance up to n = 68, so
    # no sampled index shows it; the eventual-sign scan of the closed form
    # finds the first n with |p_n| > 1e-7
    p = DualPoint([], (TailRule.const(2e-7), TailRule.geometric(-2e-7, 0.99)))
    f = LinearFunctional(p)
    zero = Point.zero()
    sub = subgradient_test(Constant(0.0), zero, p, OPTS)
    assert sub.reason == "derivative and dual coordinate disagree in the tail"
    assert sub.witness["n"] == 128
    best = certify_min(f, SetDescriptor.whole_space(), zero, OPTS)
    assert (best.verdict, best.witness["n"]) == (Verdict.FAILS, 128)
    kkt = kkt_certify(f, [], [], SetDescriptor.whole_space(), zero, [], [], OPTS)
    assert kkt.verdict is Verdict.INCONCLUSIVE
    assert kkt.witness == {"n": 128, "lagrangian_derivative": p.coordinate(128)}


# one basis profile: the smallest missing index, closed form and walk agree ------------


def half_abs():
    return SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())


def test_missing_partial_below_the_closed_form_kink_is_named_first():
    # the closed form kinks at n = 10 (zero tail), but e_6 already has no
    # derivative, past the 4 sampled coordinates
    x_star = Point([1.0] * 5 + [0.0] + [1.0] * 3, ())
    opts = CertifyOptions(coords=4)
    cert, _ = gateaux_detect(half_abs(), SpaceDescriptor.ell1(), x_star, opts)
    assert cert.verdict is Verdict.FAILS
    assert cert.witness == {"n": 6, "left": -0.015625, "right": 0.015625}
    cert, _ = gateaux_detect(half_abs(), SpaceDescriptor.ellinf(), x_star, opts)
    assert (cert.verdict, cert.witness) == (
        Verdict.FAILS, {"n": 6, "left": -0.015625, "right": 0.015625}
    )
    sub = subgradient_test(half_abs(), x_star, DualPoint.zero(), opts)
    assert sub.reason == "directional derivative does not exist at n=6"
    kkt = kkt_certify(half_abs(), [], [], SetDescriptor.whole_space(), x_star, [], [], opts)
    assert kkt.reason == "directional derivative missing at n=6"


def zero_scaled_kink():
    # 0 * sum 0.5^n |x_n| + sum 0.5^n x_n^2: the zero factor flattens the kink
    return Sum((Scale(0.0, half_abs()), geometric_quadratic()))


def test_zero_scale_hides_the_inner_kink_from_every_certifier():
    f, zero = zero_scaled_kink(), Point.zero()
    best = certify_min(f, SetDescriptor.whole_space(), zero, OPTS)
    sub = subgradient_test(f, zero, DualPoint.zero(), OPTS)
    kkt = kkt_certify(f, [], [], SetDescriptor.whole_space(), zero, [], [], OPTS)
    for cert in (best, sub, kkt):
        assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())


# (weight, c) pairs of a sqrt leaf with one form zero from n = 1 on
VANISHING_SQRT_FORMS = (
    (TailRule.geometric(1.0, 0.0), TailRule.const(2.0)),
    (TailRule.geometric(1.0, 0.5), TailRule.geometric(1.0, 0.0)),
)


@pytest.mark.parametrize("weight, c", VANISHING_SQRT_FORMS)
def test_sqrt_leaf_that_vanishes_from_the_tail_start_has_every_partial(weight, c):
    # geometric(c, 0) is 0 at every n >= 1, so the leaf is flat along every
    # e_n even where the anchor's tail is zero
    f, x_star = SeparableSeries(weight, ScalarConvex.neg_sqrt(c)), Point([1.0, 2.0], ())
    best = certify_min(f, SetDescriptor.whole_space(), x_star, OPTS)
    sub = subgradient_test(f, x_star, DualPoint.zero(), OPTS)
    kkt = kkt_certify(f, [], [], SetDescriptor.whole_space(), x_star, [], [], OPTS)
    for cert in (best, sub, kkt):
        assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())
    # off the positive cone no step is feasible: a refusal, not an exception
    cert, deriv = gateaux_detect(f, SpaceDescriptor.ell1(), x_star, OPTS)
    assert cert.verdict is Verdict.INCONCLUSIVE and deriv is None


def test_validation_direction_without_a_feasible_step_is_inconclusive():
    # sum 0.5^n (-2 sqrt(x_n)) at x* = (0.25^n): every partial exists, but
    # the domain has empty interior in l1
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.neg_sqrt(2.0))
    x_star = Point([], (TailRule.geometric(1.0, 0.25),))
    cert, deriv = gateaux_detect(f, SpaceDescriptor.ell1(), x_star, OPTS)
    assert cert.verdict is Verdict.INCONCLUSIVE and deriv is None
    assert cert.reason == "a validation direction has no feasible step on either side of x*"
    assert set(cert.witness) == {"direction"}


def closed_form_cases():
    for seed in range(300):
        _, f, x_star, _ = fuzz_instance(seed)
        yield f, x_star
    yield zero_scaled_kink(), Point.zero()
    yield half_abs(), Point([1.0] * 5 + [0.0] + [1.0] * 3, ())
    for weight, c in VANISHING_SQRT_FORMS:
        yield SeparableSeries(weight, ScalarConvex.neg_sqrt(c)), Point([1.0, 2.0], ())


def test_closed_form_agrees_with_the_per_index_walk():
    # _basis_profile trusts the closed form's kink index and tail values
    for f, x_star in closed_form_cases():
        partials = basis_partials(f, x_star)
        form = partials.form
        if form.status == "kink":
            # the form speaks for n >= the anchor's tail start only
            exists = [
                partials.at(n).status is DirStatus.EXISTS
                for n in range(x_star.tail_start, form.kink_at + 1)
            ]
            assert exists.index(False) + x_star.tail_start == form.kink_at, (f, x_star)
        elif form.status == "ok":
            for n in range(form.valid_from, form.valid_from + 64):
                dv = partials.at(n)
                assert dv.status is DirStatus.EXISTS, (f, x_star, n)
                assert math.isclose(form.tail.value_at(n), dv.value, rel_tol=1e-9), (f, x_star, n)


def test_the_profile_extension_stops_at_the_first_missing_partial():
    # x*'s prefix runs to n = 80, so the sqrt leaf's closed form starts at
    # 81 and the head is extended past coords = 64: the partial is missing
    # at the zero coordinate n = 70, and the negative one at n = 80, past
    # it, is never read
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.neg_sqrt(1.0))
    prefix = [1.0] * 80
    prefix[69], prefix[79] = 0.0, -1.0
    x_star = Point(prefix, (TailRule.const(1.0),))
    prof = _basis_profile([(1.0, f)], x_star, 64)
    assert (prof.missing, prof.part, prof.valid_from) == (70, 0, 81)
    assert (prof.kink.left, prof.kink.right) == (None, -math.inf)
    assert len(prof.head) == 69 and None not in prof.head
    with pytest.raises(DomainViolation, match="at index 80"):
        basis_partials(f, x_star).at(80)


def test_gateaux_detect_certifies_with_fewer_coords_than_the_evidence_head():
    # with no closed form, coefficients_head reads only the coords known
    # coefficients; seeds 25, 43, 83, ... have no closed form
    opts = CertifyOptions(coords=4)
    for seed in range(300):
        space, f, x_star, _ = fuzz_instance(seed)
        cert, deriv = gateaux_detect(f, space, x_star, opts)
        if deriv is not None and deriv.tail is None:
            assert len(cert.evidence["coefficients_head"]) == 4, seed


def test_kkt_ignores_the_kinks_of_a_zero_multiplier_part():
    # the Lagrangian at lambda = 0 is f, so the kink of g at every n is no obstacle
    f = quad_series()
    g = Sum((Constant(-1.0), SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())))
    kkt = kkt_certify(f, [g], [], SetDescriptor.whole_space(), Point.zero(), [0.0], [], OPTS)
    best = certify_min(f, SetDescriptor.whole_space(), Point.zero(), OPTS)
    assert (kkt.verdict, kkt.grade.render()) == (Verdict.HOLDS, "analytic_all_n")
    assert (best.verdict, best.grade.render()) == (Verdict.HOLDS, "analytic_all_n")


def secant_bracket(f, x, h, t):
    """Certified bounds on the secant slopes (f(x) - f(x - t h)) / t from
    below and (f(x + t h) - f(x)) / t from above, with evaluate's error
    bounds; by convexity they bracket the one-sided derivatives along h."""
    fx = evaluate(f, x)
    fp, fm = evaluate(f, point_axpy(x, t, h)), evaluate(f, point_axpy(x, -t, h))
    low = (fx.value - fx.error_bound - (fm.value + fm.error_bound)) / t
    high = (fp.value + fp.error_bound - (fx.value - fx.error_bound)) / t
    return low, high


def test_a_slowly_decaying_majorant_ends_in_no_majorant():
    # seed 10 along a harmonic-tailed direction: the reference scan's
    # quotient steps need a majorant-bounded head sum of millions of terms,
    # which would run for minutes; the head budget ends the scan at once
    _, f, x_star, _ = fuzz_instance(10)
    h = random_direction(random.Random(3), summable=False)
    assert [t.npow for t in h.tail.terms] == [1]
    start = time.perf_counter()
    with pytest.raises(NoMajorant, match="decays too slowly"):
        quotient_scan(f, x_star, h)
    assert time.perf_counter() - start < 5.0
    # the closed form needs no majorant region: the sum of the terms'
    # one-sided derivatives, inside the certified secant slopes
    res = dir_deriv(f, x_star, h)
    assert res.method == "analytic" and res.exists
    low, high = secant_bracket(f, x_star, h, 1e-4)
    assert low <= res.left <= res.right <= high


def test_closed_form_directions_lie_inside_their_secant_slopes():
    # one direction with a non-summable tail per fuzz instance; where the
    # closed form answers, both secant evaluations bound it
    checked = set()
    for seed in range(300):
        _, f, x_star, _ = fuzz_instance(seed)
        h = random_direction(random.Random(10_000 + 7 * seed + 2), summable=False)
        try:
            res = dir_deriv(f, x_star, h)
        except (DomainViolation, NoMajorant):
            continue
        assert res.method == "analytic"
        for t in (1e-2, 1e-4):
            try:
                low, high = secant_bracket(f, x_star, h, t)
            except (DomainViolation, NoMajorant):
                continue
            assert low <= res.left <= res.right <= high, (seed, t)
            checked.add(seed)
    assert len(checked) > 200


# evidence-only numeric passes ------------------------------------------------------


def test_psc_truncations_are_evidence_only():
    # seed 1: f(z_k) - f(x) is 4.9e-3 at k = 16 and tends to 0 as k grows, so
    # the limsup is f(x) and the excess at finite depths is no counterexample
    _, f, x, _ = fuzz_instance(1)
    cert = check_psc(f, x)
    assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())
    evidence = check_psc_numeric(f, SetDescriptor.whole_space(), x, default_psc_probes(x, OPTS), 32)
    assert evidence["probes_checked"] == 13
    assert evidence["max_truncation_excess"] > OPTS.tol


def test_psc_truncations_outside_the_domain_are_skipped():
    # seed 107: every truncation of every probe makes a series diverge
    _, f, x, _ = fuzz_instance(107)
    cert = check_psc(f, x)
    assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())
    evidence = check_psc_numeric(f, SetDescriptor.whole_space(), x, default_psc_probes(x, OPTS), 32)
    assert evidence["max_truncation_excess"] is None


def test_closed_form_decides_without_the_numeric_passes():
    f, x = example3_objective(), example3_anchor()
    cert = certify_min(f, SetDescriptor.whole_space(), x, OPTS)
    assert (cert.verdict, cert.grade) == (Verdict.HOLDS, Grade.analytic())
    assert set(cert.evidence["stationarity"]["derivatives"][0]) == {"n", "analytic"}
    assert "probes_checked" not in cert.evidence["psc"]["evidence"]


def test_anchor_without_a_finite_value_is_rejected():
    # seed 17: f(x*) = inf, and the closed form alone would decide stationarity
    _, f, x, _ = fuzz_instance(17)
    with pytest.raises(DomainViolation, match="f\\(x\\*\\) is not finite"):
        certify_min(f, SetDescriptor.whole_space(), x, OPTS)


def test_closed_form_head_decides_without_a_tail_form():
    # a neg_sqrt leaf at a tail with two terms has no closed-form profile:
    # the per-index head decides, and no quotient scan adds columns
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.neg_sqrt(1.0))
    x = Point([], (TailRule.geometric(1.0, 0.25), TailRule.geometric(1.0, 0.5)))
    cert = certify_min(f, SetDescriptor.whole_space(), x, OPTS)
    assert (cert.verdict, cert.grade) == (Verdict.FAILS, Grade.numeric(OPTS.coords))
    assert cert.evidence["stationarity"]["symbolic"] == "numeric"
    for row in cert.evidence["stationarity"]["derivatives"]:
        assert set(row) == {"n", "analytic"}


def test_stationarity_without_a_tail_form_is_decided_by_the_head():
    # 0.5^n |x_n| at x_n = 0.5^n + 0.5 (-0.5)^n > 0: the alternating term
    # leaves no certified eventual sign, so there is no tail form, and
    # f'(x*; e_1) = 0.5 is the first nonzero residual
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())
    x = Point([], (TailRule.geometric(1.0, 0.5), TailRule.geometric(0.5, -0.5)))
    prof, where, n, r, grade = _basis_residual([(1.0, f)], x, Point.zero(), OPTS)
    assert (prof.rule, prof.tail) == ("numeric", None)
    assert (where, n, r, grade) == ("head", 1, 0.5, Grade.numeric(OPTS.coords))


def test_options_outside_the_scenario_bounds_are_rejected():
    # with tol = NaN every "margin > tol" test was False, and certify_min
    # certified (1, 0, ...) as the minimizer of sum 0.5^n x_n^2
    x_star = Point([1.0])
    cert = certify_min(quad_series(), SetDescriptor.whole_space(), x_star, OPTS)
    assert cert.verdict is Verdict.FAILS
    for bad in (
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": -1e-7},
        {"coords": 0}, {"psc_depth": 0}, {"seed": -1},
    ):
        (name, _), = bad.items()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            CertifyOptions(**bad)
    CertifyOptions(coords=1, psc_depth=1, seed=0, tol=5e-324)


def test_certify_min_evaluates_the_anchor_once(monkeypatch):
    # the anchor probe of the sweep is x* itself, whose value f(x*) the
    # sweep already holds; its log entry reads that value.  x* is the
    # minimizer, where stationarity refutes nothing, so the sweep runs
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
    x = Point([0.0])
    at = []

    def counted(g, z, *args):
        at.append(z)
        return evaluate(g, z, *args)

    monkeypatch.setattr("seqcert.certify.evaluate", counted)
    cert = certify_min(f, SetDescriptor.whole_space(), x, OPTS)
    assert cert.verdict is Verdict.HOLDS
    assert sum(z is x for z in at) == 1
    anchor = cert.evidence["probe_log"][1]
    assert anchor["f"] == cert.evidence["f_at_anchor"] == evaluate(f, x).value


def test_default_probes_draw_their_random_points_once_per_seed():
    x = Point([1.0], (TailRule.geometric(1.0, 0.5),))
    first, second = default_psc_probes(x, OPTS), default_psc_probes(x, OPTS)
    # a fresh list each call, whose random points are the seed's draws
    assert first is not second and first == second and first[1] is x
    assert all(p is q for p, q in zip(first[3:], second[3:]))
    rng = random.Random(OPTS.seed)
    assert first[3:] == [random_point(rng) for _ in range(10)]
    first.clear()
    assert len(default_psc_probes(x, OPTS)) == 13


def test_a_tail_too_slow_to_certify_is_no_certified_value_not_an_arithmetic_error():
    # x_n = (1 - 1e-13)**n lies in ell1, but its certified tail sum needs a
    # cut-off past 2**40 terms: every public road says "no certified value"
    slow = Point((), TailRule.geometric(1.0, 1 - 1e-13))
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    with pytest.raises(NoMajorant):
        evaluate(f, slow)
    with pytest.raises(NonConvergentPairing):
        evaluate(LinearFunctional(DualPoint((), TailRule.const(1.0))), slow)
    # sum x_n**2 is continuous on ell1, so its partials make the derivative
    cert, _ = gateaux_detect(f, SpaceDescriptor.ell1(), slow, OPTS)
    assert cert.verdict is Verdict.HOLDS
    # certify_min evaluates f(x*) before any guard (a known gap of its own)
    with pytest.raises(NoMajorant):
        certify_min(f, SetDescriptor.whole_space(), slow, OPTS)
    harmonic = SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.linear(1.0))
    with pytest.raises(NoMajorant):
        dir_deriv(harmonic, Point((), TailRule.geometric(1.0, 0.5)), slow)
