"""Monotone difference quotients and the closed-form fast path."""

import math
import random
from fractions import Fraction

import pytest

from seqcert import certify, funcs
from seqcert.certify import CertifyOptions, gateaux_detect
from seqcert.derivative import DerivOptions, dir_deriv, dir_deriv_profile
from seqcert.errors import NoMajorant, SeqcertError
from seqcert.funcs import (
    Constant,
    LimsupSeminorm,
    LinearFunctional,
    Scale,
    ScalarConvex,
    SeparableSeries,
    Sum,
    basis_partials,
)
from seqcert.sampling import random_direction
from seqcert.seqspace import DualPoint, Point, TailRule, basis_vector
from test_certify import fuzz_instance

BETA = 0.5

FORCED = DerivOptions(prefer_analytic=False)


def quad_series():
    return SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())


def test_analytic_path_used_for_basis_directions():
    res = dir_deriv(quad_series(), Point([], (TailRule.const(1.0),)), basis_vector(2))
    assert res.method == "analytic"
    assert res.exists
    assert res.value == pytest.approx(2.0 * BETA**2)


def test_numeric_path_agrees_with_analytic():
    x = Point([], (TailRule.const(1.0),))
    a = dir_deriv(quad_series(), x, basis_vector(2))
    b = dir_deriv(quad_series(), x, basis_vector(2), FORCED)
    assert b.method == "numeric"
    assert b.exists
    assert b.value == pytest.approx(a.value, abs=1e-7)


def test_bounds_bracket_the_derivative_for_convex_functions():
    x = Point([0.7], (TailRule.geometric(1.0, 0.5),))
    res = dir_deriv(quad_series(), x, basis_vector(1), FORCED)
    # for convex f: left quotient <= f'(x;h) <= right quotient at every t
    assert res.left <= res.value + res.noise_floor
    assert res.value <= res.right + res.noise_floor
    assert res.left <= res.right + res.noise_floor


def test_right_quotients_nonincreasing_left_nondecreasing():
    x = Point([0.3], ())
    res = dir_deriv(quad_series(), x, basis_vector(1), FORCED)
    # sort by |t| descending; convex quotients shrink toward the limit on
    # the right and grow on the left
    rights = [q for t, q in sorted(res.quotients_log, reverse=True) if t > 0]
    lefts = [q for t, q in sorted(res.quotients_log) if t < 0]
    slack = 10 * res.noise_floor + 1e-12
    for a, b in zip(rights, rights[1:]):
        assert b <= a + slack
    for a, b in zip(lefts, lefts[1:]):
        assert b >= a - slack


def test_kink_detected_along_basis():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_())
    res = dir_deriv(f, Point([1.0], ()), basis_vector(2))
    assert not res.exists
    assert res.left == pytest.approx(-1.0)
    assert res.right == pytest.approx(1.0)


def test_kink_detected_numerically_for_general_direction():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_())
    # direction hitting two coordinates, one of them at a kink
    h = Point([1.0, 1.0], ())
    res = dir_deriv(f, Point([2.0, 0.0], ()), h)
    assert not res.exists
    assert res.right - res.left == pytest.approx(2.0, abs=1e-6)


def test_limsup_along_ones_direction():
    res = dir_deriv(LimsupSeminorm(), Point.zero(), Point([], (TailRule.const(1.0),)))
    assert not res.exists
    assert res.left == pytest.approx(-1.0, abs=1e-7)
    assert res.right == pytest.approx(1.0, abs=1e-7)


def test_linear_functional_along_general_direction():
    p = DualPoint([], (TailRule.geometric(1.0, 0.5),))
    f = LinearFunctional(p)
    h = Point([], (TailRule.const(1.0),))
    res = dir_deriv(f, Point.zero(), h)
    assert res.exists
    # sum 0.5^n = 1
    assert res.value == pytest.approx(1.0, abs=1e-7)


def test_exact_scan_reaches_tiny_quotients():
    # stationary anchor: the numeric quotient must fall below 1e-8, which
    # requires the full ladder (no early stop on the exact-delta path)
    f = Sum(
        (
            LimsupSeminorm(),
            SeparableSeries(
                TailRule.geometric(1.0, BETA),
                ScalarConvex.affine_quad(1.0, TailRule.harmonic(-1.0)),
            ),
        )
    )
    x = Point([], (TailRule.harmonic(0.5),))
    for n in (1, 5, 33, 64):
        res = dir_deriv(f, x, basis_vector(n), FORCED)
        assert res.exists
        assert abs(res.value) < 1e-8
        assert abs(res.right) < 1e-8
        assert abs(res.left) < 1e-8


def test_profile_orders_directions():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(TailRule.harmonic(1.0)))
    profile = dir_deriv_profile(f, Point.zero(), 5)
    for n, res in enumerate(profile, start=1):
        assert res.exists
        assert res.value == pytest.approx(1.0 / n, rel=1e-9)


def test_profile_rejects_bad_count():
    with pytest.raises(ValueError):
        dir_deriv_profile(quad_series(), Point.zero(), 0)


def test_one_sided_domain_boundary():
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.neg_sqrt(2.0))
    res = dir_deriv(f, Point.zero(), basis_vector(1))
    assert not res.exists
    assert res.right == -math.inf or res.left == -math.inf


def test_noise_floor_is_sane_for_exact_path():
    res = dir_deriv(quad_series(), Point([0.5], ()), basis_vector(1), FORCED)
    assert 0 < res.noise_floor < 1e-10


def test_options_outside_the_scenario_bounds_are_rejected():
    for bad in (
        {"t0": math.nan}, {"t0": math.inf}, {"t0": 0.0}, {"t0": -1e-2},
        {"steps": -1}, {"tol_match": math.nan}, {"tol_match": 0.0},
    ):
        (name, _), = bad.items()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            DerivOptions(**bad)
    DerivOptions(t0=None, steps=0, tol_match=5e-324)


# closed-form directions ------------------------------------------------------


def geometric_from(c, r, start):
    """sum over n >= start of c * r^n, exactly."""
    c, r = Fraction(c), Fraction(r)
    return c * r**start / (1 - r)


def test_abs_along_a_direction_follows_the_sign_of_each_coordinate():
    # sum 0.5^n |x_n|: the head reads sign(x_n) h_n index by index, and the
    # tail, from the later of the two tail starts, the sign of x's tail
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())
    h = Point([1.0, 0.5, -1.0], (TailRule.geometric(1.0, 0.25),))
    for sign in (1, -1):
        x = Point([2.0, -1.0], (TailRule.geometric(sign * 1.0, 0.5),))
        exact = (
            Fraction(1, 2) * 1 - Fraction(1, 4) * Fraction(1, 2)
            + Fraction(1, 8) * sign * -1 + sign * geometric_from(1, Fraction(1, 8), 4)
        )
        res = dir_deriv(f, x, h)
        assert (res.method, res.exists, res.noise_floor, res.quotients_log) == (
            "analytic", True, 0.0, ()
        )
        assert res.left == res.right == res.value
        assert abs(res.value - float(exact)) <= 1e-14


def test_abs_at_a_zero_head_coordinate_is_a_kink_along_the_direction():
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())
    x = Point([0.0, 1.0], (TailRule.geometric(1.0, 0.5),))
    h = Point([1.0, 1.0], (TailRule.geometric(1.0, 0.5),))
    rest = Fraction(1, 4) + geometric_from(1, Fraction(1, 4), 3)
    res = dir_deriv(f, x, h)
    assert res.method == "analytic" and not res.exists and res.value is None
    assert abs(res.left - float(rest - Fraction(1, 2))) <= 1e-14
    assert abs(res.right - float(rest + Fraction(1, 2))) <= 1e-14


def test_abs_at_a_zero_tail_has_a_kink_at_every_tail_index():
    # x's tail is zero, so the tail adds -+ sum w_n |h_n| to the two sides
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())
    h = Point([], (TailRule.geometric(-1.0, 0.5),))
    spread = geometric_from(1, Fraction(1, 4), 1)
    left, right = basis_partials(f, Point([], ())).direction(h)
    assert abs(left + float(spread)) <= 1e-14 and abs(right - float(spread)) <= 1e-14


def test_limsup_along_the_ones_direction_has_slopes_minus_one_and_one():
    res = dir_deriv(LimsupSeminorm(), Point.zero(), Point([], (TailRule.const(1.0),)))
    assert (res.method, res.exists, res.left, res.right) == ("analytic", False, -1.0, 1.0)
    # away from a zero limit the limsup is differentiable along h
    x = Point([], (TailRule.const(-2.0),))
    h = Point([5.0], (TailRule.const(0.5), TailRule.harmonic(1.0)))
    assert basis_partials(LimsupSeminorm(), x).direction(h) == (-0.5, -0.5)


def test_linear_functional_pairs_with_the_direction():
    p = DualPoint([1.0, -2.0], (TailRule.geometric(1.0, 0.5),))
    h = Point([0.5], (TailRule.geometric(1.0, 0.25),))
    exact = Fraction(1, 2) - 2 * Fraction(1, 16) + geometric_from(1, Fraction(1, 8), 3)
    res = dir_deriv(LinearFunctional(p), Point([3.0], ()), h)
    assert res.method == "analytic" and res.exists
    assert abs(res.value - float(exact)) <= 1e-14


def test_scales_and_sums_combine_their_parts_answers():
    square = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square())
    p = DualPoint([], (TailRule.geometric(1.0, 0.5),))
    sqrt_piece = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.neg_sqrt(2.0))
    f = Sum((
        Scale(2.0, square),
        Scale(0.5, LinearFunctional(p)),
        Constant(3.0),
        Scale(0.0, sqrt_piece),  # flat, whatever its inner piece is
    ))
    x = Point([1.0], (TailRule.geometric(1.0, 0.5),))
    h = Point([-1.0], (TailRule.geometric(1.0, 0.5),))
    # 2 * sum 0.5^n 2 x_n h_n + 0.5 * sum 0.5^n h_n
    exact = (
        2 * (Fraction(1, 2) * 2 * 1 * -1 + 2 * geometric_from(1, Fraction(1, 8), 2))
        + Fraction(1, 2) * (Fraction(1, 2) * -1 + geometric_from(1, Fraction(1, 4), 2))
    )
    res = dir_deriv(f, x, h)
    assert res.method == "analytic" and res.exists
    assert abs(res.value - float(exact)) <= 1e-14


def test_directions_without_a_closed_form_fall_back_to_the_scan():
    # a sqrt piece has no direction answer; along all-ones the harmonic
    # weight's square line has no summable majorant, and the scan still
    # raises NoMajorant
    sqrt_piece = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.neg_sqrt(2.0))
    x = Point([1.0], (TailRule.geometric(1.0, 0.5),))
    h = Point([0.5], (TailRule.geometric(1.0, 0.25),))
    assert basis_partials(sqrt_piece, x).direction(h) is None
    assert dir_deriv(sqrt_piece, x, h).method == "numeric"
    f = SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.square())
    ones = Point([], (TailRule.const(1.0),))
    assert basis_partials(f, Point.zero()).direction(ones) is None
    with pytest.raises(NoMajorant):
        dir_deriv(f, Point.zero(), ones)


def test_closed_form_directions_agree_with_the_quotient_scan(monkeypatch):
    # On fuzz seeds 0-299, along one seeded direction per seed and along
    # every direction gateaux_detect validates with, the answer must lie in
    # the scan's monotone bounds: for convex f every right quotient bounds
    # f'(x; h) from above and every left quotient f'(x; -h) from below.
    # The scan's extrapolated value is no bound: on seeds 23 and 129 it
    # leaves the bracket by up to 1.9 noise floors while the answer stays
    # inside.  The answer's tail sums are certified to 1e-12 per leaf.
    gateaux_draws = []

    def recorded(f, x, h, opts):
        gateaux_draws.append((f, x, h))
        return dir_deriv(f, x, h, opts)

    monkeypatch.setattr(certify, "dir_deriv", recorded)
    cases = []
    for seed in range(300):
        space, f, x, _ = fuzz_instance(seed)
        cases.append((f, x, random_direction(random.Random(10_000 + seed), summable=True)))
        gateaux_detect(f, space, x, CertifyOptions())
    cases += gateaux_draws
    scanned = agreed = 0
    for f, x, h in cases:
        try:
            scan = dir_deriv(f, x, h, FORCED)
        except SeqcertError as exc:
            with pytest.raises(type(exc)):
                dir_deriv(f, x, h)
            continue
        res = dir_deriv(f, x, h)
        assert res.method == ("analytic" if basis_partials(f, x).direction(h) else "numeric")
        if res.method == "numeric":
            continue
        slack = scan.noise_floor + 1e-11
        assert res.right <= scan.right + slack and res.left >= scan.left - slack, (f, x, h)
        if scan.exists:
            assert res.exists, (f, x, h)
            agreed += 1
        scanned += 1
    assert len(gateaux_draws) > 700 and scanned > 700 and agreed > 500


def test_a_closed_form_direction_forms_one_majorant_per_leaf_and_no_term_lines(monkeypatch):
    counts = {"majorant": 0, "line": 0}
    line_majorant, term_line = funcs._line_majorant, ScalarConvex.line

    def majorant(*args):
        counts["majorant"] += 1
        return line_majorant(*args)

    def line(*args):
        counts["line"] += 1
        return term_line(*args)

    monkeypatch.setattr(funcs, "_line_majorant", majorant)
    monkeypatch.setattr(ScalarConvex, "line", line)
    p = DualPoint([1.0], (TailRule.geometric(1.0, 0.5),))
    f = Sum((
        SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square()),
        Scale(2.0, SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.abs_())),
        LinearFunctional(p),
    ))
    x = Point([1.0], (TailRule.geometric(1.0, 0.5),))
    h = Point([-1.0], (TailRule.geometric(1.0, 0.25),))
    res = dir_deriv(f, x, h)
    assert res.method == "analytic" and res.exists
    # one majorant per separable leaf, which the closed form classifies;
    # no term of either series is evaluated along the line
    assert counts == {"majorant": 2, "line": 0}
