"""Monotone difference quotients and the closed-form fast path."""

import math

import pytest

from seqcert.derivative import DerivOptions, dir_deriv, dir_deriv_profile
from seqcert.funcs import (
    LimsupSeminorm,
    LinearFunctional,
    ScalarConvex,
    SeparableSeries,
    Sum,
)
from seqcert.seqspace import DualPoint, Point, TailRule, basis_vector

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
