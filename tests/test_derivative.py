"""Closed-form directional derivatives, checked against the reference
monotone quotient scan (quotient_scan.py)."""

import math
import random
from fractions import Fraction

import pytest

from seqcert import certify, funcs
from seqcert.certify import CertifyOptions, gateaux_detect
from seqcert.derivative import dir_deriv, dir_deriv_profile
from seqcert.errors import DomainLimited, NoMajorant, SeqcertError
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
from seqcert.sampling import (
    random_direction,
    random_dual,
    random_point,
    random_separable,
    random_weight,
)
from seqcert.seqspace import DualPoint, Point, TailRule, basis_vector
from quotient_scan import quotient_scan
from test_certify import fuzz_instance

BETA = 0.5


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
    b = quotient_scan(quad_series(), x, basis_vector(2))
    assert b.method == "numeric"
    assert b.exists
    assert b.value == pytest.approx(a.value, abs=1e-7)


def test_bounds_bracket_the_derivative_for_convex_functions():
    x = Point([0.7], (TailRule.geometric(1.0, 0.5),))
    res = quotient_scan(quad_series(), x, basis_vector(1))
    # for convex f: left quotient <= f'(x;h) <= right quotient at every t
    assert res.left <= res.value + res.noise_floor
    assert res.value <= res.right + res.noise_floor
    assert res.left <= res.right + res.noise_floor


def test_right_quotients_nonincreasing_left_nondecreasing():
    x = Point([0.3], ())
    res = quotient_scan(quad_series(), x, basis_vector(1))
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
        res = quotient_scan(f, x, basis_vector(n))
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
    res = quotient_scan(quad_series(), Point([0.5], ()), basis_vector(1))
    assert 0 < res.noise_floor < 1e-10


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
        assert (res.method, res.exists, res.quotients_log) == ("analytic", True, ())
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
    # No direction falls back to a scan any more.  A sqrt piece along a
    # direction with a tail is answered in closed form, inside the reference
    # scan's bracket; along all-ones the harmonic weight's square line has
    # no summable majorant, so the walk has no closed form and dir_deriv
    # raises NoMajorant.
    sqrt_piece = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.neg_sqrt(2.0))
    x = Point([1.0], (TailRule.geometric(1.0, 0.5),))
    h = Point([0.5], (TailRule.geometric(1.0, 0.25),))
    assert basis_partials(sqrt_piece, x).direction(h) is not None
    res, scan = dir_deriv(sqrt_piece, x, h), quotient_scan(sqrt_piece, x, h)
    assert res.method == "analytic" and res.exists and scan.exists
    slack = scan.noise_floor + 1e-11
    assert scan.left - slack <= res.left <= res.right <= scan.right + slack
    f = SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.square())
    ones = Point([], (TailRule.const(1.0),))
    assert basis_partials(f, Point.zero()).direction(ones) is None
    with pytest.raises(NoMajorant):
        dir_deriv(f, Point.zero(), ones)


def edge_directions():
    """Inputs on which the closed forms once declined, by name."""
    abs_leaf = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())
    sqrt_leaf = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.neg_sqrt(2.0))
    geometric_x = Point([0.0, 1.0], (TailRule.geometric(1.0, 0.5),))
    return {
        # sign(x_n) = (-1)^n from n = 2 on
        "alternating anchor tail": (
            abs_leaf, Point([1.0], (TailRule.geometric(1.0, -0.4),)),
            Point([0.5], (TailRule.geometric(1.0, 0.5),)),
        ),
        # a kink at every tail index, with |h_n| = -(-1)^n h_n
        "zero anchor tail, alternating direction": (
            abs_leaf, Point([1.0]), Point([], (TailRule.geometric(-1.0, -0.5),)),
        ),
        # x_1 = 0: up, the left side leaves the domain and the right slope is
        # -inf; down is the mirror image, +inf on the left
        "sqrt, finite direction up from a zero coordinate": (sqrt_leaf, geometric_x, Point([1.0, -0.5])),
        "sqrt, finite direction down from a zero coordinate": (sqrt_leaf, geometric_x, Point([-1.0, 0.5])),
        "sqrt, finite direction off the zero coordinate": (sqrt_leaf, geometric_x, Point([0.0, 1.0])),
        "sqrt, no feasible side": (sqrt_leaf, Point([0.0, 0.0]), Point([1.0, -1.0])),
        # the slopes w_n c_n / (2 sqrt x_n) h_n grow like (0.5 * 0.8 / 0.1^0.5)^n
        "sqrt, divergent derivative tail": (
            sqrt_leaf, Point([], (TailRule.geometric(1.0, 0.1),)),
            Point([], (TailRule.geometric(1.0, 0.8),)),
        ),
        # the sqrt part has no feasible side, and the linear part's line
        # majorant sum 1/n diverges; the sqrt part comes first, so the scan
        # meets its domain error before the linear part's missing majorant
        "sum with an infeasible sqrt part": (
            Sum((sqrt_leaf, SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0)))),
            Point([0.0, 0.0], (TailRule.geometric(1.0, 0.5),)),
            Point([1.0, -1.0], (TailRule.harmonic(1.0),)),
        ),
    }


def sqrt_corpus(count):
    """Seeded sqrt-leaf cases: a sqrt leaf, alone or summed with a second
    leaf or a linear functional, at a positive anchor with one head
    coordinate sometimes 0, along a direction with a summable tail or a
    finitely supported one.  Directions with a non-summable tail are left
    out: along a constant tail over a harmonic anchor the reference scan's
    domain checks take minutes."""
    rng = random.Random(2028)
    for _ in range(count):
        leaf = SeparableSeries(random_weight(rng), ScalarConvex.neg_sqrt(rng.uniform(0.5, 2.0)))
        roll = rng.random()
        if roll < 0.3:
            leaf = Sum((leaf, random_separable(rng)))
        elif roll < 0.45:
            other = SeparableSeries(random_weight(rng), ScalarConvex.neg_sqrt(rng.uniform(0.5, 2.0)))
            leaf = Sum((leaf, other))
        elif roll < 0.55:
            leaf = Sum((leaf, LinearFunctional(random_dual(rng))))
        x = random_point(rng, positive=True)
        if x.prefix and rng.random() < 0.4:
            prefix = list(x.prefix)
            prefix[rng.randrange(len(prefix))] = 0.0
            x = Point(prefix, x.tail)
        if rng.random() < 0.6:
            h = random_direction(rng, summable=True)
        else:
            h = Point([rng.choice([0.0, rng.uniform(-2.0, 2.0)]) for _ in range(rng.randint(1, 7))])
        yield leaf, x, h


def test_closed_form_directions_agree_with_the_quotient_scan(monkeypatch):
    # On fuzz seeds 0-299, along one seeded direction per seed and along
    # every direction gateaux_detect validates with, on the edge directions
    # and on a seeded sqrt corpus, both roads raise the same exception or
    # the closed form answers inside the reference scan's monotone bounds:
    # for convex f every right quotient bounds f'(x; h) from above and every
    # left quotient f'(x; -h) from below.  The scan's extrapolated value is
    # no bound: on seeds 23 and 129 it leaves the bracket by up to 1.9 noise
    # floors while the answer stays inside.  The answer's tail sums are
    # certified to 1e-12 per leaf.
    gateaux_draws = []

    def recorded(f, x, h):
        gateaux_draws.append((f, x, h))
        return dir_deriv(f, x, h)

    monkeypatch.setattr(certify, "dir_deriv", recorded)
    cases = []
    for seed in range(300):
        space, f, x, _ = fuzz_instance(seed)
        cases.append((f, x, random_direction(random.Random(10_000 + seed), summable=True)))
        gateaux_detect(f, space, x, CertifyOptions())
    cases += gateaux_draws
    edges = edge_directions()
    sqrt_cases = list(sqrt_corpus(320))
    scanned = agreed = limited = 0
    for f, x, h in cases + list(edges.values()) + sqrt_cases:
        try:
            scan = quotient_scan(f, x, h)
        except SeqcertError as exc:
            with pytest.raises(type(exc)):
                dir_deriv(f, x, h)
            limited += isinstance(exc, DomainLimited)
            continue
        res = dir_deriv(f, x, h)
        assert res.method == "analytic"
        slack = scan.noise_floor + 1e-11
        assert res.right <= scan.right + slack and res.left >= scan.left - slack, (f, x, h)
        if scan.exists:
            assert res.exists, (f, x, h)
            agreed += 1
        scanned += 1
    assert len(gateaux_draws) > 700 and scanned > 1000 and agreed > 700 and limited > 20

    # what the edge directions come to
    def answer(name):
        return dir_deriv(*edges[name])

    assert abs(answer("alternating anchor tail").value - 0.3) <= 1e-14
    kink = answer("zero anchor tail, alternating direction")
    # h_1 = 0.5 at x_1 = 1 gives 0.25, and the tail -+ sum_{n>=2} 0.25^n = 1/12
    assert abs(kink.left - 1 / 6) <= 1e-14 and abs(kink.right - 1 / 3) <= 1e-14
    up = answer("sqrt, finite direction up from a zero coordinate")
    down = answer("sqrt, finite direction down from a zero coordinate")
    assert (up.left, up.right, down.left, down.right) == (-math.inf,) * 2 + (math.inf,) * 2
    assert answer("sqrt, finite direction off the zero coordinate").exists
    assert answer("sqrt, divergent derivative tail").right == -math.inf
    for name in ("sqrt, no feasible side", "sum with an infeasible sqrt part"):
        with pytest.raises(DomainLimited):
            answer(name)
    summed, _, h = edges["sum with an infeasible sqrt part"]
    assert basis_partials(summed.terms[1], Point.zero()).direction(h) is None


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
