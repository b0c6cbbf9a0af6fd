"""Finite-dimensional reduction and the coordinate-descent oracle.

The oracle is the independent check for the certifiers, so these tests pin
it against problems with hand-computable minima before anything trusts it.
"""

import math
from fractions import Fraction

import pytest

from seqcert import reduce
from seqcert.certify import SetDescriptor
from seqcert.errors import DomainViolation, InfeasiblePoint, MaxSweeps, Unbounded
from seqcert.funcs import (
    LimsupSeminorm,
    LinearFunctional,
    ScalarConvex,
    SeparableSeries,
    Sum,
    basis_partials,
    evaluate,
)
from seqcert.reduce import build_reduced, grad_reduced, minimize_reduced
from seqcert.seqspace import DualPoint, Point, TailRule

BETA = 0.5


def quad_with_harmonic_drift():
    # term n: beta^n (t^2 - t/n), minimized at t = 1/(2n)
    return SeparableSeries(
        TailRule.geometric(1.0, BETA),
        ScalarConvex.affine_quad(1.0, TailRule.harmonic(-1.0)),
    )


def harmonic_half_anchor():
    return Point([], (TailRule.harmonic(0.5),))


def test_embed_keeps_anchor_past_k():
    anchor = harmonic_half_anchor()
    prob = build_reduced(quad_with_harmonic_drift(), SetDescriptor.whole_space(), anchor, 3)
    x = prob.embed([9.0, 8.0, 7.0])
    assert x.coordinate(1) == 9.0
    assert x.coordinate(3) == 7.0
    for n in (4, 5, 11):
        assert x.coordinate(n) == anchor.coordinate(n)


def test_start_is_anchor_truncation():
    anchor = harmonic_half_anchor()
    prob = build_reduced(quad_with_harmonic_drift(), SetDescriptor.whole_space(), anchor, 2)
    assert prob.start() == [0.5, 0.25]


def test_build_rejects_bad_rank_and_infeasible_anchor():
    f = quad_with_harmonic_drift()
    with pytest.raises(ValueError):
        build_reduced(f, SetDescriptor.whole_space(), harmonic_half_anchor(), 0)
    with pytest.raises(InfeasiblePoint):
        build_reduced(f, SetDescriptor.positive_cone_ell1(), Point([-1.0], ()), 2)


def test_minimize_finds_known_quadratic_minimum_from_perturbed_start():
    # same tail as the true minimizer but wrong first two coordinates;
    # descent has real work to do
    anchor = Point([0.9, -0.4], (TailRule.harmonic(0.5),))
    prob = build_reduced(quad_with_harmonic_drift(), SetDescriptor.whole_space(), anchor, 2)
    y, value, sweeps = minimize_reduced(prob)
    assert y[0] == pytest.approx(0.5, abs=1e-6)
    assert y[1] == pytest.approx(0.25, abs=1e-6)
    true_min = evaluate(quad_with_harmonic_drift(), harmonic_half_anchor())
    assert value.value == pytest.approx(true_min.value, abs=1e-9)
    assert sweeps >= 1


def test_minimize_dimensions_one_through_eight():
    f = quad_with_harmonic_drift()
    anchor = harmonic_half_anchor()
    ref = evaluate(f, anchor)
    for k in (1, 2, 4, 8):
        prob = build_reduced(f, SetDescriptor.whole_space(), anchor, k)
        y, value, _ = minimize_reduced(prob)
        for i, yi in enumerate(y, start=1):
            assert yi == pytest.approx(0.5 / i, abs=1e-6)
        assert value.value == pytest.approx(ref.value, abs=1e-6)


def test_values_nonincreasing_in_k():
    # minimizing over nested larger truncation sets can only improve
    f = quad_with_harmonic_drift()
    anchor = Point([0.7], (TailRule.harmonic(0.5),))  # first coordinate off-optimal
    prev = math.inf
    for k in (1, 2, 4, 8):
        prob = build_reduced(f, SetDescriptor.whole_space(), anchor, k)
        _, value, _ = minimize_reduced(prob)
        assert value.value <= prev + 1e-10
        prev = value.value


def test_cone_constraint_clips_at_zero():
    # strictly increasing linear objective on the positive cone: the
    # reduced minimum sits on the boundary y = 0
    f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.linear(1.0))
    anchor = Point([], (TailRule.geometric(1.0, BETA * BETA),))
    prob = build_reduced(f, SetDescriptor.positive_cone_ell1(), anchor, 3)
    y, value, _ = minimize_reduced(prob)
    for yi in y:
        assert yi == pytest.approx(0.0, abs=1e-6)
    zeroed = prob.embed([0.0, 0.0, 0.0])
    assert value.value == pytest.approx(evaluate(f, zeroed).value, abs=1e-9)


def test_unbounded_linear_descent():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(-1.0))
    prob = build_reduced(f, SetDescriptor.whole_space(), Point.zero(), 1)
    with pytest.raises(Unbounded):
        minimize_reduced(prob)


@pytest.mark.parametrize("slope", [-1.0, -1e300, -1e303, 1e303])
def test_a_line_that_overflows_to_minus_infinity_is_unbounded(slope):
    # Far out, t * slope overflows to -inf on one side: that is a descent,
    # not a step outside the domain (which only +inf marks).
    f = LinearFunctional(DualPoint([slope]))
    prob = build_reduced(f, SetDescriptor.whole_space(), Point([0.0]), 1)
    with pytest.raises(Unbounded):
        minimize_reduced(prob)


def test_max_sweeps_budget(monkeypatch):
    monkeypatch.setattr(reduce, "_MAX_SWEEPS", 1)
    anchor = Point([0.9], (TailRule.harmonic(0.5),))
    prob = build_reduced(quad_with_harmonic_drift(), SetDescriptor.whole_space(), anchor, 1)
    with pytest.raises(MaxSweeps):
        minimize_reduced(prob)


def test_infinite_start_raises():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    anchor = Point([], (TailRule.const(1.0),))  # sum of ones squared diverges
    prob = build_reduced(f, SetDescriptor.whole_space(), anchor, 2)
    with pytest.raises(DomainViolation):
        minimize_reduced(prob)


def test_grad_reduced_matches_closed_form():
    f = quad_with_harmonic_drift()
    anchor = harmonic_half_anchor()
    prob = build_reduced(f, SetDescriptor.whole_space(), anchor, 3)
    g = grad_reduced(prob, [1.0, 1.0, 1.0])
    for i, gi in enumerate(g, start=1):
        want = BETA**i * (2.0 - 1.0 / i)
        assert gi == pytest.approx(want, rel=1e-9)


def test_grad_reduced_at_stationary_point_is_zero():
    f = quad_with_harmonic_drift()
    anchor = harmonic_half_anchor()
    prob = build_reduced(f, SetDescriptor.whole_space(), anchor, 4)
    g = grad_reduced(prob, prob.start())
    for gi in g:
        assert abs(gi) < 1e-12


def test_limsup_part_is_inert_in_reduction():
    # the limsup of the embedded point never moves with y, so the oracle
    # sees only the series part
    f = Sum((LimsupSeminorm(), quad_with_harmonic_drift()))
    anchor = Point([0.9], (TailRule.harmonic(0.5),))
    prob = build_reduced(f, SetDescriptor.whole_space(), anchor, 1)
    y, _, _ = minimize_reduced(prob)
    assert y[0] == pytest.approx(0.5, abs=1e-6)


# The line search alone.  Lines that return Fractions are exact, so a
# comparison of two probes never ties by rounding and the bracket keeps the
# argmin of a convex line until the search stops.
def counted(line):
    calls = []

    def probe(t):
        calls.append(t)
        return line(t)

    return probe, calls


def test_line_search_makes_one_new_probe_per_shrink():
    # Two fresh probes per shrink (a ternary search) take about 208 calls here.
    c = Fraction(0.3)
    line, calls = counted(lambda t: (Fraction(t) - c) ** 2 - c * c)
    t, _ = reduce._line_minimize(line, -1e6, 1e6)
    assert abs(t - 0.3) <= reduce._LINE_TOL * 1.3
    assert len(calls) <= 100


@pytest.mark.parametrize("c", [-3.7e4, -250.0, -1.0, -1e-3, 1e-7, 0.3, 2.5, 777.0, 9.9e5])
@pytest.mark.parametrize("bracket", ["wide", "one_sided", "tight"])
def test_line_search_stops_within_its_width_of_the_argmin(c, bracket):
    lo, hi = {
        "wide": (-1e6, 1e6),
        "one_sided": (-1e6, 0.0) if c < 0.0 else (0.0, 1e6),
        "tight": (min(c, 0.0) - 1.0, max(c, 0.0) + 1.0),
    }[bracket]
    exact = Fraction(c)
    t, v = reduce._line_minimize(lambda t: (Fraction(t) - exact) ** 2 - exact * exact, lo, hi)
    # the final bracket holds c and is at most its stopping width wide
    assert abs(t - c) <= reduce._LINE_TOL * (1.0 + abs(c))
    assert v == (Fraction(t) - exact) ** 2 - exact * exact


def test_line_search_stops_inside_a_sqrt_domain_edge():
    # Along e_1 at x_1 = 1, f = sum x_n - 2 sum beta^n sqrt(x_n) moves by
    # t - (sqrt(1 + t) - 1), which is finite for t >= -1 only and least at
    # 1 + t = 1/4, inside the bracket.
    f = Sum((
        SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0)),
        SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.neg_sqrt(2.0)),
    ))
    x = Point([1.0], (TailRule.geometric(1.0, BETA * BETA),))
    line = basis_partials(f, x).line(((1, 1.0),))
    probe, calls = counted(line)
    t, v = reduce._line_minimize(probe, -1e6, 1e6)
    assert t == pytest.approx(-0.75, abs=1e-7)
    assert v == pytest.approx(-0.25, abs=1e-15) and v == line(t)
    outside = 0
    for s in calls:
        try:
            line(s)
        except DomainViolation:
            outside += 1
    assert outside > 0  # probes reached past the domain edge at t = -1


def test_line_search_keeps_the_side_of_zero_when_both_probes_are_infeasible():
    c = Fraction(1e-3)
    raised = []

    def line(t):
        if not -1e-3 <= t <= 2e-3:
            raised.append(t)
            raise DomainViolation(f"{t} is outside [-1e-3, 2e-3]")
        return (Fraction(t) - c) ** 2 - c * c

    probe, calls = counted(line)
    t, v = reduce._line_minimize(probe, -1e6, 1e6)
    # the first two probes (at -/+2.4e5) both lie outside the domain, so
    # the first shrink has only the side of 0 to go by
    assert calls[:2] == raised[:2] and calls[0] < 0.0 < calls[1]
    assert abs(t - 1e-3) <= reduce._LINE_TOL * 2.0
    assert v < 0.0
