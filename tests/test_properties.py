"""Randomized invariants.  Hypothesis drives integer seeds; the library's
own samplers expand them into points and functions, so every failing case
shrinks to a seed that reproduces outside the test."""

import math

from hypothesis import given, settings, strategies as st

from seqcert.certify import (
    CertifyOptions,
    SetDescriptor,
    Verdict,
    check_psc,
    gateaux_detect,
    subgradient_test,
)
from seqcert.funcs import (
    DirStatus,
    ScalarConvex,
    SeparableSeries,
    Sum,
    analytic_dir_deriv,
    evaluate,
)
from seqcert.reduce import build_reduced, minimize_reduced
from seqcert.sampling import (
    random_direction,
    random_function,
    random_point,
    random_separable,
    rng_from_seed,
)
from seqcert.seqspace import (
    DualPoint,
    Point,
    SpaceDescriptor,
    TailRule,
    basis_vector,
    dual_basis_vector,
    pair,
    point_axpy,
    point_scale,
    point_sub,
    points_equal,
    project,
)

from quotient_scan import quotient_scan

FAST = settings(max_examples=60, deadline=None, derandomize=True)
SLOW = settings(max_examples=25, deadline=None, derandomize=True)



def finite_value(f, x):
    """f(x) when it is a finite number, else None (improper values raise)."""
    from seqcert.errors import DomainViolation

    try:
        v = evaluate(f, x)
    except DomainViolation:
        return None
    return v.value if math.isfinite(v.value) else None


@FAST
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
def test_biorthogonality(n, k):
    v = pair(dual_basis_vector(n), basis_vector(k))
    assert v.value == (1.0 if n == k else 0.0)
    assert v.error_bound <= 1e-12  # conservative, never exactly zero claimed


@FAST
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
)
def test_anchored_projection_idempotent_and_nested(seed, j, k):
    rng = rng_from_seed(seed)
    x = random_point(rng)
    anchor = random_point(rng)
    pj = project(x, j, anchor)
    assert points_equal(project(pj, j, anchor), pj)
    assert points_equal(project(pj, k, anchor), project(x, min(j, k), anchor))


@SLOW
@given(st.integers(min_value=0, max_value=2**32))
def test_convexity_of_sampled_functions(seed):
    rng = rng_from_seed(seed)
    space = SpaceDescriptor.ellinf() if seed % 2 else SpaceDescriptor.ell1()
    f = random_function(rng, space)
    x = random_point(rng, space=space)
    y = random_point(rng, space=space)
    if finite_value(f, x) is None or finite_value(f, y) is None:
        return
    fx = evaluate(f, x)
    fy = evaluate(f, y)
    for lam in (0.25, 0.5, 0.75):
        mid = point_axpy(point_scale(1.0 - lam, y), lam, x)
        fm = evaluate(f, mid)
        rhs = lam * fx.value + (1.0 - lam) * fy.value
        slack = fm.error_bound + fx.error_bound + fy.error_bound + 1e-9
        assert fm.value <= rhs + slack


@SLOW
@given(st.integers(min_value=0, max_value=2**32))
def test_difference_quotients_are_monotone(seed):
    rng = rng_from_seed(seed)
    f = random_function(rng, SpaceDescriptor.ell1())
    x = random_point(rng)
    h = random_direction(rng, summable=True)
    if finite_value(f, x) is None:
        return  # no base value, nothing to difference
    res = quotient_scan(f, x, h)
    slack = 10 * res.noise_floor + 1e-12
    rights = [q for t, q in sorted(res.quotients_log, reverse=True) if t > 0]
    lefts = [q for t, q in sorted(res.quotients_log) if t < 0]
    for a, b in zip(rights, rights[1:]):
        if math.isfinite(a) and math.isfinite(b):
            assert b <= a + slack  # right quotients shrink as t drops
    for a, b in zip(lefts, lefts[1:]):
        if math.isfinite(a) and math.isfinite(b):
            assert b >= a - slack
    if res.left is not None and res.right is not None:
        if math.isfinite(res.left) and math.isfinite(res.right):
            assert res.left <= res.right + slack


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=12),
)
def test_analytic_matches_numeric_along_basis(seed, n):
    rng = rng_from_seed(seed)
    f = random_function(rng, SpaceDescriptor.ell1(), smooth=True)
    x = random_point(rng)
    dv = analytic_dir_deriv(f, x, n)
    if dv.status is not DirStatus.EXISTS:
        return
    if finite_value(f, x) is None:
        return
    num = quotient_scan(f, x, basis_vector(n))
    assert num.exists
    tol = max(1e-8, 50 * num.noise_floor) + 1e-8 * abs(dv.value)
    assert abs(num.value - dv.value) <= tol


@FAST
@given(st.integers(min_value=0, max_value=2**32))
def test_psc_closed_under_sums(seed):
    rng = rng_from_seed(seed)
    f = random_separable(rng)
    g = random_separable(rng)
    x = random_point(rng)
    cf = check_psc(f, x)
    cg = check_psc(g, x)
    assert cf.verdict is Verdict.HOLDS
    assert cg.verdict is Verdict.HOLDS
    assert check_psc(Sum((f, g)), x).verdict is Verdict.HOLDS


@SLOW
@given(st.integers(min_value=0, max_value=2**32))
def test_subgradient_inequality_once_certified(seed):
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square())
    x_star = Point([], (TailRule.const(1.0),))
    p = DualPoint([], (TailRule.geometric(2.0, 0.5),))
    cert = subgradient_test(f, x_star, p, CertifyOptions())
    assert cert.verdict is Verdict.HOLDS
    rng = rng_from_seed(seed)
    y = random_point(rng)
    if finite_value(f, y) is None:
        return
    fy = evaluate(f, y)
    f_star = evaluate(f, x_star)
    inner = pair(p, point_sub(y, x_star))
    slack = fy.error_bound + f_star.error_bound + inner.error_bound + 1e-7
    assert fy.value >= f_star.value + inner.value - slack


@SLOW
@given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=-3.0, max_value=3.0))
def test_gateaux_derivative_is_linear(seed, alpha):
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square())
    x = Point([0.5], (TailRule.geometric(1.0, 0.5),))
    cert, deriv = gateaux_detect(f, SpaceDescriptor.ell1(), x, CertifyOptions())
    assert cert.verdict is Verdict.HOLDS
    rng = rng_from_seed(seed)
    h1 = random_direction(rng, summable=True)
    h2 = random_direction(rng, summable=True)
    lhs = deriv.apply(point_axpy(h2, alpha, h1))
    a1 = deriv.apply(h1)
    a2 = deriv.apply(h2)
    slack = lhs.error_bound + abs(alpha) * a1.error_bound + a2.error_bound
    scale = 1.0 + abs(a1.value) + abs(a2.value)
    assert abs(lhs.value - (alpha * a1.value + a2.value)) <= slack + 1e-9 * scale


@SLOW
@given(st.integers(min_value=0, max_value=2**32))
def test_reduced_values_never_increase_with_rank(seed):
    rng = rng_from_seed(seed)
    c = rng.uniform(-1.5, 1.5)
    f = SeparableSeries(
        TailRule.geometric(1.0, 0.5),
        ScalarConvex.affine_quad(1.0, TailRule.harmonic(c)),
    )
    anchor = Point.zero()
    values = []
    for k in (1, 2, 3):
        prob = build_reduced(f, SetDescriptor.whole_space(), anchor, k)
        _, val, _ = minimize_reduced(prob)
        values.append(val.value)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-8
