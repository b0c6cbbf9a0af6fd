"""The hoisted scan kernels and the one basis-partial walk reproduce the
code they replaced bit for bit.

Floats are compared through struct.pack("<d", v), so signed zeros and NaN
payloads count as differences, or through repr, which tells signed zeros
and Fractions from floats apart.  Instances come from the library's seeded
samplers plus sqrt objectives built by hand (the samplers exclude sqrt
pieces), at feasible and infeasible points.
"""

import dataclasses
import math
import random
import struct
from dataclasses import dataclass
from typing import Optional

import pytest

from seqcert import reduce
from seqcert.certify import SetDescriptor
from seqcert.derivative import DerivOptions, dir_deriv, dir_deriv_profile
from seqcert.errors import DomainViolation
from seqcert.funcs import (
    Constant,
    FunctionExpr,
    LimsupSeminorm,
    LinearFunctional,
    ScalarConvex,
    ScalarKind,
    Scale,
    SeparableSeries,
    Sum,
    _finite_line,
    basis_partials,
    delta_along,
    delta_line,
)
from seqcert.reduce import OracleOptions, build_reduced, minimize_reduced
from seqcert.sampling import random_direction, random_function, random_point
from seqcert.seqspace import (
    DualPoint,
    Point,
    SpaceDescriptor,
    TailKind,
    TailRule,
    basis_vector,
)
from seqcert.symseq import SymSeq
from test_certify import closed_form_cases

NUMERIC = DerivOptions(prefer_analytic=False)
SPACES = (SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf)


def bits(v):
    """Floats as their IEEE bytes, recursively through tuples, lists and
    dataclass results."""
    if isinstance(v, float):
        return struct.pack("<d", v)
    if dataclasses.is_dataclass(v):
        return bits(dataclasses.astuple(v))
    if isinstance(v, (tuple, list)):
        return tuple(bits(u) for u in v)
    return v


def outcome(fn):
    try:
        return ("value", bits(fn()))
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raise", type(exc).__name__, str(exc))


def sqrt_objective(beta):
    return Sum((
        SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0)),
        SeparableSeries(TailRule.geometric(1.0, beta), ScalarConvex.neg_sqrt(2.0)),
    ))


def instances():
    for seed in range(40):
        rng = random.Random(seed)
        space = rng.choice(SPACES)()
        yield random_function(rng, space), random_point(rng, space=space)
    for seed in range(8):
        rng = random.Random(1000 + seed)
        f = sqrt_objective(rng.uniform(0.2, 0.6))
        yield f, random_point(rng, positive=seed % 2 == 0)
    # negative-zero coefficients, where only the int 0 starting each sum
    # decides the sign of a zero difference
    x = Point([0.5, -1.0], (TailRule.geometric(1.0, 0.5),))
    yield LinearFunctional(DualPoint([-0.0, 2.0, -0.0])), x
    yield SeparableSeries(TailRule.geometric(-0.0, 0.5), ScalarConvex.square()), x


# The per-step sum that funcs._finite_line replaced, kept as its reference.
def _delta_finite(f: FunctionExpr, x: Point, h: Point, support: list[int], t: float) -> float:
    """f(x + t h) - f(x) for finitely supported h: an exact finite sum.

    Only the touched coordinates contribute for every leaf of the grammar
    (a finite perturbation never moves a limsup).
    """
    if isinstance(f, (Constant, LimsupSeminorm)):
        return 0.0
    if isinstance(f, LinearFunctional):
        return t * sum(f.p.coordinate(n) * h.coordinate(n) for n in support)
    if isinstance(f, SeparableSeries):
        return sum(
            f.weight.value_at(n) * f.inner.line(n, x.coordinate(n))(t * h.coordinate(n))
            for n in support
        )
    if isinstance(f, Scale):
        return f.lam * _delta_finite(f.inner, x, h, support, t) if f.lam else 0.0
    if isinstance(f, Sum):
        return sum(_delta_finite(g, x, h, support, t) for g in f.terms)
    raise TypeError(f"unknown function expression {type(f).__name__}")


def reference_line(f, x, steps):
    """The reference difference along the direction steps describes, as a
    line like _finite_line's."""
    coords = dict(steps)
    h = Point([coords.get(n, 0.0) for n in range(1, max(coords) + 1)])
    support = [n for n, _ in steps]
    return lambda t: _delta_finite(f, x, h, support, t)


def quotient_ladder(x, steps, opts=NUMERIC):
    """dir_deriv's steps along the direction: t0 scales with |x_n| for a
    single coordinate n."""
    t0 = 1e-2 * max(1.0, abs(x.coordinate(steps[0][0]))) if len(steps) == 1 else 1e-2
    return [sign * t0 * 2.0**-j for sign in (1, -1) for j in range(opts.steps + 1)]


def supports():
    for n in range(1, 7):
        for hn in (1.0, -2.5):
            yield ((n, hn),)
    yield ((1, 1.0), (3, -2.5))
    yield ((4, -1e-3), (5, 7.0))
    yield ((2, 0.5), (3, -1.0), (6, 3.0))


def test_finite_line_matches_delta_finite_on_the_quotient_ladder():
    compared = 0
    for f, x in instances():
        for steps in supports():
            line = _finite_line(f, x, steps)
            want_line = reference_line(f, x, steps)
            for t in quotient_ladder(x, steps):
                got = outcome(lambda: line(t))
                want = outcome(lambda: want_line(t))
                assert got == want, (f, x, steps, t)
                compared += 1
    assert compared > 40_000


def test_delta_line_matches_fresh_delta_along_on_the_quotient_ladder():
    # One line per direction serves both sides of the ladder, so its
    # per-index tables and cached domain rank carry over between steps.
    cases = [
        # the right side leaves the sqrt domain at the larger steps only
        (sqrt_objective(0.5), Point([0.001, 0.3], (TailRule.geometric(1.0, 0.25),)),
         Point([-1.0], (TailRule.geometric(0.5, 0.5),))),
    ]
    for i, (f, x) in enumerate(instances()):
        h = random_direction(random.Random(3000 + i), summable=True)
        cases.append((f, x, h))
    compared = raised = 0
    for f, x, h in cases:
        line = delta_line(f, x, h)
        for t in [sign * 1e-2 * 2.0**-j for sign in (1, -1) for j in range(41)]:
            tol = abs(t) * 1e-13
            got = outcome(lambda: line(t, tol))
            want = outcome(lambda: delta_along(f, x, h, t, tol))
            assert got == want, (f, x, h, t)
            compared += 1
            raised += got[0] == "raise"
    assert compared > 4000 and 100 < raised < compared / 2


def test_profile_matches_direction_by_direction_scans():
    raised = 0
    for f, x in instances():
        try:
            profile = dir_deriv_profile(f, x, 8, NUMERIC)
        except Exception as exc:
            # The profile must fail where the first failing direction does,
            # with that direction's message tagged by its index.
            raised += 1
            for n in range(1, 9):
                single = outcome(lambda: dir_deriv(f, x, basis_vector(n), NUMERIC))
                if single[0] == "raise":
                    assert (type(exc).__name__, str(exc)) == (
                        single[1], f"direction {n}: {single[2]}"
                    )
                    break
            else:
                pytest.fail(f"profile raised {exc!r} but no direction does")
            continue
        for n, res in enumerate(profile, start=1):
            single = dir_deriv(f, x, basis_vector(n), NUMERIC)
            assert bits(res) == bits(single)
    assert raised > 0  # the infeasible sqrt points exercise the error path


def test_oracle_matches_a_descent_driven_by_the_reference_delta(monkeypatch):
    opts = OracleOptions(max_sweeps=200)
    problems = []
    for f, x in instances():
        for k in (2, 5):
            try:
                problems.append(build_reduced(f, SetDescriptor.whole_space(), x, k))
            except Exception:
                continue
    for beta in (0.3, 0.5):
        anchor = Point([0.3, 0.05, 0.2], (TailRule.geometric(1.0, beta * beta),))
        problems.append(
            build_reduced(sqrt_objective(beta), SetDescriptor.positive_cone_ell1(), anchor, 3)
        )
    got = [outcome(lambda: minimize_reduced(p, opts)) for p in problems]
    monkeypatch.setattr(reduce, "_finite_line", reference_line)
    want = [outcome(lambda: minimize_reduced(p, opts)) for p in problems]
    assert got == want
    assert sum(g[0] == "value" for g in got) > 20


# The two walks that funcs.basis_partials replaced, kept as its references:
# the per-index walk (with ScalarConvex.one_sided as a function of the
# piece) and the closed form, with its profile type and zero test.
def _scalar_one_sided(u: ScalarConvex, n: int, t: float) -> tuple[Optional[float], Optional[float]]:
    """(left, right) derivatives at t; None marks a side outside the domain."""
    if u.kind is ScalarKind.ABS:
        if t > 0.0:
            return 1.0, 1.0
        if t < 0.0:
            return -1.0, -1.0
        return -1.0, 1.0
    if u.kind is ScalarKind.SQUARE:
        return 2.0 * t, 2.0 * t
    if u.kind is ScalarKind.AFFINE_QUAD:
        d = 2.0 * u.a.value_at(n) * t + u.b.value_at(n)
        return d, d
    if u.kind is ScalarKind.LINEAR:
        d = u.b.value_at(n)
        return d, d
    c = u.c.value_at(n)
    if t < 0.0:
        raise DomainViolation(f"sqrt piece needs t >= 0, got {t} at index {n}")
    if c == 0.0:
        return 0.0, 0.0
    if t == 0.0:
        # right derivative of -c*sqrt at the boundary is -infinity
        return None, -math.inf
    d = -c / (2.0 * math.sqrt(t))
    return d, d


def _one_sided_basis(
    f: FunctionExpr, x: Point, n: int
) -> tuple[Optional[float], Optional[float]]:
    """Closed-form (left, right) derivatives of t -> f(x + t e_n) at 0."""
    if isinstance(f, Constant):
        return 0.0, 0.0
    if isinstance(f, LimsupSeminorm):
        # A one-coordinate change never moves a limsup.
        return 0.0, 0.0
    if isinstance(f, LinearFunctional):
        v = f.p.coordinate(n)
        return v, v
    if isinstance(f, SeparableSeries):
        w = f.weight.value_at(n)
        left, right = _scalar_one_sided(f.inner, n, x.coordinate(n))
        # Nonnegative weights preserve the side order; zero kills both sides.
        if w == 0.0:
            return 0.0, 0.0
        lw = None if left is None else w * left
        rw = None if right is None else w * right
        if w < 0.0:
            lw, rw = rw, lw
        return lw, rw
    if isinstance(f, Scale):
        if f.lam == 0.0:
            return 0.0, 0.0
        left, right = _one_sided_basis(f.inner, x, n)
        return (
            None if left is None else f.lam * left,
            None if right is None else f.lam * right,
        )
    if isinstance(f, Sum):
        lsum, rsum = 0.0, 0.0
        for g in f.terms:
            left, right = _one_sided_basis(g, x, n)
            if left is None:
                lsum = None
            elif lsum is not None:
                lsum += left
            if right is None:
                rsum = None
            elif rsum is not None:
                rsum += right
        return lsum, rsum
    raise TypeError(f"unknown function expression {type(f).__name__}")


@dataclass(frozen=True)
class _SymProfile:
    """Closed form of n -> f'(x*; e_n), valid for n >= valid_from.

    status: "ok" (tail holds the form), "kink" (derivative missing at
    kink_at), or "numeric" (no closed form; only the per-index head of
    _basis_profile is known).
    """

    status: str
    valid_from: int = 1
    tail: Optional[SymSeq] = None
    kink_at: Optional[int] = None


def _form_is_zero(form: TailRule) -> bool:
    """Is the form 0 at every n >= 1?  (geometric(c, 0) is: c * 0**n.)"""
    return (
        form.kind is TailKind.ZERO
        or form.c == 0.0
        or (form.kind is TailKind.GEOMETRIC and form.r == 0.0)
    )


def _deriv_symbolic(f: FunctionExpr, x: Point) -> _SymProfile:
    if isinstance(f, (Constant, LimsupSeminorm)):
        return _SymProfile("ok", 1, SymSeq.zero())
    if isinstance(f, LinearFunctional):
        return _SymProfile("ok", f.p.tail_start, f.p.tail_symseq())
    if isinstance(f, Scale):
        if not f.lam:
            # A zero factor flattens every kink of the inner expression.
            return _SymProfile("ok", 1, SymSeq.zero())
        sub = _deriv_symbolic(f.inner, x)
        if sub.status != "ok":
            return sub
        return _SymProfile("ok", sub.valid_from, sub.tail.scaled(f.lam))
    if isinstance(f, Sum):
        parts = [_deriv_symbolic(g, x) for g in f.terms]
        kinks = [p.kink_at for p in parts if p.status == "kink"]
        if kinks:
            return _SymProfile("kink", kink_at=min(kinks))
        if any(p.status == "numeric" for p in parts):
            return _SymProfile("numeric")
        total = SymSeq.zero()
        for p in parts:
            total = total + p.tail
        return _SymProfile("ok", max((p.valid_from for p in parts), default=1), total)
    if not isinstance(f, SeparableSeries):
        return _SymProfile("numeric")

    start = x.tail_start
    w = f.weight.to_symseq()
    xx = x.tail_symseq()
    kind = f.inner.kind
    if kind is ScalarKind.SQUARE:
        return _SymProfile("ok", start, w * xx.scaled(2))
    if kind is ScalarKind.AFFINE_QUAD:
        aa = f.inner.a.to_symseq()
        bb = f.inner.b.to_symseq()
        return _SymProfile("ok", start, w * (aa * xx.scaled(2) + bb))
    if kind is ScalarKind.LINEAR:
        return _SymProfile("ok", start, w * f.inner.b.to_symseq())
    if kind is ScalarKind.ABS:
        if _form_is_zero(f.weight):
            return _SymProfile("ok", start, SymSeq.zero())
        if not xx.terms:
            return _SymProfile("kink", kink_at=start)
        try:
            sgn, rank = xx.eventual_sign(start)
        except ValueError:
            return _SymProfile("numeric")
        if sgn == 0:
            return _SymProfile("kink", kink_at=start)
        for n in range(start, rank):
            if xx.value_at(n) == 0.0 and f.weight.value_at(n) != 0.0:
                return _SymProfile("kink", kink_at=n)
        return _SymProfile("ok", rank, w.scaled(sgn))
    # NEG_SQRT: at a zero tail only a leaf whose weight and c are both
    # nonzero has no derivative; either one zero makes the leaf constant.
    if _form_is_zero(f.weight) or _form_is_zero(f.inner.c):
        return _SymProfile("ok", start, SymSeq.zero())
    if not xx.terms:
        return _SymProfile("kink", kink_at=start)
    if len(xx.terms) == 1 and xx.terms[0].coef > 0 and xx.terms[0].ratio > 0:
        inv_root = xx.sqrt().reciprocal()
        return _SymProfile("ok", start, (w * f.inner.c.to_symseq() * inv_root).scaled(-0.5))
    return _SymProfile("numeric")


def form_record(form):
    """status, valid_from, kink index, and the tail's terms (as repr, so
    Fraction and float coefficients and signed zeros differ) and exact flag."""
    tail = None
    if form.tail is not None:
        tail = (repr([(t.coef, t.ratio, t.npow) for t in form.tail.terms]), form.tail.exact)
    return form.status, form.valid_from, form.kink_at, tail


def sides_record(fn):
    try:
        return repr(fn())
    except Exception as exc:  # the exception itself is part of the outcome
        return repr((type(exc).__name__, str(exc)))


def test_basis_partials_match_the_two_walks_they_replaced():
    compared = one_sided = 0
    statuses = set()
    for f, x in list(closed_form_cases()) + list(instances()):
        partials = basis_partials(f, x)
        want = _deriv_symbolic(f, x)
        assert form_record(partials.form) == form_record(want), (f, x)
        statuses.add(want.status)
        for n in range(1, want.valid_from + 65):
            got = sides_record(lambda: partials.sides(n))
            assert got == sides_record(lambda: _one_sided_basis(f, x, n)), (f, x, n)
            compared += 1
            one_sided += "None" in got or "inf" in got
    assert statuses == {"ok", "kink", "numeric"}
    assert compared > 20_000 and one_sided > 0
