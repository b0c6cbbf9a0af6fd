"""The hoisted scan kernels, the series line's once-per-line majorant, the
one coordinate walk and the oracle's descent driver reproduce the code
they replaced bit for bit.

Floats are compared through struct.pack("<d", v), so signed zeros and NaN
payloads count as differences, or through repr, which tells signed zeros
and Fractions from floats apart.  Instances come from the library's seeded
samplers plus sqrt objectives built by hand (the samplers exclude sqrt
pieces), at feasible and infeasible points.

The one comparison that is not bit for bit is the oracle's golden-section
line search against the ternary search it replaced: it probes other
points, so it is compared within tolerances.
"""

import dataclasses
import math
import random
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import pytest

from seqcert import certify, reduce
from seqcert.certify import CertifyOptions, SetDescriptor, coordinate_interval, gateaux_detect
from seqcert.derivative import dir_deriv, dir_deriv_profile
from seqcert import funcs
from seqcert.errors import (
    DomainViolation,
    MaxSweeps,
    NoMajorant,
    PartialNotDifferentiable,
    Unbounded,
)
from seqcert.funcs import (
    Constant,
    DirStatus,
    DirValue,
    FunctionExpr,
    LimsupSeminorm,
    LinearFunctional,
    ScalarConvex,
    ScalarKind,
    Scale,
    SeparableSeries,
    Sum,
    basis_partials,
    certified,
    delta_along,
    evaluate,
)
from seqcert.reduce import build_reduced, minimize_reduced
from seqcert.sampling import random_direction, random_function, random_point
from seqcert.seqspace import (
    _HEAD_BUDGET,
    _ULP,
    DualPoint,
    Point,
    SeriesValue,
    SpaceDescriptor,
    TailRule,
    basis_vector,
    certified_series,
    limsup_abs,
    majorant_region,
    pair,
    pairing,
    point_axpy,
    tail_limit,
)
from seqcert.symseq import (
    SUMMABLE,
    SymSeq,
    SymTerm,
    _geometric_tail_start,
    _power_tail,
    _term_values,
    classify,
    tail_sum,
    tail_sums,
)
from test_certifier_paths import CASES as CENSUS
from test_certify import closed_form_cases
from test_derivative import sqrt_corpus
from test_series_digest import fuzz_instance, ladder, ladder_cases, step_record
from test_shared_walk import fuzz_case
from quotient_scan import ScanOptions, quotient_scan

NUMERIC = ScanOptions()
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
    yield SeparableSeries(TailRule.geometric(-0.0, 0.5), ScalarConvex.abs_()), x
    yield SeparableSeries(TailRule.geometric(-0.0, 0.5), ScalarConvex.neg_sqrt(0.0)), x
    yield Sum((LimsupSeminorm(), LinearFunctional(DualPoint([-0.0, 2.0, -0.0])))), x


# The per-piece difference the walk's exact lines replaced (the former
# ScalarConvex.line(n, t0), which left the weight, the direction's
# coordinate and the int 0 to its caller), kept as their reference.
def _piece_line(u: ScalarConvex, n: int, t0: float):
    """dt -> u_n(t0 + dt) - u_n(t0), with u_n's parameters resolved once.

    Along a line only dt changes, so the per-index coefficients and the
    anchor terms (2*t0, sqrt(t0)) are computed here and each call runs
    just the cancellation-free difference.
    """
    kind = u.kind
    if kind is ScalarKind.ABS:
        def d(dt: float) -> float:
            if dt == 0.0:
                return 0.0
            if t0 >= 0.0 and t0 + dt >= 0.0:
                return dt
            if t0 <= 0.0 and t0 + dt <= 0.0:
                return -dt
            return abs(t0 + dt) - abs(t0)
        return d
    two_t0 = 2.0 * t0
    if kind is ScalarKind.SQUARE:
        return lambda dt: 0.0 if dt == 0.0 else dt * (two_t0 + dt)
    if kind is ScalarKind.AFFINE_QUAD:
        a = u.a.coordinate(n)
        b = u.b.coordinate(n)
        return lambda dt: 0.0 if dt == 0.0 else a * dt * (two_t0 + dt) + b * dt
    if kind is ScalarKind.LINEAR:
        b = u.b.coordinate(n)
        return lambda dt: 0.0 if dt == 0.0 else b * dt
    c = u.c.coordinate(n)
    # a negative t0 raises below before its root would be used
    root0 = 0.0 if t0 < 0.0 else math.sqrt(t0)

    def d(dt: float) -> float:
        if dt == 0.0:
            return 0.0
        t1 = t0 + dt
        if t0 < 0.0 or t1 < 0.0:
            raise DomainViolation(
                f"sqrt piece needs t >= 0 along the segment at index {n}"
            )
        if c == 0.0:
            return 0.0
        root_sum = math.sqrt(t1) + root0
        if root_sum == 0.0:
            return 0.0
        return -c * dt / root_sum
    return d


# The per-step sum behind the walk's exact lines, kept as their reference.
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
            f.weight.coordinate(n) * _piece_line(f.inner, n, x.coordinate(n))(t * h.coordinate(n))
            for n in support
        )
    if isinstance(f, Scale):
        return f.lam * _delta_finite(f.inner, x, h, support, t) if f.lam else 0.0
    if isinstance(f, Sum):
        return sum(_delta_finite(g, x, h, support, t) for g in f.terms)
    raise TypeError(f"unknown function expression {type(f).__name__}")


def reference_line(f, x, steps):
    """The reference difference along the direction steps describes, as a
    line like the walk's."""
    coords = dict(steps)
    h = Point([coords.get(n, 0.0) for n in range(1, max(coords) + 1)])
    support = [n for n, _ in steps]
    return lambda t: _delta_finite(f, x, h, support, t)


def quotient_ladder(x, steps, opts=NUMERIC):
    """The reference quotient scan's steps along the direction: t0 scales
    with |x_n| for a single coordinate n."""
    t0 = 1e-2 * max(1.0, abs(x.coordinate(steps[0][0]))) if len(steps) == 1 else 1e-2
    return [sign * t0 * 2.0**-j for sign in (1, -1) for j in range(opts.steps + 1)]


def supports():
    for n in range(1, 7):
        for hn in (1.0, -2.5):
            yield ((n, hn),)
    yield ((1, 1.0), (3, -2.5))
    yield ((4, -1e-3), (5, 7.0))
    yield ((2, 0.5), (3, -1.0), (6, 3.0))


def test_walk_line_matches_delta_finite_on_the_quotient_ladder():
    compared = 0
    for f, x in instances():
        walk = basis_partials(f, x)
        for steps in supports():
            line = walk.line(steps)
            want_line = reference_line(f, x, steps)
            for t in quotient_ladder(x, steps):
                got = outcome(lambda: line(t))
                want = outcome(lambda: want_line(t))
                assert got == want, (f, x, steps, t)
                compared += 1
    assert compared > 40_000


def test_series_line_matches_fresh_delta_along_on_the_quotient_ladder():
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
        line = basis_partials(f, x).series_line(h)
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
            profile = dir_deriv_profile(f, x, 8)
        except Exception as exc:
            # The profile must fail where the first failing direction does,
            # with that direction's message tagged by its index.
            raised += 1
            for n in range(1, 9):
                single = outcome(lambda: dir_deriv(f, x, basis_vector(n)))
                if single[0] == "raise":
                    assert (type(exc).__name__, str(exc)) == (
                        single[1], f"direction {n}: {single[2]}"
                    )
                    break
            else:
                pytest.fail(f"profile raised {exc!r} but no direction does")
            continue
        for n, res in enumerate(profile, start=1):
            single = dir_deriv(f, x, basis_vector(n))
            assert bits(res) == bits(single)
    assert raised > 0  # the infeasible sqrt points exercise the error path


def test_oracle_matches_a_descent_driven_by_the_reference_delta(monkeypatch):
    monkeypatch.setattr(reduce, "_MAX_SWEEPS", 200)
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
    got = [outcome(lambda: minimize_reduced(p)) for p in problems]
    walk = reduce.basis_partials

    def reference_walk(f, x):
        partials = walk(f, x)
        partials.line = lambda steps: reference_line(f, x, steps)
        return partials

    monkeypatch.setattr(reduce, "basis_partials", reference_walk)
    want = [outcome(lambda: minimize_reduced(p)) for p in problems]
    assert got == want
    assert sum(g[0] == "value" for g in got) > 20


# The descent driver that reduce.minimize_reduced replaced (a walk per
# coordinate), kept as its reference; the line search and the module
# constants are read from reduce.
def reference_minimize(prob):
    y = prob.start()
    feasible_start = evaluate(prob.f, prob.embed(y))
    if math.isinf(feasible_start.value):
        raise DomainViolation("objective is infinite at the starting point")

    b = reduce._BOUND
    sweeps = 0
    while sweeps < reduce._MAX_SWEEPS:
        sweeps += 1
        decrease = 0.0
        for i in range(1, prob.k + 1):
            x = prob.embed(y)
            lo_set, hi_set = coordinate_interval(prob.feasible_set, i)
            lo = max(lo_set - y[i - 1], -b)
            hi = min(hi_set - y[i - 1], b)
            if hi <= lo:
                continue
            line = basis_partials(prob.f, x).line(((i, 1.0),))
            t, v = reduce._line_minimize(line, lo, hi)
            if v < 0.0:
                # margin matched to the line search's relative stopping width
                cap_margin = 4 * reduce._LINE_TOL * (1.0 + b)
                at_cap = (
                    (lo == -b and t <= lo + cap_margin)
                    or (hi == b and t >= hi - cap_margin)
                )
                if at_cap:
                    raise Unbounded(
                        f"coordinate {i} runs to the search cap {b:g} while still descending"
                    )
                y[i - 1] += t
                decrease += -v
            if abs(y[i - 1]) > b:
                raise Unbounded(f"coordinate {i} left the search box")
        if decrease <= reduce._SWEEP_TOL * (1.0 + abs(feasible_start.value)):
            final = evaluate(prob.f, prob.embed(y))
            return y, final, sweeps
    raise MaxSweeps(f"no convergence within {reduce._MAX_SWEEPS} sweeps")


def oracle_families():
    """The oracle benchmark's three families (example 3, example 4 and
    acceptance criterion 8 as a box) at ranks 8, 16 and 32, from anchors
    whose first k coordinates are perturbed off the known minimizer."""
    for k in (8, 16, 32):
        for beta in (0.25, 0.4, 0.55):
            rng = random.Random(f"{k}/{beta}")
            u = [rng.uniform(-0.5, 0.5) for _ in range(k)]
            example3 = Sum((
                LimsupSeminorm(),
                SeparableSeries(
                    TailRule.geometric(1.0, beta),
                    ScalarConvex.affine_quad(1.0, TailRule.harmonic(-1.0)),
                ),
            ))
            anchor = Point(
                [1.0 / (2 * n) + u[n - 1] for n in range(1, k + 1)], (TailRule.harmonic(0.5),)
            )
            yield build_reduced(example3, SetDescriptor.whole_space(), anchor, k)
            anchor = Point(
                [beta ** (2 * n) * (1.0 + u[n - 1]) for n in range(1, k + 1)],
                (TailRule.geometric(1.0, beta * beta),),
            )
            cone = SetDescriptor.positive_cone_ell1()
            yield build_reduced(sqrt_objective(beta), cone, anchor, k)
            box = SetDescriptor.box(lower=Point([1.0], ()), upper=None, bound_count=1)
            anchor = Point([1.5 + u[0]] + [0.4 + u[n - 1] for n in range(2, k + 1)], ())
            criterion8 = SeparableSeries(TailRule.geometric(1.0, beta), ScalarConvex.square())
            yield build_reduced(criterion8, box, anchor, k)


def oracle_problems():
    """The oracle families plus every instance reduced at k = 2 and 5."""
    problems = list(oracle_families())
    for f, x in instances():
        for k in (2, 5):
            try:
                problems.append(build_reduced(f, SetDescriptor.whole_space(), x, k))
            except Exception:
                continue
    return problems


def test_oracle_matches_the_descent_driver_it_replaced(monkeypatch):
    # One walk per sweep and the weighted term closures give the bytes of a
    # walk per coordinate with the same line search:
    # minimizer, value, error bound, terms used and sweeps, or the same
    # exception and message.  The sqrt objectives at k = 2 and 5 include
    # points whose line steps leave the domain.
    monkeypatch.setattr(reduce, "_MAX_SWEEPS", 200)
    problems = oracle_problems()
    raised = 0
    for prob in problems:
        got = outcome(lambda: minimize_reduced(prob))
        assert got == outcome(lambda: reference_minimize(prob)), (prob.f, prob.anchor, prob.k)
        raised += got[0] == "raise"
    assert len(problems) > 100 and 0 < raised < len(problems) / 2


# The ternary line search that reduce._line_minimize's golden-section
# search replaced (two fresh probes per one-third shrink), kept as its
# reference.
def _ternary_minimize(
    line: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    inf = math.inf
    while hi - lo > reduce._LINE_TOL * (1.0 + max(abs(lo), abs(hi))):
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        try:
            v1 = line(m1) if m1 != 0.0 else 0.0
        except DomainViolation:
            v1 = inf
        try:
            v2 = line(m2) if m2 != 0.0 else 0.0
        except DomainViolation:
            v2 = inf
        if v1 == inf and v2 == inf:
            if m1 >= 0.0:
                hi = m1
            elif m2 <= 0.0:
                lo = m2
            else:
                lo, hi = m1, m2
        elif v1 < v2:
            hi = m2
        else:
            lo = m1
    t = 0.5 * (lo + hi)
    try:
        v = line(t) if t != 0.0 else 0.0
    except DomainViolation:
        v = inf
    return (0.0, 0.0) if v == inf else (t, v)


def descent(prob):
    try:
        return ("value", minimize_reduced(prob))
    except Exception as exc:  # the exception itself is part of the outcome
        return ("raise", type(exc).__name__, str(exc))


def test_golden_oracle_agrees_with_the_ternary_reference(monkeypatch):
    # The golden-section search stops at the same relative width as the
    # ternary one but probes other points, so the iterates move in their
    # last bits: the same outcome, exception and sweep count, the value to
    # 1e-12 relative and the minimizer to 1e-9.
    monkeypatch.setattr(reduce, "_MAX_SWEEPS", 200)
    problems = oracle_problems()
    got = [descent(prob) for prob in problems]
    monkeypatch.setattr(reduce, "_line_minimize", _ternary_minimize)
    want = [descent(prob) for prob in problems]
    values = 0
    for prob, g, w in zip(problems, got, want):
        where = (prob.f, prob.anchor, prob.k)
        assert g[0] == w[0], where
        if g[0] == "raise":
            assert g == w, where
            continue
        (gy, gv, gs), (wy, wv, ws) = g[1], w[1]
        assert gs == ws, where
        assert abs(gv.value - wv.value) <= 1e-12 * (1.0 + abs(wv.value)), where
        assert max(abs(a - b) for a, b in zip(gy, wy)) <= 1e-9, where
        values += 1
    assert len(problems) > 100 and 0 < values < len(problems)


def test_a_line_along_a_basis_vector_reads_only_its_own_coordinate():
    # What lets the oracle build one walk per sweep: walks at two points
    # that differ off coordinate i give the same line along e_i.
    rng = random.Random(11)
    compared = 0
    for f, x in instances():
        m = max(len(x.prefix), 7)
        for i in (1, 2, 3, 6):
            moved = Point(
                [x.coordinate(n) + (0.0 if n == i else rng.uniform(-1.0, 1.0))
                 for n in range(1, m + 1)],
                x.tail,
            )
            line = basis_partials(f, x).line(((i, 1.0),))
            moved_line = basis_partials(f, moved).line(((i, 1.0),))
            for t in quotient_ladder(x, ((i, 1.0),)):
                assert outcome(lambda: moved_line(t)) == outcome(lambda: line(t)), (f, x, i, t)
                compared += 1
    assert compared > 10_000


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
        d = 2.0 * u.a.coordinate(n) * t + u.b.coordinate(n)
        return d, d
    if u.kind is ScalarKind.LINEAR:
        d = u.b.coordinate(n)
        return d, d
    c = u.c.coordinate(n)
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
        w = f.weight.coordinate(n)
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


def _form_is_zero(form: SymSeq) -> bool:
    """Is the form 0 at every n >= 1?  (geometric(c, 0) is: c * 0**n.)"""
    return not form


def _deriv_symbolic(f: FunctionExpr, x: Point) -> _SymProfile:
    if isinstance(f, (Constant, LimsupSeminorm)):
        return _SymProfile("ok", 1, SymSeq.zero())
    if isinstance(f, LinearFunctional):
        return _SymProfile("ok", f.p.tail_start, f.p.tail)
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
    w = f.weight
    xx = x.tail
    kind = f.inner.kind
    if kind is ScalarKind.SQUARE:
        return _SymProfile("ok", start, w * xx.scaled(2))
    if kind is ScalarKind.AFFINE_QUAD:
        aa = f.inner.a
        bb = f.inner.b
        return _SymProfile("ok", start, w * (aa * xx.scaled(2) + bb))
    if kind is ScalarKind.LINEAR:
        return _SymProfile("ok", start, w * f.inner.b)
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
            if xx.value_at(n) == 0.0 and f.weight.coordinate(n) != 0.0:
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
        return _SymProfile("ok", start, (w * f.inner.c * inv_root).scaled(-0.5))
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


def range_records(partials, a, b):
    """The range answer's outcome at each n in a..b, as sides_record
    gives it: the pair, or the exception the index raises, the range
    being asked again past each index that raises."""
    out = []
    while a <= b:
        lefts, rights, err = partials.sides(a, b)
        out += [repr(pair) for pair in zip(lefts, rights)]
        a += len(lefts)
        if err is not None:
            out.append(repr((type(err).__name__, str(err))))
            a += 1
    return out


def test_basis_partials_match_the_two_walks_they_replaced():
    compared = one_sided = 0
    statuses = set()
    for f, x in list(closed_form_cases()) + list(instances()):
        partials = basis_partials(f, x)
        want = _deriv_symbolic(f, x)
        assert form_record(partials.form) == form_record(want), (f, x)
        statuses.add(want.status)
        got = range_records(partials, 1, want.valid_from + 64)
        for n, record in enumerate(got, start=1):
            assert record == sides_record(lambda: _one_sided_basis(f, x, n)), (f, x, n)
            compared += 1
            one_sided += "None" in record or "inf" in record
    assert statuses == {"ok", "kink", "numeric"}
    assert compared > 20_000 and one_sided > 0


# The head sum of a separable leaf's direction(h) before the range answer,
# verbatim apart from the per-index sides it reads, as its reference.
def _reference_head(f: SeparableSeries, x: Point, h: Point, stop: int) -> tuple:
    left, right = 0.0, 0.0
    for n in range(1, stop):
        hn = h.coordinate(n)
        if hn == 0.0:
            continue
        lo, hi = _one_sided_basis(f, x, n)
        # a negative step swaps the sides
        if hn < 0.0:
            lo, hi = hi, lo
        left = None if left is None or lo is None else left + lo * hn
        right = None if right is None or hi is None else right + hi * hn
    return left, right


def test_a_finite_direction_matches_the_per_index_head_sum():
    # a finitely supported h is answered by the head sum alone, which reads
    # an index only where h moves: a negative coordinate under a sqrt piece
    # raises where h_n != 0 and is passed over where h_n == 0
    rng = random.Random(32)
    raised = 0
    for leaf, x, _ in sqrt_corpus(320):
        if not isinstance(leaf, SeparableSeries):
            continue
        prefix = list(x.prefix) + [1.0] * 3
        prefix[rng.randrange(len(prefix))] = -1.0
        x = Point(prefix, x.tail)
        for _ in range(4):
            h = Point([rng.choice([0.0, 0.0, 1.0, -0.5]) for _ in range(len(prefix) + 2)])
            funcs.drop_kept_walk()
            want = outcome(lambda: _reference_head(leaf, x, h, h.tail_start))
            assert outcome(lambda: basis_partials(leaf, x).direction(h)) == want, (leaf, x, h)
            raised += want[0] == "raise"
    assert raised > 0


# The per-index profile that certify._basis_profile replaced, kept verbatim
# as its reference, apart from the walk it reads: _PerIndexWalk answers
# at(n) from the per-index walk above, as BasisPartials.at classified it
# before the head column, so the reference shares no code with the column.
class _PerIndexWalk:
    def __init__(self, f: FunctionExpr, x: Point):
        self.f, self.x = f, x

    @property
    def form(self):
        return basis_partials(self.f, self.x).form

    def at(self, n: int) -> DirValue:
        left, right = _one_sided_basis(self.f, self.x, n)
        if left is None or right is None or math.isinf(left) or math.isinf(right):
            return DirValue.kink(left, right)
        if left == right:
            return DirValue.exists(right)
        return DirValue.kink(left, right)


def _reference_basis_profile(
    parts, x_star: Point, coords: int, tail_from: int = 1
) -> certify._BasisProfile:
    _BasisProfile = certify._BasisProfile
    walks = [(j, c, _PerIndexWalk(f, x_star)) for j, (c, f) in enumerate(parts) if c != 0.0]
    forms = [bp.form for _, _, bp in walks]
    valid_from = max([tail_from, *(form.valid_from for form in forms)])
    columns, cuts = [], []
    missing = part = kink = None
    for (j, _, bp), form in zip(walks, forms):
        stop = valid_from if form.status == "ok" else (form.kink_at or 1)
        dvs = [bp.at(n) for n in range(1, coords + 1)]
        miss = next(
            (n for n, dv in enumerate(dvs, start=1) if dv.status is not DirStatus.EXISTS), None
        )
        while miss is None and len(dvs) + 1 < stop:
            dvs.append(bp.at(len(dvs) + 1))
            if dvs[-1].status is not DirStatus.EXISTS:
                miss = len(dvs)
        if miss is None and form.status == "kink":
            miss = form.kink_at
            dvs.append(bp.at(miss))
        if miss is not None and (missing is None or miss < missing):
            missing, part, kink = miss, j, dvs[miss - 1]
        columns.append(dvs)
        cuts.append(miss - 1 if miss else len(dvs))

    def weighted(n: int) -> Optional[float]:
        total = 0.0
        for (_, c, _), dvs in zip(walks, columns):
            if dvs[n - 1].value is None:
                return None
            total += c * dvs[n - 1].value
        return total

    cut = min(cuts, default=coords)
    row = [weighted(n) for n in range(1, max(coords, cut) + 1)]
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


def profile_outcome(fn):
    """(record, profile): every field of the profile by repr, so signed
    zeros, None and the kink's DirValue count, or the exception's type and
    message with no profile."""
    try:
        prof = fn()
    except Exception as exc:  # the exception itself is part of the outcome
        return repr((type(exc).__name__, str(exc))), None
    return repr([(f.name, getattr(prof, f.name)) for f in dataclasses.fields(prof)]), prof


def census_profile_calls(monkeypatch):
    """(parts, x*, tail_from) of every _basis_profile call the census of
    tests/test_certifier_paths.py makes."""
    calls = []
    profile = certify._basis_profile

    def spy(parts, x_star, coords, tail_from=1):
        calls.append((list(parts), x_star, tail_from))
        return profile(parts, x_star, coords, tail_from)

    monkeypatch.setattr(certify, "_basis_profile", spy)
    for call in CENSUS.values():
        try:
            call()
        except Exception:  # the census pins its outcomes; only the calls matter here
            pass
    monkeypatch.undo()
    return calls


def raising_profile_calls():
    """Profiles whose head or extension reaches a sqrt piece's negative
    coordinate, in one part or several, some with a kink before it."""
    sqrt = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.neg_sqrt(1.0))
    square = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    abs_ = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_())
    ones = (TailRule.const(1.0),)
    for x in (
        Point([1.0, 0.0, 1.0, -1.0], ones),
        Point([1.0] * 69 + [-1.0], ones),
        Point([1.0] * 20 + [0.0] + [1.0] * 49 + [-1.0], ones),
    ):
        yield [(1.0, sqrt)], x, 1
        yield [(1.0, Sum((square, sqrt)))], x, 1
        yield [(1.0, Sum((abs_, sqrt, Scale(2.0, sqrt))))], x, 1
        yield [(1.0, square), (0.0, sqrt), (2.0, abs_)], x, 1
        yield [(1.0, abs_), (1.0, sqrt)], x, 80
        yield [(0.5, square), (1.0, Scale(0.0, sqrt)), (1.0, sqrt)], x, 1


def test_basis_profile_matches_the_per_index_profile_it_replaced(monkeypatch):
    calls = census_profile_calls(monkeypatch)
    for seed in range(600):
        _, f, x, p = fuzz_case(seed)
        calls += [([(1.0, f)], x, 1), ([(1.0, f)], x, p.tail_start)]
    calls += [([(1.0, f)], x, 1) for f, x, _ in sqrt_corpus(320)]
    calls += raising_profile_calls()
    seen = Counter()
    for parts, x, tail_from in calls:
        for order in ((64, 3), (3, 64)):
            # a fresh walk, then the same walk with its column kept
            funcs.drop_kept_walk()
            for coords in order:
                want, prof = profile_outcome(
                    lambda: _reference_basis_profile(parts, x, coords, tail_from)
                )
                got, _ = profile_outcome(lambda: certify._basis_profile(parts, x, coords, tail_from))
                assert got == want, (parts, x, coords, tail_from)
                if prof is None:
                    seen["raised"] += 1
                elif prof.missing is not None:
                    seen["kink" if prof.rule == "kink" else "missing"] += 1
                seen["extended"] += prof is not None and len(prof.head) > coords
    assert len(calls) > 1500 and min(seen[k] for k in ("raised", "kink", "missing", "extended")) > 0



# reduce.grad_reduced's per-index loop before the head column, verbatim
# apart from the walk it reads, as its reference.
def _reference_grad_reduced(prob: reduce.ReducedProblem, y) -> list[float]:
    partials = _PerIndexWalk(prob.f, prob.embed(y))
    out = []
    for i in range(1, prob.k + 1):
        dv = partials.at(i)
        if dv.status is not DirStatus.EXISTS:
            raise PartialNotDifferentiable(i)
        out.append(dv.value)
    return out


def test_grad_reduced_matches_the_per_index_loop_it_replaced():
    cases = [(f, x) for f, x, _ in sqrt_corpus(320)]
    cases += [fuzz_case(seed)[1:3] for seed in range(300)]
    cases += [(Sum([g for _, g in parts]), x) for parts, x, _ in raising_profile_calls()]
    raised = Counter()
    for f, x in cases:
        for k in (3, 8, 80):
            prob = reduce.ReducedProblem(k, x, f, SetDescriptor.whole_space())
            y = prob.start()
            funcs.drop_kept_walk()
            want = outcome(lambda: _reference_grad_reduced(prob, y))
            assert outcome(lambda: reduce.grad_reduced(prob, y)) == want, (f, x, k)
            raised[want[1] if want[0] == "raise" else "value"] += 1
    assert set(raised) == {"value", "PartialNotDifferentiable", "DomainViolation"}


# The interval walk that funcs.basis_partials replaced, kept verbatim as
# the reference for its interval test.
def _interval_slope(f: FunctionExpr, x: Point, n: int, a: float) -> tuple[Optional[str], bool]:
    """(why, unbounded) for t -> f(x + t e_n) on |t| < a, term by term.

    why is None when every term of f is differentiable on the interval, and
    otherwise names the first term's kink or sqrt boundary inside it.
    unbounded is True when some term's derivative has no finite supremum on
    the interval within the domain, which happens only where a sqrt term's
    boundary touches the interval: a convex piece's derivative is monotone
    (Rockafellar, Convex Analysis, Thm 24.1), so elsewhere its supremum is
    its value at an end of the interval.
    """
    if isinstance(f, (Constant, LimsupSeminorm, LinearFunctional)):
        return None, False
    if isinstance(f, Scale):
        return _interval_slope(f.inner, x, n, a) if f.lam else (None, False)
    if isinstance(f, Sum):
        parts = [_interval_slope(g, x, n, a) for g in f.terms]
        return next((why for why, _ in parts if why), None), any(unb for _, unb in parts)
    if isinstance(f, SeparableSeries):
        u, v = f.inner, x.coordinate(n)
        if f.weight.coordinate(n) == 0.0:
            return None, False
        if u.kind is ScalarKind.ABS:
            return (None if abs(v) >= a else f"kink of |.| inside the interval at n={n}"), False
        if u.kind is not ScalarKind.NEG_SQRT or u.c.coordinate(n) == 0.0:
            return None, False
        lo = v - a
        return (None if lo >= 0.0 else f"sqrt boundary inside the interval at n={n}"), lo <= 0.0
    raise TypeError(f"unknown function expression {type(f).__name__}")


def test_walk_interval_matches_the_interval_walk_it_replaced():
    compared = 0
    answers = set()
    # coordinates on the interval ends, where only <= or < decides
    ends = Point([0.5, 1.0, -3.0, 0.0], (TailRule.geometric(3.0, 0.5),))
    on_ends = [(sqrt_objective(0.5), ends),
               (SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_()), ends)]
    for f, x in list(instances()) + on_ends:
        walk = basis_partials(f, x)
        for n in range(1, 9):
            for a in (1e-3, 0.5, 1.0, 3.0):
                got = outcome(lambda: walk.interval(n, a))
                assert got == outcome(lambda: _interval_slope(f, x, n, a)), (f, x, n, a)
                compared += 1
                answers.add((got[1][0] is None, got[1][1]))
    # differentiable, kinked, and kinked with an unbounded slope all occur
    assert answers >= {(True, False), (False, False), (False, True)}
    assert compared > 1500


# The three walks that funcs.basis_partials' value, series_line and limsup
# answers replaced, kept verbatim as their references.
def _evaluate(f: FunctionExpr, x: Point, tol: float) -> SeriesValue:
    if isinstance(f, Constant):
        return SeriesValue(f.c, 0.0, 0)
    if isinstance(f, LimsupSeminorm):
        return SeriesValue(limsup_abs(x), 0.0, 0)
    if isinstance(f, LinearFunctional):
        return pair(f.p, x, tol)
    if isinstance(f, SeparableSeries):
        return funcs._evaluate_separable(f, x, tol)
    if isinstance(f, Scale):
        if f.lam == 0.0:
            return SeriesValue(0.0, 0.0, 0)
        sub = _evaluate(f.inner, x, tol / max(f.lam, 1.0))
        if math.isinf(sub.value):
            return SeriesValue(math.inf, 0.0, sub.terms_used)
        return SeriesValue(f.lam * sub.value, f.lam * sub.error_bound, sub.terms_used)
    if isinstance(f, Sum):
        if not f.terms:
            return SeriesValue(0.0, 0.0, 0)
        budget = tol / len(f.terms)
        total, err, used = 0.0, 0.0, 0
        hit_inf = False
        for g in f.terms:
            sv = _evaluate(g, x, budget)
            used += sv.terms_used
            if math.isinf(sv.value):
                hit_inf = True
            else:
                total += sv.value
                err += sv.error_bound
        if hit_inf:
            return SeriesValue(math.inf, 0.0, used)
        return SeriesValue(total, err, used)
    raise TypeError(f"unknown function expression {type(f).__name__}")


_NO_DELTA = SeriesValue(0.0, 0.0, 0)


def _no_delta(t: float, tol: float) -> SeriesValue:
    return _NO_DELTA


def _delta_line(f: FunctionExpr, x: Point, h: Point):
    if isinstance(f, Constant):
        return _no_delta
    if isinstance(f, LimsupSeminorm):
        cx = tail_limit(x)
        ch = tail_limit(h)
        base = abs(cx)
        return lambda t, tol: SeriesValue(abs(cx + t * ch) - base, 0.0, 0)
    if isinstance(f, LinearFunctional):
        paired = pairing(f.p, h)
        sums: dict[float, SeriesValue] = {}

        def linear(t: float, tol: float) -> SeriesValue:
            u = tol / max(abs(t), 1.0)
            sv = sums.get(u)
            if sv is None:
                sv = sums[u] = paired(u)
            return SeriesValue(t * sv.value, abs(t) * sv.error_bound, sv.terms_used)

        return linear
    if isinstance(f, Scale):
        if f.lam == 0.0:
            return _no_delta
        lam = f.lam
        share = max(lam, 1.0)
        inner = _delta_line(f.inner, x, h)

        def scaled(t: float, tol: float) -> SeriesValue:
            sv = inner(t, tol / share)
            return SeriesValue(lam * sv.value, lam * sv.error_bound, sv.terms_used)

        return scaled
    if isinstance(f, Sum):
        if not f.terms:
            return _no_delta
        parts = [_delta_line(g, x, h) for g in f.terms]
        count = len(parts)

        def summed(t: float, tol: float) -> SeriesValue:
            budget = tol / count
            total, err, used = 0.0, 0.0, 0
            for part in parts:
                sv = part(t, budget)
                total += sv.value
                err += sv.error_bound
                used += sv.terms_used
            return SeriesValue(total, err, used)

        return summed
    if isinstance(f, SeparableSeries):
        return _reference_separable_delta_line(f, x, h)
    raise TypeError(f"unknown function expression {type(f).__name__}")


@dataclass(frozen=True)
class _Shape:
    lam: float  # the total nonnegative coefficient of its limsup parts
    affine: bool  # built from constants, linear functionals, linear-piece series


def _limsup_weight(f: FunctionExpr) -> _Shape:
    """The expression's limsup weight and whether it is affine, in one walk."""
    if isinstance(f, LimsupSeminorm):
        return _Shape(1.0, False)
    if isinstance(f, Scale):
        inner = _limsup_weight(f.inner)
        return _Shape(f.lam * inner.lam, inner.affine)
    if isinstance(f, Sum):
        parts = [_limsup_weight(g) for g in f.terms]
        return _Shape(sum(p.lam for p in parts), all(p.affine for p in parts))
    if isinstance(f, SeparableSeries):
        return _Shape(0.0, f.inner.kind is ScalarKind.LINEAR)
    return _Shape(0.0, True)


def built(make):
    """(result, None), or (None, the exception) when building raises."""
    try:
        return make(), None
    except Exception as exc:  # the exception itself is part of the outcome
        return None, (type(exc).__name__, str(exc))


ZERO_SCALED_SQRT = Scale(0.0, SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.neg_sqrt(2.0)))


def node_cases():
    """(f, x, h) for the nodes the merge must keep: an empty sum, a zero
    scale over a sqrt leaf at a point outside its domain, and a limsup
    along a direction with a constant tail."""
    outside = Point([-1.0, 0.5], (TailRule.geometric(1.0, 0.5),))
    h = Point([1.0, -0.5], (TailRule.const(0.25),))
    limsup_x = Point([0.5], (TailRule.const(-0.75), TailRule.geometric(1.0, 0.5)))
    return [(Sum(()), outside, h), (ZERO_SCALED_SQRT, outside, h), (LimsupSeminorm(), limsup_x, h)]


def test_walk_answers_match_the_three_walks_they_replaced():
    cases = [
        (f, x, random_direction(random.Random(4000 + i), summable=True))
        for i, (f, x) in enumerate(instances())
    ] + node_cases()
    compared = raised = 0
    changed, affinities = [], set()
    for f, x, h in cases:
        walk = basis_partials(f, x)
        for tol in (1e-6, 1e-12, 1e-16):
            got = outcome(lambda: certified(walk.value(tol)))
            assert got == outcome(lambda: _evaluate(f, x, tol)), (f, x, tol)
            raised += got[0] == "raise"
        line, err = built(lambda: walk.series_line(h))
        want_line, want_err = built(lambda: _delta_line(f, x, h))
        assert err == want_err, (f, x, h)
        if line is not None:
            for t in ladder(steps=12):
                assert step_record(line, t) == step_record(want_line, t), (f, x, h, t)
                compared += 1
        shape = _limsup_weight(f)
        # repr tells the int 0 of an empty sum from 0.0
        assert repr(walk.limsup_weight()) == repr(shape.lam), (f, x)
        affinities.add(walk.affine())
        if walk.affine() != shape.affine:
            changed.append(f)
    # the one intended change: a zero scale is the flat walk, so it is affine
    assert changed == [ZERO_SCALED_SQRT]
    assert affinities == {True, False}
    assert compared > 1000 and raised > 0
    # the node cases' answers, spelled out
    (empty, outside, h), (zero, _, _), (limsup, limsup_x, _) = node_cases()
    assert repr(basis_partials(empty, outside).limsup_weight()) == "0"
    for f in (empty, zero):
        walk = basis_partials(f, outside)
        assert walk.value(1e-12) == SeriesValue(0.0, 0.0, 0)
        assert walk.series_line(h)(-1e-2, 1e-15) == SeriesValue(0.0, 0.0, 0)
    with pytest.raises(DomainViolation):  # the sqrt leaf alone is outside its domain
        evaluate(zero.inner, outside)
    # lim x_n = -0.75 and lim h_n = 0.25: |-0.75 + t/4| - 0.75
    line = basis_partials(limsup, limsup_x).series_line(h)
    assert line(1.0, 1e-12) == SeriesValue(-0.25, 0.0, 0)
    assert line(-1.0, 1e-12) == SeriesValue(0.25, 0.0, 0)
    assert basis_partials(limsup, limsup_x).value(1e-12) == SeriesValue(0.75, 0.0, 0)


# The tail sum and the majorant doubling loop of certified_series as they
# were before each doubling search summed every majorant term once (one
# fresh tail sum per restart), kept as the reference for symseq.tail_sums
# and seqspace's region and head steps.
def _reference_tail_sum(seq: SymSeq, start: int, tol: float) -> tuple[float, float, int]:
    label = classify(seq)
    if label != SUMMABLE:
        raise ValueError(label)
    live = [t for t in seq.terms if t.coef != 0]
    if not live:
        return 0.0, 0.0, 0
    budget = tol / (2 * len(live))
    value = 0.0
    err = 0.0
    used = 0
    for t in live:
        c, r, _, neg_s = t._floats
        s = -neg_s
        if abs(r) < 1.0:
            k = max(start - 1, _geometric_tail_start(c, r, -s, budget))
            part = sum(t.value_at(n) for n in range(start, k + 1))
            q = (1.0 + abs(r)) / 2.0
            rem = abs(c) * abs(r) ** (k + 1) * float(k + 1) ** (-s) / (1.0 - q)
            value += part
            err += rem + abs(part) * (k - start + 2) * 2.2e-16
            used = max(used, k - start + 1)
        elif r > 0:
            # ratio == 1, s > 1: explicit head + Euler-Maclaurin tail
            k = max(start + 15, 64)
            part = sum(t.value_at(n) for n in range(start, k + 1))
            tail, terr = _power_tail(s, 0.0, k)
            value += part + c * tail
            err += abs(c) * terr + abs(part) * (k - start + 2) * 2.2e-16
            used = max(used, k - start + 1)
        else:
            # ratio == -1, s > 1: split into even/odd power tails
            k = max(start + 15, 64)
            if k % 2 == 1:
                k += 1
            part = sum(t.value_at(n) for n in range(start, k + 1))
            # even n = 2m > k  =>  m > k/2 ; odd n = 2m-1 > k  =>  m > k/2
            half = k // 2
            ev, e1 = _power_tail(s, 0.0, half)
            od, e2 = _power_tail(s, -0.5, half)
            tail = (2.0 ** (-s)) * (ev - od)
            value += part + c * tail
            err += abs(c) * (2.0 ** (-s)) * (e1 + e2)
            err += abs(part) * (k - start + 2) * 2.2e-16
            used = max(used, k - start + 1)
    return value, err, used


def _reference_majorant_series(term_at, tail_start: int, tol: float, majorant: SymSeq) -> SeriesValue:
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if classify(majorant) != SUMMABLE:
        raise NoMajorant(f"series majorant is {classify(majorant)}")
    k = tail_start - 1
    while True:
        mval, merr, _ = _reference_tail_sum(majorant, k + 1, tol / 4)
        if mval + merr <= tol / 2 or not majorant.terms:
            break
        k = max(2 * k, 16)
        if k > _HEAD_BUDGET:
            raise NoMajorant("majorant decays too slowly to certify")
    head = sum(term_at(n) for n in range(1, k + 1))
    err = (mval + merr) + abs(head) * (k + 1) * _ULP
    return SeriesValue(head, err, k)


MAJORANTS = {
    "geometric +r": SymSeq.term(0.75, 0.5, 0),
    "geometric -r": SymSeq.term(1.5, -0.9, 0),
    "ratio 1, npow 2": SymSeq.term(2.0, 1.0, 2),
    "ratio -1, npow 2": SymSeq.term(0.5, -1.0, 2),
    "mixed": SymSeq.term(Fraction(1, 3), Fraction(9, 10), 0)
    + SymSeq.term(1.0, 1.0, 3)
    + SymSeq.term(-0.25, -1.0, 2)
    + SymSeq.term(2.0, -0.25, 0),
    # a float zero coefficient survives canonical form; the sums skip it
    "zero coefficient": SymSeq((SymTerm(0.0, 0.5, Fraction(0)), SymTerm(1.0, 0.25, Fraction(0)))),
    "empty": SymSeq.zero(),
    "head budget": SymSeq.term(1.0, 1.0, Fraction(101, 100)),
    "divergent": SymSeq.term(1.0, 1, 1),
}
TAIL_STARTS = (1, 3, 17, 40, 130)
SERIES_TOLS = (1e-12, 1e-16, 1e-20, 1e-24, 1e-28)


def test_certified_series_matches_one_tail_sum_per_restart():
    assert MAJORANTS["zero coefficient"].terms[0].coef == 0.0
    seen = set()
    for name, major in MAJORANTS.items():
        def term_at(n):
            return math.sin(n) * major.value_at(n)

        for start in TAIL_STARTS:
            for tol in SERIES_TOLS:
                got = outcome(lambda: certified_series(term_at, start, tol, majorant=major))
                want = outcome(lambda: _reference_majorant_series(term_at, start, tol, major))
                assert got == want, (name, start, tol)
                seen.add(got[0] if got[0] == "value" else got[2])
    assert seen >= {
        "value", "majorant decays too slowly to certify", "series majorant is divergent",
    }


def test_tail_sums_match_a_fresh_tail_sum_at_each_start():
    # starts that rise, repeat, fall back and jump, as the stored runs of
    # term values must survive all of them
    starts = (1, 17, 17, 33, 5, 65, 64, 81, 200, 2)
    for name, seq in MAJORANTS.items():
        for tol in SERIES_TOLS:
            try:
                at = tail_sums(seq, tol)
            except ValueError as exc:
                assert outcome(lambda: _reference_tail_sum(seq, 1, tol)) == (
                    "raise", "ValueError", str(exc)), name
                continue
            for start in starts:
                want = outcome(lambda: _reference_tail_sum(seq, start, tol))
                assert outcome(lambda: at(start)) == want, (name, tol, start)
                assert outcome(lambda: tail_sum(seq, start, tol)) == want, (name, tol, start)


# (term, first index): value_at's branches, the -745 underflow cut (reached
# at n = 324 for |r| = 0.1), the sign of odd powers of a negative ratio,
# r == 0 (1.0 at n = 0 only) and fractional powers of n
TERM_VALUE_CASES = {
    "r = 0": (SymTerm(Fraction(3), Fraction(0), Fraction(0)), 0),
    "r = 0, npow 2": (SymTerm(2.5, 0.0, Fraction(2)), 1),
    "r = 0.1, underflow cut": (SymTerm(Fraction(1, 3), 0.1, Fraction(0)), 0),
    "r = 0.8, npow 1/2": (SymTerm(Fraction(1, 3), 0.8, Fraction(1, 2)), 1),
    "r = -0.1, underflow cut": (SymTerm(-1.25, -0.1, Fraction(0)), 0),
    "r = -0.9, npow 3/2": (SymTerm(-0.7, -0.9, Fraction(3, 2)), 1),
    "r = 1, npow 2": (SymTerm(2.0, 1.0, Fraction(2)), 1),
    "r = -1, npow 101/100": (SymTerm(Fraction(1, 7), -1.0, Fraction(101, 100)), 1),
    "r = 1 - 2^-40": (SymTerm(1e300, 1.0 - 2.0 ** -40, Fraction(0)), 0),
}


@pytest.mark.parametrize("name", sorted(TERM_VALUE_CASES))
def test_term_values_match_value_at(name):
    term, first = TERM_VALUE_CASES[name]
    values = _term_values(term._floats)
    for a, b in ((first, 400), (5, 9), (323, 326), (7, 6)):
        assert bits(values(a, b)) == bits([term.value_at(n) for n in range(a, b + 1)]), (a, b)


def test_series_line_steps_do_not_depend_on_their_order():
    # One line per direction caches each step's majorant region by |t|,
    # tolerance and first explicit index, so a step must give the same
    # bytes as a fresh delta_along whichever steps ran before it: in
    # ladder order, -t before +t, and shuffled at two tolerances per step.
    # Every sqrt case of the pinned ladders is replayed, and every sixth
    # grammar_fuzz direction.  In the case added here the tail of x + t h
    # has the dominant coefficient 1 - 95 t, so its certified sign starts
    # at n = 16 for t = 1e-2 and at n = 4 for t = -1e-2: the first explicit
    # index, and with it the certified region, depends on the sign of t.
    # Its pairing has a tail product, so its sum depends on the tolerance.
    cases = list(ladder_cases())
    fuzz = 3 * 34
    cases = cases[:fuzz:6] + cases[fuzz:]
    cases.append((
        Sum((sqrt_objective(0.5), LinearFunctional(DualPoint([1.0], TailRule.geometric(1.0, 0.9))))),
        Point((), (TailRule.geometric(1.0, 0.5), TailRule.geometric(7.0, 0.25))),
        Point((), (TailRule.geometric(-95.0, 0.5),)),
    ))
    rng = random.Random(7)
    compared = 0
    for f, x, d in cases:
        steps = ladder()
        fresh = {}

        def record(line, t, scale):
            return step_record(lambda t, tol: line(t, tol * scale), t)

        def want(t, scale):
            if (t, scale) not in fresh:
                fresh[t, scale] = record(lambda t, tol: delta_along(f, x, d, t, tol), t, scale)
            return fresh[t, scale]

        half = len(steps) // 2
        interleaved = [t for pair in zip(steps[half:], steps[:half]) for t in pair]
        shuffled = [(t, scale) for t in steps for scale in (1.0, 1e4)]
        rng.shuffle(shuffled)
        for order in ([(t, 1.0) for t in steps], [(t, 1.0) for t in interleaved], shuffled):
            line = basis_partials(f, x).series_line(d)
            for t, scale in order:
                assert record(line, t, scale) == want(t, scale), (f, x, d, t, scale)
                compared += 1
    assert compared > 10_000


def test_one_majorant_region_and_pairing_sum_per_step_size(monkeypatch):
    regions = pairs = 0
    make_region, make_pairing = funcs.majorant_region, funcs.pairing

    def counted_region(*args):
        nonlocal regions
        regions += 1
        return make_region(*args)

    def counted_pairing(p, h):
        paired = make_pairing(p, h)

        def at_tol(tol):
            nonlocal pairs
            pairs += 1
            return paired(tol)

        return at_tol

    monkeypatch.setattr(funcs, "majorant_region", counted_region)
    monkeypatch.setattr(funcs, "pairing", counted_pairing)
    f = Sum((
        SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square()),
        SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_()),
        LinearFunctional(DualPoint([1.0, -2.0], TailRule.const(0.5))),
    ))
    x = Point([0.5, -1.0], (TailRule.geometric(1.0, 0.5),))
    h = Point([1.0, 0.25], (TailRule.geometric(0.8, 0.6),))
    res = quotient_scan(f, x, h)
    sizes = len({abs(t) for t, _ in res.quotients_log})
    assert res.method == "numeric" and sizes > 1
    assert {t > 0 for t, _ in res.quotients_log} == {True, False}
    assert 0 < regions <= 2 * sizes
    assert 0 < pairs <= sizes


# The series line as it was when each step size built its majorant from
# exact SymSeq products, with the head step it summed through, kept
# verbatim as the reference for funcs._separable_delta_line, its
# _line_majorant and the table-backed head sum.
def _reference_separable_delta_line(
    f: SeparableSeries, x: Point, h: Point
) -> Callable[[float, float], SeriesValue]:
    weight, inner = f.weight, f.inner
    kind = inner.kind
    w_abs = weight.abs_terms()
    h_unit = h.tail.abs_terms()
    x_abs = x.tail.abs_terms()
    # The majorant of the step's difference terms, given |h tail| * |t|;
    # t-free factors and products are formed once, the rest keeps the
    # per-step grouping.
    if kind is ScalarKind.ABS:
        def majorant(h_abs: SymSeq) -> SymSeq:
            return w_abs * h_abs
    elif kind is ScalarKind.LINEAR:
        wb = w_abs * inner.b.abs_terms()

        def majorant(h_abs: SymSeq) -> SymSeq:
            return wb * h_abs
    elif kind is ScalarKind.SQUARE:
        x2 = x_abs.scaled(2)

        def majorant(h_abs: SymSeq) -> SymSeq:
            return w_abs * h_abs * (x2 + h_abs)
    elif kind is ScalarKind.AFFINE_QUAD:
        x2 = x_abs.scaled(2)
        a_abs = inner.a.abs_terms()
        b_abs = inner.b.abs_terms()

        def majorant(h_abs: SymSeq) -> SymSeq:
            return w_abs * (a_abs * h_abs * (x2 + h_abs) + b_abs * h_abs)
    else:
        # |sqrt(u+d) - sqrt(u)| <= sqrt(|d|) on the nonnegative domain
        wc = w_abs * inner.c.abs_terms()

        def majorant(h_abs: SymSeq) -> SymSeq:
            return wc * funcs._sqrt_majorant(h_abs)

    # Outside sqrt pieces the domain rank of x + t h is its tail start,
    # max(x.tail_start, h.tail_start), whatever t is.
    start = max(x.tail_start, h.tail_start)
    sqrt_piece = kind is ScalarKind.NEG_SQRT
    x_rank: Optional[int] = None
    # the n-th weighted term's line, t -> w_n * (u_n(x_n + t h_n) - u_n(x_n)),
    # for n = 1, 2, ... as far as the explicit regions of the steps so far
    # have reached, up to a bound that caps the memory of slowly converging
    # majorants (entry 0 unused)
    table: list = [None]
    # The certified region of each step's majorant, keyed by (|t|, tol,
    # first): the majorant depends on |t| alone, so the two sides of a
    # quotient scan share one majorant and one doubling search per step
    # size, and only the head sum runs per sign of t.
    regions: dict[tuple[float, float, int], tuple[int, float]] = {}

    def step(t: float, tol: float) -> SeriesValue:
        nonlocal x_rank
        first = start
        if sqrt_piece:
            xt = point_axpy(x, t, h)
            if x_rank is None:
                # raises afresh at every step while x is outside the domain
                x_rank = funcs._separable_domain_rank(f, x)
            first = max(x_rank, funcs._separable_domain_rank(f, xt), start)
        key = (abs(t), tol, first)
        region = regions.get(key)
        if region is None:
            major = majorant(h_unit.scaled(abs(t)))
            if classify(major) != SUMMABLE:
                raise NoMajorant("difference terms have no summable majorant")
            region = regions[key] = majorant_region(major, first, tol)

        def term_at(n: int) -> float:
            if n < len(table):
                return table[n](t)
            term = inner.line(n, x.coordinate(n), weight.coordinate(n), h.coordinate(n))
            if n == len(table) and n <= funcs._TABLE_LIMIT:
                table.append(term)
            return term(t)

        return _reference_head_sum(term_at, region)

    return step


def _reference_head_sum(term_at: Callable[[int], float], region: tuple[int, float]) -> SeriesValue:
    """The head step of :func:`certified_series`: sum term_at(n) over the
    explicit region (k, bound) of :func:`majorant_region`, with its
    remainder bound and the head's rounding as the error."""
    k, bound = region
    head = sum(term_at(n) for n in range(1, k + 1))
    err = bound + abs(head) * (k + 1) * _ULP
    return SeriesValue(head, err, k)


def separable_leaves(f: FunctionExpr):
    """The separable leaves of an expression, through sums and scalings."""
    if isinstance(f, SeparableSeries):
        yield f
    elif isinstance(f, Scale):
        yield from separable_leaves(f.inner)
    elif isinstance(f, Sum):
        for g in f.terms:
            yield from separable_leaves(g)


def line_edge_cases():
    """(leaf, x, h) for the forms a line's majorant can take beyond the
    sampled ones: x and h tails that share (ratio, npow) keys, so that
    2|x| + |h| |t| merges a constant with a multiple of |t|, under a square
    and an affine quadratic; zero weights, which leave no terms; a weight
    with ratio 0; and sqrt leaves, whose majorant is still formed per step
    size."""
    x = Point([0.5, -1.0], (TailRule.geometric(1.0, 0.5), TailRule.harmonic(-0.25)))
    h = Point([1.0, 0.25], (
        TailRule.geometric(-0.3, 0.5), TailRule.harmonic(0.5), TailRule.geometric(0.2, 0.9),
    ))
    quad = ScalarConvex.affine_quad(TailRule.geometric(2.0, 0.5), TailRule.harmonic(-1.0))
    leaves = [
        SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square()),
        SeparableSeries(TailRule.const(1.0), quad),
        SeparableSeries(TailRule.geometric(3.0, 0.75), quad),
        SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.abs_()),
        SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.linear(TailRule.harmonic(2.0))),
        SeparableSeries(TailRule.const(0.0), ScalarConvex.square()),
        SeparableSeries(TailRule.geometric(-0.0, 0.5), quad),
        # a zero ratio, whose terms vanish from n = 1 on
        SeparableSeries(TailRule.geometric(2.0, 0.0), ScalarConvex.square()),
    ]
    cases = [(leaf, x, h) for leaf in leaves]
    cases += [(leaf, x, x) for leaf in leaves[:3]]
    positive = Point([0.001, 0.3], (TailRule.geometric(1.0, 0.25),))
    for leaf in separable_leaves(sqrt_objective(0.5)):
        cases.append((leaf, positive, Point([-1.0], (TailRule.geometric(0.5, 0.5),))))
        cases.append((leaf, positive, h))
    return cases


def fuzz_line_cases(seeds):
    """(leaf, x, h) for every separable leaf of the grammar_fuzz instances,
    along one summable and one non-summable direction each."""
    for seed in seeds:
        _, f, x = fuzz_instance(seed)
        rng = random.Random(20_000 + seed)
        directions = [random_direction(rng, summable=True), random_direction(rng, summable=False)]
        for leaf in separable_leaves(f):
            for h in directions:
                yield leaf, x, h


def seq_record(seq: SymSeq):
    """A sequence's terms in order, exactly (repr tells a Fraction from a
    float), and its exact flag."""
    return seq.exact, tuple((repr(t.coef), repr(t.ratio), repr(t.npow)) for t in seq.terms)


def test_line_majorant_is_the_per_step_product_at_every_step_size(monkeypatch):
    # The reference builds each step size's majorant afresh and classifies
    # it at once; capturing what it classifies gives the per-step product,
    # and the step need not go on.
    products = []
    label_of = classify

    class Captured(Exception):
        pass

    def capture(seq):
        products.append(seq)
        raise Captured

    monkeypatch.setitem(globals(), "classify", capture)
    # every size of the quotient ladder on the edge cases, every eighth on
    # the sampled leaves, and a few sizes no ladder takes
    sizes = sorted({abs(t) for t in ladder()})
    extra = [0.0, 0.75, 1.0, 3.0]
    cases = [(case, sizes + extra) for case in line_edge_cases()]
    cases += [(case, sizes[::8] + extra) for case in fuzz_line_cases(range(300))]
    compared = mixed = 0
    labels = set()
    for (leaf, x, h), sizes in cases:
        ref = _reference_separable_delta_line(leaf, x, h)
        for tau in sizes:
            products.clear()
            try:
                ref(tau, 1e-12)
            except Captured:
                pass
            except DomainViolation:
                # a sqrt piece's step that leaves the domain forms no majorant
                assert leaf.inner.kind is ScalarKind.NEG_SQRT
                continue
            (want,) = products
            got = funcs._line_majorant(leaf, x, h, tau)
            assert seq_record(got) == seq_record(want), (leaf, x, h, tau)
            compared += 1
            if not tau:
                assert not want.terms
                continue
            assert label_of(got) == label_of(want)
            labels.add(label_of(want))
        # a term whose coefficient has parts of degree one and two in |t|
        one, two = funcs._line_majorant(leaf, x, h, 1.0), funcs._line_majorant(leaf, x, h, 2.0)
        mixed += any(b.coef not in (2 * a.coef, 4 * a.coef) for a, b in zip(one.terms, two.terms))
    assert labels == {SUMMABLE, "divergent"}
    assert compared > 8_000 and mixed > 0


def lockstep(compared: list):
    """funcs._separable_delta_line, with every step checked against the
    reference line's on the same direction, exceptions included."""
    make = funcs._separable_delta_line

    def paired(f, x, h):
        line, ref = make(f, x, h), _reference_separable_delta_line(f, x, h)

        def step(t: float, tol: float) -> SeriesValue:
            want = outcome(lambda: ref(t, tol))
            try:
                sv = line(t, tol)
            except Exception as exc:
                assert ("raise", type(exc).__name__, str(exc)) == want, (f, x, h, t, tol)
                raise
            assert ("value", bits(sv)) == want, (f, x, h, t, tol)
            compared.append(t)
            return sv

        return step

    return paired


def test_series_line_steps_match_the_reference_line(monkeypatch):
    compared: list = []
    monkeypatch.setattr(funcs, "_separable_delta_line", lockstep(compared))
    # the pinned quotient ladders, and the edge cases along the same ladder
    for f, x, d in ladder_cases():
        line = basis_partials(f, x).series_line(d)
        for t in ladder():
            step_record(line, t)
    for leaf, x, h in line_edge_cases():
        line = basis_partials(leaf, x).series_line(h)
        for t in ladder():
            step_record(line, t)
    on_ladders = len(compared)
    # every step of the reference scans along gateaux_detect's validation
    # directions, which its directional derivatives answer in closed form
    def scanned(f, x, h):
        return quotient_scan(f, x, h, ScanOptions())

    monkeypatch.setattr(certify, "dir_deriv", scanned)
    for seed in range(300):
        space, f, x = fuzz_instance(seed)
        outcome(lambda: gateaux_detect(f, space, x, CertifyOptions()))
    assert on_ladders > 10_000 and len(compared) - on_ladders > 20_000


def test_a_square_line_forms_one_majorant_per_step_size(monkeypatch):
    sizes = []
    make = funcs._line_majorant

    def counted(f, x, h, tau):
        sizes.append(tau)
        return make(f, x, h, tau)

    monkeypatch.setattr(funcs, "_line_majorant", counted)
    f = SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square())
    x = Point([0.5, -1.0], (TailRule.geometric(1.0, 0.5),))
    h = Point([1.0, 0.25], (TailRule.geometric(0.8, 0.6),))
    line = basis_partials(f, x).series_line(h)
    assert not sizes
    for t in ladder():
        line(t, abs(t) * 1e-13)
    # each of the 41 step sizes forms its majorant once, shared by t and -t
    assert sorted(sizes) == sorted({abs(t) for t in ladder()}) and len(sizes) == 41
