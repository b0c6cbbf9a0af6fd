"""Nine headline behaviors, one test each.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output of a failing run), so the suite doubles as a checklist:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from seqcert.certify import (
    CertifyOptions,
    SetDescriptor,
    Verdict,
    certify_min,
    check_psc,
    gateaux_detect,
    kkt_certify,
)
from seqcert.derivative import dir_deriv_profile
from seqcert.funcs import (
    Constant,
    DirStatus,
    LimsupSeminorm,
    LinearFunctional,
    ScalarConvex,
    SeparableSeries,
    Sum,
    analytic_dir_deriv,
    evaluate,
)
from seqcert.reduce import build_reduced, minimize_reduced
from seqcert.sampling import random_point, rng_from_seed
from seqcert.seqspace import (
    DualPoint,
    Point,
    SpaceDescriptor,
    TailRule,
    basis_vector,
)

from quotient_scan import quotient_scan

BETA = 0.5
WHOLE = SetDescriptor.whole_space()
CONE = SetDescriptor.positive_cone_ell1()


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {label}")
        raise
    print(f"criterion {num}: PASS  {label}  ({time.perf_counter() - t0:.2f}s)")


def weighted_quad_with_drift():
    # sum_n beta^n (x_n^2 - x_n/n) plus the limsup seminorm; minimum at (1/(2n))
    return Sum(
        (
            LimsupSeminorm(),
            SeparableSeries(
                TailRule.geometric(1.0, BETA),
                ScalarConvex.affine_quad(1.0, TailRule.harmonic(-1.0)),
            ),
        )
    )


def half_harmonic():
    return Point([], (TailRule.harmonic(0.5),))


def cone_objective():
    # sum_n x_n - 2 sum_n beta^n sqrt(x_n); minimum at (beta^(2n)) on the cone
    return Sum(
        (
            SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0)),
            SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.neg_sqrt(2.0)),
        )
    )


def cone_anchor():
    return Point([], (TailRule.geometric(1.0, BETA * BETA),))


def vanishing_derivative_trap():
    # limsup + sum_n beta^n (x_n^2 - 2 x_n); every basis derivative vanishes
    # at the all-ones point, which is still not a minimizer
    return Sum(
        (
            LimsupSeminorm(),
            SeparableSeries(
                TailRule.geometric(1.0, BETA), ScalarConvex.affine_quad(1.0, -2.0)
            ),
        )
    )


def l1_norm():
    return SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_())


def test_criterion_1_certified_minimum_with_exact_derivatives():
    with criterion(1, "minimum certified, basis derivatives exactly zero"):
        t0 = time.perf_counter()
        f = weighted_quad_with_drift()
        x_star = half_harmonic()
        cert = certify_min(f, WHOLE, x_star, CertifyOptions())
        assert cert.verdict is Verdict.HOLDS
        assert cert.grade.render() == "analytic_all_n"
        for n in (1, 2, 7, 33, 64):
            dv = analytic_dir_deriv(f, x_star, n)
            assert dv.status is DirStatus.EXISTS
            assert dv.value == 0.0  # exact, not just small
        # the reference quotient scan along each basis direction
        for res in (quotient_scan(f, x_star, basis_vector(n)) for n in range(1, 65)):
            assert res.exists
            assert abs(res.value) < 1e-8
        assert cert.evidence["f_at_anchor"] == pytest.approx(-0.145560, abs=1e-5)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_reduction_oracle_agrees_on_truncations():
    with criterion(2, "reduced minimizers match anchored truncations"):
        f = weighted_quad_with_drift()
        x_star = half_harmonic()
        ref = evaluate(f, x_star)
        for k in (1, 2, 4, 8):
            prob = build_reduced(f, WHOLE, x_star, k)
            y, val, _ = minimize_reduced(prob)
            for i, yi in enumerate(y, start=1):
                assert abs(yi - 0.5 / i) <= 1e-6
            assert abs(val.value - ref.value) <= 1e-6
            # same reduced objective from a perturbed start (anchor shares
            # the tail past k): the descent must come back
            bumps = [0.5 / i + (0.3 if i % 2 else -0.3) for i in range(1, k + 1)]
            pert = Point(bumps, x_star.tail)
            y2, val2, _ = minimize_reduced(build_reduced(f, WHOLE, pert, k))
            for i, yi in enumerate(y2, start=1):
                assert abs(yi - 0.5 / i) <= 1e-6
            assert abs(val2.value - ref.value) <= 1e-6


def test_criterion_3_cone_constrained_minimum():
    with criterion(3, "constrained minimum on the summable positive cone"):
        f = cone_objective()
        x_star = cone_anchor()
        cert = certify_min(f, CONE, x_star, CertifyOptions())
        assert cert.verdict is Verdict.HOLDS
        assert cert.evidence["f_at_anchor"] == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert cert.evidence["qualification"]["grade"] == "analytic_all_n"
        assert cert.evidence["psc"]["grade"] == "analytic_all_n"
        ref = evaluate(f, x_star)
        for k in (1, 2, 4, 8):
            _, val, _ = minimize_reduced(build_reduced(f, CONE, x_star, k))
            assert abs(val.value - ref.value) <= 1e-6
            bumps = [BETA ** (2 * i) * 1.8 for i in range(1, k + 1)]
            _, val2, _ = minimize_reduced(
                build_reduced(f, CONE, Point(bumps, x_star.tail), k)
            )
            assert abs(val2.value - ref.value) <= 1e-6


def test_criterion_4_vanishing_derivatives_without_psc_fail():
    with criterion(4, "zero basis derivatives disproved by a probe"):
        g = vanishing_derivative_trap()
        ones = Point([], (TailRule.const(1.0),))
        half = Point([], (TailRule.const(0.5),))
        cert = certify_min(g, WHOLE, ones, CertifyOptions(), probes=(half,))
        assert cert.verdict is Verdict.FAILS
        assert cert.witness["f_at_anchor"] == pytest.approx(0.0, abs=1e-9)
        assert cert.witness["f_at_probe"] == pytest.approx(-0.25, abs=1e-9)
        psc = check_psc(g, ones)
        assert psc.verdict is Verdict.FAILS
        w = psc.witness
        # along anchored truncations of the zero point the value stays near
        # the anchor's limsup, strictly above f at the probe itself
        assert w["limsup_at_anchor"] == pytest.approx(1.0, abs=1e-12)
        assert w["limsup_at_probe"] == pytest.approx(0.0, abs=1e-12)
        assert w["f_at_probe"] == pytest.approx(0.0, abs=1e-9)
        for row in w["f_along_truncations"]:
            assert row["f_at_truncation"] > w["f_at_probe"] + 0.9


def test_criterion_5_limsup_vanishing_profile_but_not_differentiable():
    with criterion(5, "flat basis profile, witnessed non-differentiability"):
        p = LimsupSeminorm()
        rng = rng_from_seed(20260819)
        for _ in range(5):
            x = random_point(rng)
            profile = dir_deriv_profile(p, x, 64)
            for res in profile:
                assert res.exists
                assert res.value == 0.0
        zero = Point.zero()
        basis_only, _ = gateaux_detect(p, SpaceDescriptor.ellinf(), zero, CertifyOptions())
        assert basis_only.verdict is Verdict.INCONCLUSIVE
        ones = Point([], (TailRule.const(1.0),))
        refuted, _ = gateaux_detect(
            p, SpaceDescriptor.ellinf(), zero, CertifyOptions(), witness_directions=(ones,)
        )
        assert refuted.verdict is Verdict.FAILS
        assert refuted.witness["left"] == pytest.approx(-1.0, abs=1e-7)
        assert refuted.witness["right"] == pytest.approx(1.0, abs=1e-7)


def _nonzero_point(rng):
    m = rng.randint(0, 4)
    prefix = [rng.choice([-1, 1]) * rng.uniform(0.3, 2.0) for _ in range(m)]
    tail = TailRule.geometric(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.7))
    return Point(prefix, (tail,))


def test_criterion_6_l1_norm_kinks_exactly_at_zero_coordinates():
    with criterion(6, "norm smooth iff no coordinate vanishes"):
        f = l1_norm()
        space = SpaceDescriptor.ell1()
        rng = rng_from_seed(9)
        for _ in range(10):
            x = _nonzero_point(rng)
            cert, deriv = gateaux_detect(f, space, x, CertifyOptions())
            assert cert.verdict is Verdict.HOLDS, x
            assert deriv is not None
        for _ in range(10):
            x = _nonzero_point(rng)
            slot = rng.randint(1, len(x.prefix) + 1)
            prefix = list(x.prefix)
            if slot <= len(prefix):
                prefix[slot - 1] = 0.0
            else:
                prefix.append(0.0)
                slot = len(prefix)
            broken = Point(prefix, x.tail)
            cert, deriv = gateaux_detect(f, space, broken, CertifyOptions())
            assert cert.verdict is Verdict.FAILS, broken
            assert cert.witness["n"] == slot
            assert deriv is None


def test_criterion_7_assembled_derivative_matches_directional_limits():
    with criterion(7, "assembled functional reproduces directional limits"):
        f = l1_norm()
        space = SpaceDescriptor.ell1()
        rng = rng_from_seed(9)
        holds_points = [_nonzero_point(rng) for _ in range(10)]
        for x in holds_points:
            cert, deriv = gateaux_detect(f, space, x, CertifyOptions())
            assert cert.verdict is Verdict.HOLDS
            for _ in range(5):
                # direction tail decays faster than any sampled point tail,
                # so no |x_n + t h_n| changes sign at the sampled steps and
                # the finite differences converge at full rate; directions
                # that dominate the tail make the quotient converge too
                # slowly for a 1e-6 numeric certificate (sublinear in t)
                m = rng.randint(0, 4)
                head = [rng.choice([-1, 1]) * rng.uniform(0.3, 2.0) for _ in range(m)]
                tail = TailRule.geometric(
                    rng.choice([-1, 1]) * rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.15)
                )
                h = Point(head, (tail,))
                applied = deriv.apply(h)
                direct = quotient_scan(f, x, h)
                assert direct.exists
                assert abs(applied.value - direct.value) < 1e-6


def test_criterion_8_kkt_certificate_and_constrained_oracle():
    with criterion(8, "multiplier certificate with constrained cross-check"):
        f = SeparableSeries(TailRule.geometric(1.0, BETA), ScalarConvex.square())
        g1 = Sum((Constant(1.0), LinearFunctional(DualPoint([-1.0], ()))))
        x_star = basis_vector(1)
        cert = kkt_certify(f, [g1], [], WHOLE, x_star, [2 * BETA], [], CertifyOptions())
        assert cert.verdict is Verdict.HOLDS
        # brute-force over the constraint region as a coordinate box
        region = SetDescriptor.box(lower=Point([1.0], ()), upper=None, bound_count=1)
        for k in (1, 2, 4):
            bumps = [1.5] + [0.4] * (k - 1)
            _, val, _ = minimize_reduced(build_reduced(f, region, Point(bumps, ()), k))
            assert abs(val.value - 0.5) <= 1e-6
        wrong = kkt_certify(f, [g1], [], WHOLE, x_star, [0.0], [], CertifyOptions())
        assert wrong.verdict is Verdict.INCONCLUSIVE


def test_criterion_9_property_suite_is_green_and_fast():
    with criterion(9, "randomized invariants all green inside the budget"):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[1],
            timeout=120,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 60.0
