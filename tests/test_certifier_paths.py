"""One hand-built input per return or raise site of the five certifiers.

certify_min, subgradient_test, gateaux_detect, series_differentiate and
kkt_certify each end in a handful of places: a verdict with its own reason,
grade, witness and evidence, or an exception.  CASES reaches every one of
them with a small input, and PATH_DIGESTS pins the sha256 of what each
call gives: the certificate's canonical JSON (sort_keys, evidence
included), followed for gateaux_detect and series_differentiate by the
repr of the derivative or the values returned beside it, or the (type,
message) of the exception raised.  The digests were recorded before the
certifiers' shared hypothesis checks were gathered into one stage each, and
that change reproduced them unchanged.  gateaux/holds_numeric was
re-recorded when dir_deriv stopped scanning quotients: its validation
directions are now answered in closed form, so its three validation gaps
moved from (1.4e-17, 0, 1.4e-17) to (0, 0, 0); every other byte of its
record stayed the same.

One site has no input here: gateaux_detect's INCONCLUSIVE "assembled
derivative disagrees with a direct directional derivative".  Both sides of
that comparison are closed-form sums over the same partials, so no input
of the grammar has been found on which they differ by more than 1e-6.

test_stages_are_looked_up_when_a_certifier_runs counts the calls each
certifier makes to the stages that bench/tracer.py wraps and that
tests/test_certificate_digest.py spies on, through the certify module's
attributes; a certifier that bound a stage when the module was imported
would call past the counting wrapper and read 0.

Float sums differ in their last bits between CPython minor versions, so the
digests hold for the interpreter they were recorded with, CPython 3.11.
"""

import hashlib
import json
import sys

import pytest

from seqcert import certify
from seqcert.certify import (
    CertifyOptions,
    DiagonalFamily,
    ScaledFamily,
    SetDescriptor,
    certify_min,
    gateaux_detect,
    kkt_certify,
    series_differentiate,
    subgradient_test,
)
from seqcert.funcs import (
    Constant,
    LimsupSeminorm,
    LinearFunctional,
    ScalarConvex,
    SeparableSeries,
    Sum,
)
from seqcert.seqspace import DualPoint, Point, SpaceDescriptor, TailRule, basis_vector

OPTS = CertifyOptions()
FEW = CertifyOptions(coords=4)
WHOLE = SetDescriptor.whole_space()
CONE = SetDescriptor.positive_cone_ell1()
RN, ELL1, ELLINF = SpaceDescriptor.rn(), SpaceDescriptor.ell1(), SpaceDescriptor.ellinf()
ZERO = Point.zero()
E1 = basis_vector(1)
ONES = Point([], (TailRule.const(1.0),))


def half(inner):
    """sum 0.5^n inner(x_n)"""
    return SeparableSeries(TailRule.geometric(1.0, 0.5), inner)


SQUARE = half(ScalarConvex.square())
ABS = half(ScalarConvex.abs_())
SQRT = half(ScalarConvex.neg_sqrt(1.0))
# 1 - x_1 <= 0: with SQUARE, e_1 is the minimizer and 1.0 its multiplier
G1 = Sum((Constant(1.0), LinearFunctional(DualPoint([-1.0], ()))))
# limsup |x_n| - 1: feasible at ONES, and not pseudo-semicontinuous there
G_LIMSUP = Sum((Constant(-1.0), LimsupSeminorm()))
# limsup |x_n| + sum 0.5^n (4 x_n^2 - 8 x_n): at ONES every partial is 0
# and the limsup part is not pseudo-semicontinuous, but no default probe
# comes below f(ONES) = -3
LIMSUP_BOWL = Sum((LimsupSeminorm(), half(ScalarConvex.affine_quad(4.0, -8.0))))
# (-0.5)^n + 0.5^n: 0 at odd n, so its sign cannot be certified strict or not
ALTERNATING = Point([], (TailRule.geometric(1.0, -0.5), TailRule.geometric(1.0, 0.5)))
# p_n = 2e-7 (1 - 0.99^n): within the tolerance up to n = 68
LATE_DUAL = DualPoint([], (TailRule.const(2e-7), TailRule.geometric(-2e-7, 0.99)))


def kkt(f=SQUARE, ineq=(G1,), eq=(), s=WHOLE, x=E1, lam=(1.0,), nu=()):
    return lambda: kkt_certify(f, list(ineq), list(eq), s, x, list(lam), list(nu), OPTS)


CASES = {
    # certify_min
    "certify_min/stationarity_fails": lambda: certify_min(SQUARE, WHOLE, E1, OPTS),
    "certify_min/f_not_finite": lambda: certify_min(
        SeparableSeries(TailRule.const(1.0), ScalarConvex.square()), WHOLE, ONES, OPTS
    ),
    "certify_min/probe_fails": lambda: certify_min(ABS, WHOLE, E1, OPTS),
    "certify_min/kink": lambda: certify_min(ABS, WHOLE, ZERO, OPTS),
    "certify_min/qualification": lambda: certify_min(SQUARE, CONE, ZERO, OPTS),
    "certify_min/psc": lambda: certify_min(LIMSUP_BOWL, WHOLE, ONES, OPTS),
    "certify_min/holds": lambda: certify_min(SQUARE, WHOLE, ZERO, OPTS),
    # subgradient_test
    "subgradient/psc": lambda: subgradient_test(LimsupSeminorm(), ONES, DualPoint.zero(), OPTS),
    "subgradient/kink": lambda: subgradient_test(ABS, ZERO, DualPoint.zero(), OPTS),
    "subgradient/holds": lambda: subgradient_test(SQUARE, ZERO, DualPoint.zero(), OPTS),
    "subgradient/head_fails": lambda: subgradient_test(SQUARE, ZERO, DualPoint([1.0], ()), OPTS),
    "subgradient/tail_fails": lambda: subgradient_test(Constant(0.0), ZERO, LATE_DUAL, OPTS),
    # gateaux_detect
    "gateaux/outside_space": lambda: gateaux_detect(SQUARE, ELL1, ONES, OPTS),
    "gateaux/missing_partial": lambda: gateaux_detect(ABS, ELL1, ZERO, OPTS),
    "gateaux/witness_direction": lambda: gateaux_detect(
        LimsupSeminorm(), RN, ZERO, OPTS, witness_directions=(ONES,)
    ),
    "gateaux/not_topological": lambda: gateaux_detect(SQUARE, ELLINF, ZERO, OPTS),
    "gateaux/limsup_part": lambda: gateaux_detect(LimsupSeminorm(), ELL1, ZERO, OPTS),
    "gateaux/no_feasible_step": lambda: gateaux_detect(
        half(ScalarConvex.neg_sqrt(2.0)), ELL1, Point([], (TailRule.geometric(1.0, 0.25),)), OPTS
    ),
    "gateaux/holds_analytic": lambda: gateaux_detect(SQUARE, ELL1, ZERO, OPTS),
    "gateaux/holds_numeric": lambda: gateaux_detect(
        SQRT, RN, Point([], (TailRule.const(1.0), TailRule.geometric(0.5, 0.5))), OPTS
    ),
    # series_differentiate
    "series/bad_radii": lambda: series_differentiate(
        DiagonalFamily(TailRule.geometric(1.0, 0.5), ScalarConvex.square()),
        ZERO, TailRule.const(-1.0), OPTS,
    ),
    "series/diagonal_interval": lambda: series_differentiate(
        DiagonalFamily(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_()), ZERO, opts=OPTS
    ),
    "series/diagonal_missing": lambda: series_differentiate(
        DiagonalFamily(TailRule.geometric(1.0, 0.5), ScalarConvex.abs_()), Point([1.0] * 8),
        opts=FEW,
    ),
    "series/diagonal_holds": lambda: series_differentiate(
        DiagonalFamily(TailRule.geometric(1.0, 0.5), ScalarConvex.square()), ONES, opts=OPTS
    ),
    "series/scaled_missing": lambda: series_differentiate(
        ScaledFamily(TailRule.geometric(1.0, 0.5), ABS), ZERO, opts=OPTS
    ),
    "series/scaled_not_summable": lambda: series_differentiate(
        ScaledFamily(TailRule.harmonic(1.0), SQUARE), ONES, opts=OPTS
    ),
    "series/scaled_flat_base": lambda: series_differentiate(
        ScaledFamily(TailRule.harmonic(1.0), SQUARE), ZERO, opts=OPTS
    ),
    "series/scaled_interval": lambda: series_differentiate(
        ScaledFamily(TailRule.geometric(1.0, 0.5), ABS), ONES, TailRule.const(2.0), OPTS
    ),
    "series/scaled_unbounded": lambda: series_differentiate(
        ScaledFamily(TailRule.geometric(1.0, 0.5), SQRT), ONES, opts=OPTS
    ),
    "series/scaled_holds": lambda: series_differentiate(
        ScaledFamily(TailRule.geometric(1.0, 0.5), SQUARE), ONES, opts=OPTS
    ),
    "series/list_interval": lambda: series_differentiate([SQUARE, ABS], ZERO, opts=OPTS),
    "series/list_missing": lambda: series_differentiate([SQUARE, ABS], Point([1.0] * 8), opts=FEW),
    "series/list_holds": lambda: series_differentiate(
        [SQUARE, Constant(1.0)], Point([0.5]), opts=OPTS
    ),
    # kkt_certify
    "kkt/counts": kkt(lam=()),
    "kkt/not_finite": kkt(lam=(float("nan"),)),
    "kkt/membership_uncertain": kkt(ineq=(), lam=(), s=CONE, x=ALTERNATING),
    "kkt/outside_set": kkt(s=CONE, x=Point([-1.0])),
    "kkt/inequality_violated": kkt(x=ZERO),
    "kkt/equality_violated": kkt(ineq=(), lam=(), eq=(G1,), nu=(1.0,), x=ZERO),
    "kkt/negative_lambda": kkt(lam=(-1.0,)),
    "kkt/negative_nu": kkt(ineq=(), lam=(), eq=(SQUARE,), nu=(-1.0,), x=ZERO),
    "kkt/qualification": kkt(s=CONE),
    "kkt/psc_objective": kkt(f=LimsupSeminorm(), ineq=(), lam=(), x=ONES),
    "kkt/psc_inequality": kkt(ineq=(G_LIMSUP,), lam=(0.5,), x=ONES),
    "kkt/slackness": kkt(x=Point([2.0])),
    "kkt/kink": kkt(f=ABS, ineq=(), lam=(), x=ZERO),
    "kkt/stationarity": kkt(lam=(0.5,)),
    "kkt/holds": kkt(),
}

PATH_DIGESTS = {
    "certify_min/f_not_finite": "0a08abb61c2951edc0760ad41b4e8e106d91e763a49fcd318e301783d3974449",
    "certify_min/holds": "b5fab375cf45ff5900dc1512bdca508531529ea9798c00e5cd30c14866e7ee3b",
    "certify_min/kink": "9133d157aa77cf999d74f7eaea73a968b5cdd53ee20a34bd5f2f401cbbc42a87",
    "certify_min/probe_fails": "725747f311f69fb0171e1a8b0892d3c9c1ae4a14e9b0117dc5e19a04ab233b67",
    "certify_min/psc": "5718dd59d784f0c10ada2803fc6513381d6bb29dd22473351eaef0509887349a",
    "certify_min/qualification": "722d1ce922eb3910f1a4964c2cbcbc6ca994a53464767acde943285c80a12d29",
    "certify_min/stationarity_fails": "b0bc9810b1782710d038002097c91a474ba0684a589a8db0c2640eadc3c2750d",
    "gateaux/holds_analytic": "d91cbe0225a334aac643c33d706209865c5fec81d1d0b7dc79a4d4d0efb00c25",
    "gateaux/holds_numeric": "d73571efd3bd1da532842c771c071113c215f6772389524f4662d9d010876045",
    "gateaux/limsup_part": "6dade574b9dcec286c2a126720925e2ee0b3bd34677b5ce3758865cd791e5a03",
    "gateaux/missing_partial": "8169019fc616cd381b87ae8fde5f201d8be0687ecd7ed2027315a54e505db78a",
    "gateaux/no_feasible_step": "2ef25efcfa205662946d834a333504e2aad98b22f420ba589dcf50bfb5c855be",
    "gateaux/not_topological": "c26fa6d2604d4ff8cb2327ef9653f870da6e52460cee2d82d6aedd1e5d11ee2f",
    "gateaux/outside_space": "d6d826eaaccacb7e7e76215503d39ec6233d24077c14b2d0a3206a4faa44b81f",
    "gateaux/witness_direction": "2d2e0e3fa7780b987458779518dc79c235dc79f546c72c67bae563a3a1d65b9b",
    "kkt/counts": "3345dee8d6bc3ac4c46cdbe5909137ec193c2e5a4feba2834d3f78bc39aa9447",
    "kkt/equality_violated": "60a78c84b6fd591dade29833d9207f852569abd78f94117b1db10091f13c25bc",
    "kkt/holds": "aea5ebd735c2d1cbcce31ced31288997a6a95c9d01aa56d73fc02a3eaea1311c",
    "kkt/inequality_violated": "95feaba785d62c38834c729ea4b990bc262b5c2d4a8191de8fd28c68a58900fa",
    "kkt/kink": "e9466668c6f0958457172ebe35d8e095fc4df481ddf7d0564f3d8d3d0cd60692",
    "kkt/membership_uncertain": "215c5e4f7363ad6a0b2935c71603d5ef70fd9c1d6c8bf6f8184ab0724ba2e6cb",
    "kkt/negative_lambda": "6ee0d16ba4a7da43e6e283d44a9def9a4e1165a1183a3b383c49758f050d1b3c",
    "kkt/negative_nu": "2aed9bae11f7a558b9431dfa0694192ab9ac3915d3b9edb759bbc6771d025b6b",
    "kkt/not_finite": "1b794075b8ac407d88c142ab93f58a4a260d5b6420c121c79dfd0b23695f1204",
    "kkt/outside_set": "67934c7c5eed501584710ed39e97b81c01a2ddd744a21a65652ec17a3aab84b9",
    "kkt/psc_inequality": "a0c65553eea7dba1d2b0fbf5a84f02705f732f841b9753738c8e0198b7e19366",
    "kkt/psc_objective": "9bb8d9788714a4331d9d1fbfa9fb84d0f65e68d4bba69f02b7d557a478cede05",
    "kkt/qualification": "1b82426d4ddb7d209313e8d0e5143c42e89158b924226d5bf997fcb331ac4d20",
    "kkt/slackness": "9eece815a290d8d88dedc61febcd6958a6c9db0eb2ccecf550c21566b028aa44",
    "kkt/stationarity": "76b662d83d7869da983f893bc6799d4fe50ea7e1ed796f1df497071de56fb140",
    "series/bad_radii": "95952e9984666704585be4a5bfc21fc1d7053c9a410a31b74bea2509c531acb2",
    "series/diagonal_holds": "52487feb988cbd968f3d945ef17e33b80c7cf2cc62d9508f78dc53c01007a851",
    "series/diagonal_interval": "bf482b4fb8e05cafc650c62accf00a9d244fbeb8725ad09cc498adbf5eaf0929",
    "series/diagonal_missing": "1c07de093c9918006ae147a72bf2751db9c907ddcb7532cbdfb184598ed87d91",
    "series/list_holds": "498e80d95dac57cab4b73f7ace72d25876f4bee4cee07544702ec4389ed67e20",
    "series/list_interval": "ade9f220a48d1f79e2a84a1ad4ce778c62865b8f7682188c20b17f7288ee6c81",
    "series/list_missing": "c3d383d2f8697a638ad0fef6f8e225cefe5132a0faf3f5565711025719261e6d",
    "series/scaled_flat_base": "999fefeece770d0742aee276904db78fc2d5963a35a59b3a229259778996dbc5",
    "series/scaled_holds": "9b15141ea9a1dee9f691c306d702a14bfeaf616d33ffbf960f2d55bf049d0cae",
    "series/scaled_interval": "bf482b4fb8e05cafc650c62accf00a9d244fbeb8725ad09cc498adbf5eaf0929",
    "series/scaled_missing": "0a5e4db84f779e400b1ce3d006b9e02a17ecc79557ced55a5a5d084dc1846463",
    "series/scaled_not_summable": "d0af3134de355054eae539a3d1721cb8adcd0ed86be38df3102bde714ac6dc7f",
    "series/scaled_unbounded": "1166e323ee7a719be1b73f0e1c3d98030cdb90aab692262d981bdaaa14de8e07",
    "subgradient/head_fails": "b990276a7e6a2f07c5a170ee3535a1283c2631030cab01213a91bfc12ff91966",
    "subgradient/holds": "44d6795b6fcf7ec3f5a81cce9096aa5370e4bbcaf05b3921b35969ca2850e7d0",
    "subgradient/kink": "faa2ee5f88254e2bfacb87fafcd355fb31443b1ceaeb9451a29f870929ae7e62",
    "subgradient/psc": "0b5e48aade122402c88d598c58645fe13783071e5b33015856622b7cdf5c0caf",
    "subgradient/tail_fails": "85a3189efeccd0be66bfb61168c109c2519ab9b93af2ba075e9ca03f2f2b9c4e",
}

# every reason the census reaches, None for a HOLDS; an exception as its
# type and message
REASONS = [
    'DomainViolation: f(x*) is not finite; probe values have nothing to compare against',
    'InfeasiblePoint: anchor is not in the space ell1',
    'InfeasiblePoint: anchor outside the base set (coordinate 1)',
    'InfeasiblePoint: equality 0 is violated: h(x*) = 1',
    'InfeasiblePoint: inequality 0 is violated: g(x*) = 1',
    'NoMajorant: coefficient series is not absolutely summable and the base derivative is nonzero',
    'NoMajorant: no finite derivative envelope on the interval at n=1',
    None,
    'ValueError: interval radii must be positive',
    'ValueError: multiplier counts must match constraint counts',
    'ValueError: multiplier lambda_0 is not finite: nan',
    'a basis directional derivative is nonzero',
    'a direction with unequal one-sided derivatives',
    'a feasible probe point has a smaller value',
    'a validation direction has no feasible step on either side of x*',
    'anchor membership could not be certified from the tail forms',
    'base derivative missing at the anchor',
    'basis is not topological; existence along basis directions is not sufficient',
    'complementary slackness fails for inequality 0',
    'derivative and dual coordinate disagree',
    'derivative and dual coordinate disagree in the tail',
    'directional derivative does not exist at n=1',
    'directional derivative missing along a basis direction',
    'directional derivative missing at n=1',
    'expression has a limsup part, which is not continuous on this space',
    'kink of |.| inside the interval at n=1',
    'multiplier 0 is negative on a non-affine equality',
    'multiplier 0 is negative; hypothesis not satisfied',
    'pseudo-semicontinuity not established',
    'pseudo-semicontinuity not established and no better probe found',
    'pseudo-semicontinuity not established for inequality_0',
    'pseudo-semicontinuity not established for objective',
    'qualification not established',
    'stationarity fails at n=1; sufficiency cannot conclude',
    'term derivative missing at the anchor',
]


def outcome(call):
    """(record, reason) of one call."""
    try:
        out = call()
    except Exception as exc:  # the exception itself is part of the record
        return repr((type(exc).__name__, str(exc))), f"{type(exc).__name__}: {exc}"
    if isinstance(out, tuple):
        cert, extra = out
        return json.dumps(cert.to_json(), sort_keys=True) + repr(extra), cert.reason
    return json.dumps(out.to_json(), sort_keys=True), out.reason


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests recorded under CPython 3.11")
@pytest.mark.parametrize("name", sorted(CASES))
def test_each_certifier_path_is_pinned(name):
    record, _ = outcome(CASES[name])
    assert hashlib.sha256(record.encode()).hexdigest() == PATH_DIGESTS[name], record


def test_the_census_reaches_every_reason():
    assert {outcome(call)[1] for call in CASES.values()} == set(REASONS)


# census case -> its calls of check_qualification, check_psc, _basis_residual,
# evaluate and dir_deriv
STAGE_CALLS = {
    "certify_min/f_not_finite": (1, 1, 1, 1, 0),
    "certify_min/holds": (1, 1, 1, 13, 0),
    "certify_min/psc": (1, 1, 1, 16, 0),
    "certify_min/qualification": (1, 1, 1, 3, 0),
    "certify_min/stationarity_fails": (1, 0, 1, 1, 0),
    "gateaux/holds_analytic": (0, 0, 0, 0, 3),
    "gateaux/witness_direction": (0, 0, 0, 0, 1),
    "kkt/holds": (1, 2, 1, 1, 0),
    "kkt/psc_inequality": (1, 2, 0, 4, 0),
    "kkt/slackness": (1, 2, 0, 1, 0),
    "subgradient/holds": (0, 1, 1, 0, 0),
    "subgradient/psc": (0, 1, 0, 3, 0),
}


def test_stages_are_looked_up_when_a_certifier_runs(monkeypatch):
    counts = {}

    def counting(name):
        inner = getattr(certify, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(certify, name, wrapper)

    stages = ("check_qualification", "check_psc", "_basis_residual", "evaluate", "dir_deriv")
    for name in stages:
        counting(name)
    seen = {}
    for case in STAGE_CALLS:
        counts.update(dict.fromkeys(stages, 0))
        outcome(CASES[case])
        seen[case] = tuple(counts[name] for name in stages)
    assert seen == STAGE_CALLS
