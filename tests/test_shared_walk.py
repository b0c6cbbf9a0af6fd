"""The certifiers asking in turn about one anchor share its walk, and
nothing leaks through the one walk funcs.basis_partials keeps.

Instances are grammar_fuzz's (bench/workloads.py draws them the same way),
certified in its order: gateaux_detect, subgradient_test, certify_min.
"""

import json
import math
import random
import sys
import threading
import traceback
from collections import Counter

import pytest

from seqcert import funcs
from seqcert.certify import (
    CertifyOptions,
    SetDescriptor,
    certify_min,
    gateaux_detect,
    subgradient_test,
)
from seqcert.errors import DomainViolation
from seqcert.funcs import (
    LimsupSeminorm,
    ScalarConvex,
    SeparableSeries,
    Sum,
    basis_partials,
    evaluate,
    function_from_json,
    function_to_json,
)
from seqcert.sampling import random_dual, random_function, random_point
from seqcert.seqspace import Point, SpaceDescriptor, TailRule, point_from_json, point_to_json

SPACES = (SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf)
FUZZ_POOL = 34


def fuzz_case(seed):
    """grammar_fuzz's instance for this seed: space, f, x*, p."""
    rng = random.Random(seed)
    space = rng.choice(SPACES)()
    f = random_function(rng, space)
    x = random_point(rng, space=space)
    return space, f, x, random_dual(rng)


def certify_all(space, f, x, p, order="gsc"):
    """Each certifier's outcome, run in ``order`` (g: gateaux_detect, s:
    subgradient_test, c: certify_min): the certificate's JSON and the
    derivative's repr, or the exception's type and message."""
    opts = CertifyOptions()
    calls = {
        "g": lambda: gateaux_detect(f, space, x, opts),
        "s": lambda: (subgradient_test(f, x, p, opts), None),
        "c": lambda: (certify_min(f, SetDescriptor.whole_space(), x, opts), None),
    }
    out = {}
    for key in order:
        try:
            cert, deriv = calls[key]()
            out[key] = (json.dumps(cert.to_json(), sort_keys=True), repr(deriv))
        except Exception as exc:  # the exception is part of the outcome
            out[key] = (type(exc).__name__, str(exc))
    return out


def count_leaf_work(monkeypatch):
    """The point of every separable evaluation, in a list, and a count of
    the separable leaf walks built."""
    evaluated, built = [], Counter()
    evaluate, partials = funcs._evaluate_separable, funcs._separable_partials

    def counted_evaluate(g, y, tol):
        evaluated.append(y)
        return evaluate(g, y, tol)

    def counted_partials(g, y):
        built["leaf walks"] += 1
        return partials(g, y)

    monkeypatch.setattr(funcs, "_evaluate_separable", counted_evaluate)
    monkeypatch.setattr(funcs, "_separable_partials", counted_partials)
    return evaluated, built


def test_the_three_certifiers_certify_an_anchors_leaves_once(monkeypatch):
    # instance 13 has two separable leaves; a walk per certifier would
    # certify f(x*) once per validation direction and once for the probe
    # sweep: 3 + 1 evaluations of each leaf at x*
    space, f, x, p = fuzz_case(13)
    evaluated, _ = count_leaf_work(monkeypatch)
    outcome = certify_all(space, f, x, p)
    assert [json.loads(outcome[k][0])["verdict"] for k in "gsc"] == ["holds", "fails", "fails"]
    assert sum(y is x for y in evaluated) == 2


def test_the_head_is_one_range_answer_per_leaf_walk(monkeypatch):
    # each separable leaf answers the 64-index head once, as one range,
    # for all three certifiers, and no index of it becomes a DirValue
    space, f, x, p = fuzz_case(13)
    reads, made = [], []
    partials, init = funcs._separable_partials, funcs.DirValue.__init__

    def spied(g, y):
        walk = partials(g, y)
        sides = walk.sides

        def counted(a, b):
            reads.append((walk, y is x, a, b))
            return sides(a, b)

        walk.sides = counted
        return walk

    def counted_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(funcs, "_separable_partials", spied)
    monkeypatch.setattr(funcs.DirValue, "__init__", counted_init)
    outcome = certify_all(space, f, x, p)
    assert [json.loads(outcome[k][0])["verdict"] for k in "gsc"] == ["holds", "fails", "fails"]
    leaves = {id(walk) for walk, _, _, _ in reads}
    assert len(leaves) == 2
    assert [(at_x, a, b) for _, at_x, a, b in reads] == [(True, 1, 64)] * 2
    assert made == []


def test_a_failing_psc_check_leaves_the_anchors_walk_alone(monkeypatch):
    # f = limsup |x_n| + sum 0.5^n (x_n^2 - 2 x_n) is stationary at
    # x* = (1, 1, ...), so no basis derivative refutes x* first, and its
    # psc check FAILS and evaluates f at the zero point and at anchored
    # truncations; run after every question about x*, it cannot make
    # certify_min walk x*'s separable leaf a second time
    f = Sum(
        [
            LimsupSeminorm(),
            SeparableSeries(
                TailRule.geometric(1.0, 0.5),
                ScalarConvex.affine_quad(TailRule.const(1.0), TailRule.const(-2.0)),
            ),
        ]
    )
    x = Point((), (TailRule.const(1.0),))
    anchored = []
    partials = funcs._separable_partials

    def counted(g, y):
        anchored.append(y is x)
        return partials(g, y)

    monkeypatch.setattr(funcs, "_separable_partials", counted)
    cert = certify_min(f, SetDescriptor.whole_space(), x, CertifyOptions())
    assert cert.evidence["stationarity"]["symbolic"] == "ok"
    assert cert.evidence["psc"]["verdict"] == "fails"
    assert anchored.count(True) == 1


def test_an_undecided_value_is_kept_and_raised_afresh(monkeypatch):
    # instance 6's f(x*) has no certified value: a harmonic-weight linear
    # leaf against a constant tail diverges to -inf.  The walk keeps that
    # answer like any other, so asking again runs no leaf evaluation, and
    # each raise starts a fresh traceback
    _, f, x, _ = fuzz_case(6)
    funcs.drop_kept_walk()
    evaluated, _ = count_leaf_work(monkeypatch)

    def raised():
        with pytest.raises(DomainViolation, match="series diverges to -infinity") as info:
            evaluate(f, x)
        return info.value, len(traceback.extract_tb(info.value.__traceback__))

    first, depth = raised()
    leaf_evaluations = len(evaluated)
    assert leaf_evaluations > 0
    again, again_depth = raised()
    assert (type(again), str(again), again_depth) == (type(first), str(first), depth)
    assert len(evaluated) == leaf_evaluations
    assert {raised()[1] for _ in range(100)} == {depth}


def test_a_pass_in_another_order_does_the_work_of_the_first(monkeypatch):
    # one slot cannot carry a walk from one instance to the next, so a
    # pass over the same objects, in any order, repeats the first's work
    cases = [fuzz_case(seed) for seed in range(FUZZ_POOL)]
    evaluated, built = count_leaf_work(monkeypatch)

    def one_pass(order):
        evaluated.clear()
        built.clear()
        for i in order:
            certify_all(*cases[i])
        return len(evaluated), built["leaf walks"]

    first = one_pass(range(FUZZ_POOL))
    assert one_pass(reversed(range(FUZZ_POOL))) == first
    assert one_pass(random.Random(5).sample(range(FUZZ_POOL), FUZZ_POOL)) == first


def test_certificates_do_not_depend_on_the_kept_walk():
    for seed in range(FUZZ_POOL):
        space, f, x, p = fuzz_case(seed)
        want = certify_all(space, f, x, p)
        assert certify_all(space, f, x, p, order="csg") == want, seed
        # equal copies are distinct objects, so they get walks of their own
        f2 = function_from_json(json.loads(json.dumps(function_to_json(f))))
        x2 = point_from_json(json.loads(json.dumps(point_to_json(x))))
        p2 = point_from_json(json.loads(json.dumps(point_to_json(p))))
        assert f2 is not f and x2 is not x
        assert certify_all(space, f2, x2, p2) == want, seed


def test_anchors_differing_in_a_signed_zero_get_their_own_walks():
    f = SeparableSeries(TailRule.const(1.0), ScalarConvex.square())
    plus, minus = Point((0.0,)), Point((-0.0,))
    assert plus == minus
    walk = basis_partials(f, plus)
    assert basis_partials(f, plus) is walk
    assert math.copysign(1.0, walk.at(1).value) == 1.0
    other = basis_partials(f, minus)
    assert other is not walk
    # d/dx_1 of x_1^2 at -0.0 is -0.0: a walk keyed by equality would
    # have answered 0.0
    assert math.copysign(1.0, other.at(1).value) == -1.0


def test_two_threads_certify_as_one_does():
    seeds = (13, 21)
    want = {seed: certify_all(*fuzz_case(seed)) for seed in seeds}
    got = {}

    def work(seed):
        case = fuzz_case(seed)
        got[seed] = [certify_all(*case) for _ in range(3)]

    threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    # switch often, so each thread keeps overwriting the other's walk
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {seed: [want[seed]] * 3 for seed in seeds}
