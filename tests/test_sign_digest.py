"""Coordinate-sign decisions, pinned by sha256.

Set membership, qualification's interior test and the domain screening of
sqrt pieces all ask one question: is every coordinate >= 0 (> 0 when
strict), and from which rank is the tail's sign certified?  This pins
their answers on the grammar_fuzz anchors (seeds 0-59) with their default
psc probes, on the sqrt cases' points of tests/test_series_digest.py, and
on hand-built tails that oscillate, turn negative eventually or dip below
zero before the rank their sign is certified from.  Each record is
set_membership's answer and check_qualification's canonical JSON on the
positive cone, the whole space and a box, then a sqrt objective's value,
or the type and message of the exception evaluating it raised.

The digest was first recorded while the sqrt screening still ran its own
scan.  Moving the screening onto the shared sign rule changed only the ten
sqrt records of points whose tail sign oscillates with a negative
coordinate among the 256 after the prefix: that coordinate is now named,
as membership names it, instead of the oscillation.  It was re-recorded
then.

Float sums differ in their last bits between CPython minor versions, so the
pin holds for the interpreter it was recorded with, CPython 3.11.
"""

import hashlib
import json
import random
import struct
import sys

import pytest

from seqcert.certify import (
    CertifyOptions,
    SetDescriptor,
    check_qualification,
    default_psc_probes,
    set_membership,
)
from seqcert.funcs import ScalarConvex, SeparableSeries, Sum, evaluate
from seqcert.sampling import random_function, random_point
from seqcert.seqspace import Point, SpaceDescriptor, TailRule

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests recorded under CPython 3.11"
)

SIGN_DIGEST = "309ee0a37d923eb6c06ecbac0cd51d5783739166456207f95d0694f1276b5acc"

SPACES = (SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf)

SETS = (
    SetDescriptor.positive_cone_ell1(),
    SetDescriptor.whole_space(),
    SetDescriptor.box(
        Point([-1.5, -2.0], (TailRule.harmonic(-1.0),)),
        Point([2.0, 1.5], (TailRule.const(1.5),)),
    ),
)

SQRT_OBJECTIVE = Sum((
    SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0)),
    SeparableSeries(TailRule.geometric(1.0, 0.4), ScalarConvex.neg_sqrt(2.0)),
))

HAND_BUILT = (
    # oscillating, negative at the first tail index
    Point([], (TailRule.geometric(1.0, -0.5),)),
    # oscillating dominant term, yet every coordinate positive
    Point([1.0], (TailRule.geometric(0.3, -0.5), TailRule.geometric(1.0, 0.5))),
    # eventually negative after a positive start
    Point([1.0], (TailRule.const(-1.0), TailRule.geometric(3.0, 0.5))),
    # eventually positive after a negative start
    Point([0.5], (TailRule.const(1.0), TailRule.geometric(-3.0, 0.5))),
    # eventually positive after a zero coordinate below the rank
    Point([2.0], (TailRule.const(1.0), TailRule.geometric(-4.0, 0.5))),
    # negative in the prefix, zero on the boundary, zero tail
    Point([0.5, -0.25], (TailRule.geometric(1.0, 0.5),)),
    Point([0.0, 1.0], ()),
    Point([1.0, 2.0], ()),
    Point.zero(),
)


def points():
    for seed in range(60):
        rng = random.Random(seed)
        space = rng.choice(SPACES)()
        random_function(rng, space)
        x = random_point(rng, space=space)
        yield x
        yield from default_psc_probes(x, CertifyOptions())[:7]
    for seed in range(8):
        rng = random.Random(2000 + seed)
        rng.uniform(0.2, 0.6)
        yield random_point(rng, positive=seed % 2 == 0)
    yield from HAND_BUILT


def value_record(fn):
    try:
        sv = fn()
    except Exception as exc:  # the exception itself is part of the record
        return repr((type(exc).__name__, str(exc)))
    return repr(tuple(struct.pack("<d", v).hex() for v in (sv.value, sv.error_bound)))


def records():
    for x in points():
        for s in SETS:
            yield repr(set_membership(s, x))
            yield json.dumps(check_qualification(s, x, 16).to_json(), sort_keys=True)
        yield value_record(lambda: evaluate(SQRT_OBJECTIVE, x))


def test_coordinate_sign_decisions_are_pinned():
    h = hashlib.sha256()
    count = 0
    for rec in records():
        h.update(rec.encode())
        h.update(b"\n")
        count += 1
    assert count > 2000
    assert h.hexdigest() == SIGN_DIGEST
