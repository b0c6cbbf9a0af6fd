"""Series-family certificates and rectangle-set checks, pinned by sha256.

The digests were recorded from the code as it stood before the interval
questions of series_differentiate (is every term differentiable on the
interval, how steep is it) went through one walk, and before set
membership and the interior test of qualification went through one
rectangle rule; those changes reproduced them unchanged.  A later change
that moves any of these bytes must say why and re-record them.

Families are diagonal, scaled and finite lists with |.| and -c*sqrt
pieces among others, at anchors inside, on and across the pieces' kinks
and sqrt boundaries or exactly on an interval's end, with interval radii 0.5, 2.0 and 1/n.  Each record is
the certificate's canonical JSON with the derivative values as float hex,
or the type and message of the exception the call raised.  Sets are boxes
with and without bound_count, lower-only and upper-only, plus the cone and
the whole space, at anchors inside, outside, on a face and with a tail
whose comparison cannot be certified.

Float sums differ in their last bits between CPython minor versions, so the
pins hold for the interpreter they were recorded with, CPython 3.11.
"""

import hashlib
import json
import sys

import pytest

from seqcert.certify import (
    CertifyOptions,
    DiagonalFamily,
    ScaledFamily,
    SetDescriptor,
    check_qualification,
    series_differentiate,
    set_membership,
)
from seqcert.funcs import (
    Constant,
    LimsupSeminorm,
    LinearFunctional,
    Scale,
    ScalarConvex,
    SeparableSeries,
    Sum,
)
from seqcert.seqspace import DualPoint, Point, TailRule

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests recorded under CPython 3.11"
)

FAMILY_DIGEST = "7356fb8c870f2637a9524e75d7128dd9567fa09d963542dcf843684c803c0fce"
SET_DIGEST = "acd3504dd8939bb0ca419120f114d68c11db41de9380f12b41d9fe7beeef7bcf"

OPTS = CertifyOptions(coords=12)
RADII = (TailRule.const(0.5), TailRule.const(2.0), TailRule.harmonic(1.0))

PIECES = (
    ScalarConvex.abs_(),
    ScalarConvex.neg_sqrt(1.5),
    ScalarConvex.neg_sqrt(TailRule.geometric(1.0, -0.0)),
    ScalarConvex.square(),
    ScalarConvex.affine_quad(TailRule.harmonic(2.0), -1.0),
    ScalarConvex.linear(TailRule.geometric(-3.0, 0.5)),
)
WEIGHTS = (TailRule.geometric(1.0, 0.5), TailRule.const(-0.0), TailRule.harmonic(1.0))

ANCHORS = (
    Point.zero(),
    Point([3.0, 0.3, 2.5, 0.0, 1.0], (TailRule.const(4.0),)),
    Point([5.0, 9.0], (TailRule.geometric(8.0, 0.9),)),
    Point([-1.0, 0.25], (TailRule.harmonic(3.0),)),
    # sqrt boundaries exactly on an interval's end, one per radius
    Point([2.5, 2.0, 1.0 / 3.0, 0.5], (TailRule.const(2.0),)),
)


def bases():
    """Single leaves and composite expressions over the pieces."""
    for u in PIECES:
        for w in WEIGHTS:
            yield SeparableSeries(w, u)
    yield Sum((
        LinearFunctional(DualPoint([1.0, -2.0], (TailRule.geometric(1.0, 0.5),))),
        SeparableSeries(TailRule.geometric(1.0, 0.5), ScalarConvex.square()),
        SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_()),
    ))
    yield Sum((
        Constant(2.0),
        LimsupSeminorm(),
        Scale(0.0, SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_())),
        Scale(-0.0, SeparableSeries(TailRule.const(1.0), ScalarConvex.neg_sqrt(1.0))),
        Scale(2.5, SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.neg_sqrt(1.0))),
    ))
    yield Sum((
        SeparableSeries(TailRule.harmonic(1.0), ScalarConvex.neg_sqrt(1.0)),
        SeparableSeries(TailRule.const(1.0), ScalarConvex.abs_()),
    ))
    yield Sum(())


def families():
    for u in PIECES:
        for w in WEIGHTS:
            yield DiagonalFamily(w, u)
    all_bases = list(bases())
    for base in all_bases:
        for coeffs in (TailRule.geometric(1.0, 0.5), TailRule.harmonic(1.0)):
            yield ScaledFamily(coeffs, base)
    for i in range(0, len(all_bases), 3):
        yield all_bases[i:i + 3]
    yield []


def family_record(call):
    try:
        cert, values = call()
        return json.dumps(
            [cert.to_json(), [float(v).hex() for v in values]], sort_keys=True
        )
    except Exception as exc:  # the exception itself is part of the record
        return repr((type(exc).__name__, str(exc)))


def test_series_family_certificates_are_pinned():
    h = hashlib.sha256()
    count = 0
    for family in families():
        for x in ANCHORS:
            for radii in RADII:
                rec = family_record(lambda: series_differentiate(family, x, radii, OPTS))
                h.update(rec.encode())
                h.update(b"\n")
                count += 1
    assert count > 500
    assert h.hexdigest() == FAMILY_DIGEST


def sets():
    lower = Point([1.0, -1.0, 0.0], (TailRule.const(-2.0),))
    upper = Point([4.0, 3.0], (TailRule.geometric(5.0, 0.5),))
    yield SetDescriptor.whole_space()
    yield SetDescriptor.positive_cone_ell1()
    for bound_count in (None, 1, 3):
        yield SetDescriptor.box(lower, None, bound_count)
        yield SetDescriptor.box(None, upper, bound_count)
        yield SetDescriptor.box(lower, upper, bound_count)
    # a lower bound whose tail crosses zero: comparisons against it that
    # rest on the tail's eventual sign cannot always be certified
    wavy = Point([], (TailRule.geometric(1.0, -0.5), TailRule.geometric(1.0, 0.5)))
    yield SetDescriptor.box(wavy, None)
    yield SetDescriptor.box(None, wavy, 2)


SET_ANCHORS = (
    Point.zero(),
    Point([2.0, 0.0, 1.0], (TailRule.geometric(1.0, 0.5),)),
    Point([1.0, 0.0, 1.0], (TailRule.geometric(1.0, 0.5),)),  # on the lower face at 1
    Point([2.0, 3.0, 1.0], (TailRule.geometric(1.0, 0.5),)),  # on the upper face at 2
    Point([2.0, 0.0, 0.5], (TailRule.const(-2.0),)),  # on the lower face in the tail
    Point([2.0, 0.0], (TailRule.geometric(5.0, 0.5),)),  # on the upper face in the tail
    Point([0.5, 5.0, -1.0], ()),
    Point([2.0, 1.0, 1.0, -3.0], (TailRule.harmonic(1.0),)),
    Point([], (TailRule.geometric(1.0, -0.5),)),
    Point([3.0, 2.0, 1.0], (TailRule.geometric(2.0, -0.5), TailRule.geometric(1.0, 0.5))),
)


def test_rectangle_set_checks_are_pinned():
    h = hashlib.sha256()
    for s in sets():
        for x in SET_ANCHORS:
            for rec in (
                repr(set_membership(s, x)),
                json.dumps(check_qualification(s, x, 16).to_json(), sort_keys=True),
            ):
                h.update(rec.encode())
                h.update(b"\n")
    assert h.hexdigest() == SET_DIGEST
