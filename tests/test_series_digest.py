"""Series-backed difference quotients and gateaux certificates, pinned by sha256.

The digests were recorded from the code as it stood before delta_along
resolved its per-direction constants once per line (now the coordinate
walk's series_line); that change reproduced them unchanged.  A later change that moves any of these
bytes must say why and re-record them.

The ladders are the steps the reference quotient scan (quotient_scan.py)
takes along a direction with a tail
(t = +-1e-2 * 2^-j, j = 0..40, tolerance |t| * 1e-13), on the grammar_fuzz
instances (seeds 0-33) and on hand-built sqrt objectives, whose domain
errors are part of what is pinned.  They were recorded with one
delta_along call per step and are replayed, as the scan runs them,
through one basis_partials(f, x).series_line(h) per direction
(tests/test_bit_identity.py checks the two against each other).  The certificates are gateaux_detect's on
the same instances, evidence included; their digest was re-recorded when
SymSeq.value_at started returning 0.0 for an empty sequence, which turned
five zero entries of coefficients_head from 0 into 0.0, and again when
gateaux_detect became one pipeline for every space: the one ellinf record
with a missing basis partial (seed 27) took the other spaces' reason and
gained the one-sided pair in its witness.  It was re-recorded once more when
dir_deriv started answering directions with a tail in closed form (the
walk's direction(h)) instead of scanning quotients: each validation gap is
now the distance between two closed-form sums, not between the assembled
derivative and an extrapolated quotient, so only the validation_samples
gap values moved (at most 1.0e-7 before, below 1e-12 after); every
verdict, grade, reason, witness and coefficient stayed the same, and so
did the number of samples.  It was re-recorded again when dir_deriv
stopped scanning quotients altogether: the validation directions it had
still scanned (finitely supported ones past an |.| leaf whose anchor tail
alternates) are answered by the closed forms too, so 23 of fuzz seeds
0-599 moved their validation gaps, from at most 3.6e-15 to at most
8.9e-16, and nothing else.

Float sums differ in their last bits between CPython minor versions, so the
pins hold for the interpreter they were recorded with, CPython 3.11.
"""

import hashlib
import json
import random
import struct
import sys

import pytest

from seqcert.certify import CertifyOptions, gateaux_detect
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
from seqcert.sampling import random_direction, random_function, random_point
from seqcert.seqspace import DualPoint, Point, SpaceDescriptor, TailRule

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests recorded under CPython 3.11"
)

LADDER_DIGEST = "d68c8662cc1bf34a24b5eac0cedb535905853efec34b0ddc18bcde654408bd1b"
GATEAUX_DIGEST = "eac280b9a55f962a4ab77ff1fb4649fb6cdb482799ac96559e9c213c8abe59a1"

SPACES = (SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf)
FUZZ_SEEDS = range(34)


def fuzz_instance(seed):
    """The grammar_fuzz benchmark's instance for this seed: space, f, x."""
    rng = random.Random(seed)
    space = rng.choice(SPACES)()
    return space, random_function(rng, space), random_point(rng, space=space)


def sqrt_objective(beta):
    return Sum((
        SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0)),
        SeparableSeries(TailRule.geometric(1.0, beta), ScalarConvex.neg_sqrt(2.0)),
    ))


def ladder_cases():
    for seed in FUZZ_SEEDS:
        _, f, x = fuzz_instance(seed)
        rng = random.Random(10_000 + seed)
        for _ in range(3):
            yield f, x, random_direction(rng, summable=True)
    for seed in range(8):
        rng = random.Random(2000 + seed)
        f = sqrt_objective(rng.uniform(0.2, 0.6))
        x = random_point(rng, positive=seed % 2 == 0)
        for _ in range(2):
            yield f, x, random_direction(rng, summable=True)
    # the other leaves, along a direction whose tail moves the limsup
    f = Sum((
        LimsupSeminorm(),
        Scale(0.5, LimsupSeminorm()),
        Scale(0.0, LimsupSeminorm()),
        Constant(1.0),
        LinearFunctional(DualPoint([1.0, -2.0, 0.5])),
    ))
    x = Point([0.5], (TailRule.const(-0.75), TailRule.geometric(1.0, 0.5)))
    yield f, x, Point([1.0, -0.5], (TailRule.const(0.25),))


def ladder(t0=1e-2, steps=40):
    return [sign * t0 * 2.0**-j for sign in (1, -1) for j in range(steps + 1)]


def step_record(line, t):
    try:
        sv = line(t, abs(t) * 1e-13)
    except Exception as exc:  # the exception itself is part of the record
        return (type(exc).__name__, str(exc))
    return (struct.pack("<d", sv.value).hex(), struct.pack("<d", sv.error_bound).hex(),
            sv.terms_used)


def test_delta_along_ladders_are_pinned():
    h = hashlib.sha256()
    for f, x, d in ladder_cases():
        line = basis_partials(f, x).series_line(d)
        for t in ladder():
            h.update(repr(step_record(line, t)).encode())
            h.update(b"\n")
    assert h.hexdigest() == LADDER_DIGEST


def test_gateaux_certificates_are_pinned():
    h = hashlib.sha256()
    for seed in FUZZ_SEEDS:
        space, f, x = fuzz_instance(seed)
        try:
            cert, _ = gateaux_detect(f, space, x, CertifyOptions())
            record = json.dumps(cert.to_json(), sort_keys=True)
        except Exception as exc:
            record = repr((type(exc).__name__, str(exc)))
        h.update(record.encode())
        h.update(b"\n")
    assert h.hexdigest() == GATEAUX_DIGEST
