"""Certified evaluations, pairings and psc truncation evidence, pinned by sha256.

On the grammar_fuzz instances (seeds 0-59) this pins f(x*), f at the
anchored truncations x* + P^k(q - x*) of every default psc probe q at
k = 1, 3, 8, 16, the pairing <p, x*> with the instance's dual, and
check_psc_numeric's evidence over the same probes.  Each value is
recorded as the IEEE bytes of its value and error bound plus terms_used,
and a raised exception as its type and message.  The digest was recorded
while the anchored truncations were still evaluated through a shared-tail
cache; evaluating each truncation on its own reproduced it.

Float sums differ in their last bits between CPython minor versions, so the
pin holds for the interpreter it was recorded with, CPython 3.11.
"""

import hashlib
import random
import struct
import sys

import pytest

from seqcert.certify import (
    CertifyOptions,
    SetDescriptor,
    anchored_truncation,
    check_psc_numeric,
    default_psc_probes,
)
from seqcert.funcs import evaluate
from seqcert.sampling import random_dual, random_function, random_point
from seqcert.seqspace import SpaceDescriptor, pair

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests recorded under CPython 3.11"
)

EVALUATE_DIGEST = "0a346f52295c4279587fcb1bb862285438615e4c1b1758519113432f82e84aad"

SPACES = (SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf)


def fuzz_instance(seed):
    """The grammar_fuzz benchmark's instance for this seed: f, x*, dual p."""
    rng = random.Random(seed)
    space = rng.choice(SPACES)()
    f = random_function(rng, space)
    x = random_point(rng, space=space)
    return f, x, random_dual(rng)


def hexed(v):
    return struct.pack("<d", v).hex() if isinstance(v, float) else v


def record(fn):
    try:
        out = fn()
    except Exception as exc:  # the exception itself is part of the record
        return (type(exc).__name__, str(exc))
    if isinstance(out, dict):
        return sorted((k, hexed(v)) for k, v in out.items())
    return (hexed(out.value), hexed(out.error_bound), out.terms_used)


def test_evaluations_pairings_and_psc_evidence_are_pinned():
    h = hashlib.sha256()
    for seed in range(60):
        f, x, p = fuzz_instance(seed)
        probes = default_psc_probes(x, CertifyOptions())[:7]
        records = [record(lambda: evaluate(f, x))]
        records += [
            record(lambda: evaluate(f, anchored_truncation(x, q, k)))
            for q in probes
            for k in (1, 3, 8, 16)
        ]
        records.append(record(lambda: pair(p, x)))
        records.append(
            record(lambda: check_psc_numeric(f, SetDescriptor.whole_space(), x, probes, 16))
        )
        for r in records:
            h.update(repr(r).encode())
            h.update(b"\n")
    assert h.hexdigest() == EVALUATE_DIGEST
