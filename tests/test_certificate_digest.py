"""Subgradient and certify_min certificates on the fuzz instances, pinned by sha256.

The digest was recorded from the code as it stood before stationarity,
the subgradient test and KKT went through one shared "zero for every n"
decision, and that change reproduced it unchanged.  A later change that
moves any of these bytes must say why and re-record it.

It was re-recorded when certify_min stopped running its evidence-only
numeric passes, the quotient scan where a closed form decides and the psc
truncation sweep.  The sweep's numeric FAILS had overridden the analytic
HOLDS in 31 certify_min psc sub-certificates, which now hold at analytic
grade; the evidence lost the numeric stationarity columns and counts no
checked psc probes; and the two anchors whose f(x*) is not finite raise
certify_min's own DomainViolation message instead of the quotient scan's.
No top-level verdict, grade, reason or witness moved.

It was re-recorded again when certify_min's stationarity became the
subgradient test at the zero dual and lost its quotient-scan fallback for
profiles without a closed form.  Only seeds 25 and 43 reach that case
here: their stationarity rows lost the scan's numeric, left and right
columns.  Both scan and closed-form head say "fails at n = 1", and a probe
decides both certificates, so no verdict, grade, reason or witness moved.

It was re-recorded when certify_min's DomainViolation for an anchor whose
f(x*) is not finite was reworded: no derivative pass reads f(x*), only the
probe comparison.  Only seed 17's certify_min record, that exception's
message, moved (seed 6 raises evaluate's own message).  Merging the
per-index and closed-form basis partials into one walk left it unchanged.

It was re-recorded when Point.coordinate started summing an anchor's
tail from 0.0 instead of the int 0: only "dual": 0 fields of the
subgradient evidence and witnesses moved, to "dual": 0.0.  Reading KKT's
Lagrangian through the same weighted residual left it unchanged.

It was re-recorded when check_psc stopped taking probes: its HOLDS
evidence lost the "probes_checked" key, which no certifier's call could
set to anything but 0.  The new digest is the old code's with only that
key removed.

It was re-recorded when certify_min began returning the stationarity
FAILS before its psc check and probe sweep, wherever qualification holds,
f(x*) is finite and a basis derivative is nonzero.  Only certify_min's
reason, witness and evidence moved, on 55 of its 60 records: the 54 where
a probe used to win now give the coordinate witness {n, derivative} and
the stationarity reason, and all 55 lost the "psc" and "probe_log"
evidence keys.  No verdict or grade moved, nor any subgradient record.

The instances are the grammar_fuzz benchmark's (space, f, x*, p) for seeds
0-59; seed 54's closed-form derivative profile is valid only from n = 192,
past the 64 sampled coordinates, so the head extension is pinned too.  Each
record is the certificate's canonical JSON, evidence included, or the type
and message of the exception the call raised.

Float sums differ in their last bits between CPython minor versions, so the
pin holds for the interpreter it was recorded with, CPython 3.11.
"""

import hashlib
import json
import random
import sys

import pytest

from seqcert import certify
from seqcert.certify import (
    CertifyOptions,
    Grade,
    SetDescriptor,
    Verdict,
    certify_min,
    kkt_certify,
    subgradient_test,
)
from seqcert.sampling import random_dual, random_function, random_point
from seqcert.seqspace import DualPoint, SpaceDescriptor

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digest recorded under CPython 3.11"
)

CERTIFICATE_DIGEST = "813f00679fa7093adecc3673e7e79006758b1b24cd6d81e0943883e4cac5ed78"

SPACES = (SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf)
FUZZ_SEEDS = range(60)


def fuzz_instance(seed):
    """The grammar_fuzz benchmark's instance for this seed: space, f, x, p."""
    rng = random.Random(seed)
    space = rng.choice(SPACES)()
    f = random_function(rng, space)
    x = random_point(rng, space=space)
    return space, f, x, random_dual(rng)


def record(call):
    try:
        return json.dumps(call().to_json(), sort_keys=True)
    except Exception as exc:  # the exception itself is part of the record
        return repr((type(exc).__name__, str(exc)))


def residual_answer(cert):
    """(answer, n) of a subgradient certificate in _basis_residual's terms;
    None when psc failed and the residual was not examined."""
    if cert.verdict is Verdict.FAILS:
        return ("tail" if cert.reason.endswith("in the tail") else "head"), cert.witness["n"]
    if cert.verdict is Verdict.HOLDS:
        return ("exact" if cert.grade == Grade.analytic() else "none"), None
    prefix = "directional derivative does not exist at n="
    return ("kink", int(cert.reason[len(prefix):])) if cert.reason.startswith(prefix) else None


def test_subgradient_and_certify_min_certificates_are_pinned(monkeypatch):
    residual, answers = certify._basis_residual, []

    def spy(*args):
        out = residual(*args)
        answers.append(out[1:3])
        return out

    monkeypatch.setattr(certify, "_basis_residual", spy)
    opts = CertifyOptions()
    h = hashlib.sha256()
    kkt_compared = 0
    for seed in FUZZ_SEEDS:
        _, f, x, p = fuzz_instance(seed)
        for call in (
            lambda: subgradient_test(f, x, p, opts),
            lambda: certify_min(f, SetDescriptor.whole_space(), x, opts),
        ):
            answers.clear()
            h.update(record(call).encode())
            h.update(b"\n")
        # certify_min's stationarity is the subgradient test at the zero dual
        (stationarity,) = answers
        assert residual_answer(subgradient_test(f, x, DualPoint.zero(), opts)) in (
            None,
            stationarity,
        ), seed
        # so is KKT's without constraints, unless psc stopped it first
        answers.clear()
        kkt_certify(f, [], [], SetDescriptor.whole_space(), x, [], [], opts)
        assert answers in ([], [stationarity]), seed
        kkt_compared += len(answers)
    assert kkt_compared > 40
    assert h.hexdigest() == CERTIFICATE_DIGEST
