"""The --json report bytes of the paper's scenarios, pinned by sha256.

The digests were recorded from the code as it stood before the scan
kernels hoisted their loop-invariant work (basis-line differences, one
f(x) per profile, cached SymTerm floats, shared psc tail sums), and that
change reproduced them unchanged.  A later change that moves any report
byte must say why and re-record them.  Certify builtins run with oracle
ranks (1, 8); the KKT scenario is acceptance criterion 8.

They were re-recorded when certify_min stopped running its evidence-only
numeric passes, the quotient scan where a closed form decides and the psc
truncation sweep: the certify_min reports lost the numeric, left and right
stationarity columns, and their psc evidence counts no checked probes.  No
verdict, grade, reason, witness, table row or probe log entry moved.

The example3 and example4 digests were re-recorded when check_psc stopped
taking probes: their psc evidence lost the always-zero "probes_checked"
key, and nothing else moved (the new digests are the old code's with only
that key removed).  psc task reports with probes keep both evidence keys.

Float sums differ in their last bits between CPython minor versions
(3.12 made sum() of floats compensated), so the pins hold for the
interpreter they were recorded with, CPython 3.11.
"""

import hashlib
import json
import sys

import pytest

from seqcert import cli
from seqcert.certify import CertifyOptions

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests recorded under CPython 3.11"
)

DIGESTS = {
    ("example1", 0.5): "b3191fd972324f4615ab95cd980e67a56f245c32b1cbc36baefe3c198a32c7c0",
    ("example3", 0.5): "943a58b73d0c12e23a4f52d9b03fc029ac1ff4fa5fb9339a0ab765ff28e9ce26",
    ("example4", 0.5): "7cfd28d9bbab43e52a5c33ed836754af0fac1332e7da2167afca5136f07933b6",
    ("example5", 0.5): "7c522f2fda276f5b5597b2010a4329cc66ebb1674ca45a0bcd469b389e1f7ffc",
    ("l1norm", 0.5): "5ee4341e9a93dd3948f064855407281bf1cd4aa4057befa8697d10aaff73f575",
    ("kkt_box", 0.5): "15f9ab335d88743962420c43d379cffc8ed12bf16afd64baeb98c72868ada74a",
    ("example1", 0.3): "b3191fd972324f4615ab95cd980e67a56f245c32b1cbc36baefe3c198a32c7c0",
    ("example3", 0.3): "3ec76eb9cf11fc52cc535588e30db005078693ca76debdbca545cf659119188f",
    ("example4", 0.3): "cb33458ced647a8fc5869cb284ea5f73f49e240b2fb8e0e54df86a41b4cdba57",
    ("example5", 0.3): "2320ba33332b8b02bc5e6dad826625a6d83914b50a1ce615932d8efec23ad0ee",
    ("l1norm", 0.3): "5ee4341e9a93dd3948f064855407281bf1cd4aa4057befa8697d10aaff73f575",
    ("kkt_box", 0.3): "15f9ab335d88743962420c43d379cffc8ed12bf16afd64baeb98c72868ada74a",
}


def kkt_scenario(beta):
    """Criterion 8: min sum beta^n x_n^2 subject to 1 - x_1 <= 0, at e_1
    with multiplier 2 beta."""
    return {
        "name": "kkt_box",
        "task": "kkt",
        "space": {"kind": "ell1"},
        "function": {
            "kind": "separable",
            "weight": {"kind": "geometric", "c": 1.0, "r": beta},
            "inner": {"kind": "square"},
        },
        "inequalities": [
            {
                "kind": "sum",
                "terms": [
                    {"kind": "constant", "c": 1.0},
                    {
                        "kind": "linear_functional",
                        "p": {"prefix": [-1.0], "tail": {"kind": "zero"}},
                    },
                ],
            }
        ],
        "x_star": {"prefix": [1.0], "tail": {"kind": "zero"}},
        "set": {"kind": "whole_space"},
        "multipliers": {"lambda": [2.0 * beta], "nu": []},
        "parameters": {"beta": beta},
        "expected": "holds",
    }


@pytest.mark.parametrize("name,beta", sorted(DIGESTS))
def test_json_report_digest_is_pinned(name, beta):
    raw = kkt_scenario(beta) if name == "kkt_box" else cli.BUILTINS[name][1](beta)
    scn = cli.scenario_from_json(raw)
    oracle_k = (1, 8) if raw["task"] == "certify_min" else ()
    report = cli.run_scenario(scn, CertifyOptions(), oracle_k)
    text = json.dumps(cli._sanitize(report.to_json()), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(name, beta)]
