"""The --json report bytes of the paper's scenarios, pinned by sha256.

The digests were recorded from the code as it stood before the scan
kernels hoisted their loop-invariant work (basis-line differences, one
f(x) per profile, cached SymTerm floats, shared psc tail sums), and that
change reproduced them unchanged.  A later change that moves any report
byte must say why and re-record them.  Certify builtins run with oracle
ranks (1, 8); the KKT scenario is acceptance criterion 8.

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
    ("example3", 0.5): "e284ea8fd8601eb5d0039773f4c4c67367040acf1a4b8aad383ff875819388cb",
    ("example4", 0.5): "72adc1f9bfcff72de1b0773cd2232662649901dc454d6ffb80eaaa417df0839e",
    ("example5", 0.5): "3fe8a6925c880a589ca1352138d7c7258360161c7fdac64a303788788b597d31",
    ("l1norm", 0.5): "5ee4341e9a93dd3948f064855407281bf1cd4aa4057befa8697d10aaff73f575",
    ("kkt_box", 0.5): "15f9ab335d88743962420c43d379cffc8ed12bf16afd64baeb98c72868ada74a",
    ("example1", 0.3): "b3191fd972324f4615ab95cd980e67a56f245c32b1cbc36baefe3c198a32c7c0",
    ("example3", 0.3): "072fa11a9224ac8c08695eaf248bc15f5c416df0d7b877c18357afd6c86d9ea8",
    ("example4", 0.3): "c878c2395d88b80522d54323584e71f614d3e064846f1512a4c04e0b5cf6dc92",
    ("example5", 0.3): "040504d02c35bee6b6444c3c7c7b6205d7ff91893975bd34068c4320af682d07",
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
