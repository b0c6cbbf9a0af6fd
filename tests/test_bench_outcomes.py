"""The grammar_fuzz benchmark's recorded outcomes still hold.

``bench/run.py`` rejects a run whose verdicts, grades or exceptions differ
from ``bench/outcomes.json``; this test runs every grammar_fuzz universe
member once through ``bench/workloads.py`` and compares the same outcomes,
so a certificate change fails the test suite too.  The benchmark files
are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_grammar_fuzz_outcomes_match_the_recorded_ones():
    fuzz = load_workloads().GrammarFuzz()
    recorded = json.loads((BENCH / "outcomes.json").read_text(encoding="utf-8"))
    ops = fuzz.universe()
    assert len(ops) == 34
    got = {op.key: fuzz.run(op, span=None).outcome for op in ops}
    assert got == {op.key: recorded[op.key] for op in ops}
