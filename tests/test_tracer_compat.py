"""Every function the benchmark tracer patches still resolves in seqcert.

``bench/run.py --trace 1`` looks each name in ``bench/tracer.py``'s TARGETS
and COUNTED up by name, so a rename or merge that drops one breaks tracing
without failing anything else.  The tables are read from the source with
ast, leaving the tracer untouched.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TARGETS", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_tracer_tables_are_found():
    assert set(tracer_tables()) == {"TARGETS", "COUNTED"}


def test_every_traced_name_resolves():
    missing = []
    for table in tracer_tables().values():
        for layer, names in table.items():
            module = importlib.import_module(f"seqcert.{layer}")
            for qual in names:
                if "." in qual:
                    # the tracer wraps methods through the class __dict__
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name, None)
                    ok = cls is not None and callable(vars(cls).get(attr))
                else:
                    ok = callable(getattr(module, qual, None))
                if not ok:
                    missing.append(f"{layer}.{qual}")
    assert missing == []
