"""Every seqcert name the benchmark uses still resolves.

``bench/run.py --trace 1`` looks each name in ``bench/tracer.py``'s TARGETS
and COUNTED up by name, and ``bench/workloads.py`` imports names from
seqcert and reads attributes of its modules, so a rename or merge that
drops one breaks the benchmark without failing anything else.  Both files
are read from the source with ast, leaving the benchmark untouched.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


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


def workload_names():
    """(module, name) for every seqcert name bench/workloads.py uses: the
    names of its ``from seqcert... import`` lines, and every attribute it
    reads from a seqcert module it imported whole (``cli.report``)."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    used, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("seqcert"):
            for alias in node.names:
                used.add((node.module, alias.name))
                if node.module == "seqcert":
                    modules[alias.asname or alias.name] = f"seqcert.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.add((modules[node.value.id], node.attr))
    return used


def test_workload_names_are_found():
    used = workload_names()
    assert ("seqcert", "seqspace") in used
    assert ("seqcert.seqspace", "dual_to_json") in used
    assert ("seqcert.certify", "subgradient_test") in used


def test_every_workload_name_resolves():
    missing = [
        f"{module}.{name}"
        for module, name in sorted(workload_names())
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
