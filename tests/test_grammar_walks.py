"""The package's recursive walks over the function grammar, listed by name.

A walk is a function that tests ``isinstance(..., Scale)``: every recursion
over FunctionExpr has to handle the scale node.  The list is read from the
source with ast, so adding a walk back, or merging two, is a deliberate
edit of WALKS.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqcert"

WALKS = {
    "funcs.basis_partials",
    "funcs.function_to_json",
}


def _tests_scale(node: ast.AST) -> bool:
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return False
    classes = node.args[1]
    names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
    return any(isinstance(c, ast.Name) and c.id == "Scale" for c in names)


def grammar_walks() -> set[str]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _tests_scale(node) for node in ast.walk(fn)
            ):
                found.add(f"{path.stem}.{fn.name}")
    return found


def test_the_grammar_has_two_walks():
    assert grammar_walks() == WALKS
    assert len(WALKS) == 2

