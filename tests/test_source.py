"""Checks on the library's source text itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zham"


def self_calling_functions(path):
    """Names of the functions in ``path`` that call their own bare name
    (``name(...)``) anywhere in their body, nested functions included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        ):
            found.append(node.name)
    return found


def test_no_library_function_recurses():
    # recursion depth grows with the input, so any n beyond the interpreter's
    # recursion limit would end in RecursionError
    offenders = {path.name: self_calling_functions(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: funcs for name, funcs in offenders.items() if funcs} == {}


def test_the_check_sees_recursion():
    brute = Path(__file__).resolve().parent / "brute.py"
    assert sorted(self_calling_functions(brute)) == ["assign", "dfs", "extend"]
