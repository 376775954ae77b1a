"""Checks on the library's source text itself.

Run as a script (``python tests/test_source.py``) to print the code-line
count of each module of ``src/zham`` and their total.
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zham"

# tokens that hold no code of their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


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


def indented_json_writers(text):
    """Names of the innermost functions in Python source ``text`` that call
    ``json.dumps`` with an ``indent`` argument (``<module>`` for a call
    outside any function), one per call."""
    tree = ast.parse(text)
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found = []
    for call in ast.walk(tree):
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "dumps"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "json"
            and any(kw.arg == "indent" for kw in call.keywords)
        ):
            enclosing = [f for f in functions if f.lineno <= call.lineno <= f.end_lineno]
            found.append(max(enclosing, key=lambda f: f.lineno).name if enclosing else "<module>")
    return found


def names_imported_from(text, module):
    """Names that Python source ``text`` imports from the zham module
    ``module`` (``from .module import ...`` or ``from zham.module import
    ...``), in the order ``ast.walk`` visits the imports."""
    return [
        alias.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, module), (0, f"zham.{module}"))
        for alias in node.names
    ]


def code_lines(text):
    """Numbers of the lines of Python source ``text`` that hold code.

    A line holds code when a token other than a comment or layout touches it
    (a multi-line token touches every line it spans) and it is not part of a
    docstring: the string statement that opens a module, class or function
    body.  Blank, comment and docstring lines therefore never count.
    """
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstrings


def module_code_lines():
    """Code-line count of each module of ``src/zham``, by file name."""
    return {
        path.name: len(code_lines(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }


def test_no_library_function_recurses():
    # recursion depth grows with the input, so any n beyond the interpreter's
    # recursion limit would end in RecursionError
    offenders = {path.name: self_calling_functions(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: funcs for name, funcs in offenders.items() if funcs} == {}


def test_the_check_sees_recursion():
    brute = Path(__file__).resolve().parent / "brute.py"
    assert sorted(self_calling_functions(brute)) == ["assign", "dfs", "extend"]


def test_one_function_writes_indented_json():
    # every indented output goes through verifier.dumps_indented, whose C
    # encoder is byte-identical to this stdlib call it falls back to
    writers = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in indented_json_writers(path.read_text(encoding="utf-8"))
    }
    assert writers == {"verifier.dumps_indented"}


WRITERS = '''\
import json

print(json.dumps({}, indent=1))


def emit(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def report(payload):
    def inner():
        return json.dumps(payload, indent=2)

    return inner() + json.dumps(payload, sort_keys=True)
'''


def test_the_check_sees_indented_json_writers():
    assert indented_json_writers(WRITERS) == ["<module>", "emit", "inner"]


# the condition registry's public face: every other name a module imports
# from conditions would bind a condition id to a predicate a second time
REGISTRY_NAMES = {"CONDITION_IDS", "build_registry"}


def test_only_the_registry_binds_conditions():
    extra = {}
    for name in ("cli.py", "verifier.py"):
        imported = names_imported_from((SRC / name).read_text(encoding="utf-8"), "conditions")
        extra[name] = [n for n in imported if n not in REGISTRY_NAMES]
    assert extra == {"cli.py": [], "verifier.py": []}


IMPORTS = '''\
from .conditions import CONDITION_IDS, dirac
from .conditions import (
    build_registry,
    woodall,
)
from zham.conditions import faudree
from .core import Graph


def f():
    from .conditions import zhu_digraph
'''


def test_the_check_sees_condition_imports():
    assert names_imported_from(IMPORTS, "conditions") == [
        "CONDITION_IDS", "dirac", "build_registry", "woodall", "faudree", "zhu_digraph",
    ]


# what a table of the instance kinds is keyed by: the value types, their
# header letters or their kind names
KIND_KEYS = {"Digraph", "BipartiteGraph", "Graph", "D", "B", "G", "digraph", "bipartite", "graph"}
# functions that bind solvers or tables per kind when they run, so that a
# rebinding (the benchmark tracer's) is seen
KIND_KEYED_AT_CALL_TIME = {"verifier.build_claims", "cli._conditions_for"}


def kind_keyed_dicts(text):
    """Where Python source ``text`` writes a dict display with a key in
    ``KIND_KEYS`` (a bare name or a string constant): the innermost enclosing
    function, else the module-level name assigned, one entry per display."""
    tree = ast.parse(text)
    scopes = {
        node: node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if isinstance(target, ast.Name):
                scopes[node] = target.id
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Name) and key.id in KIND_KEYS
            or isinstance(key, ast.Constant) and key.value in KIND_KEYS
            for key in node.keys
        ):
            enclosing = [s for s in scopes if s.lineno <= node.lineno <= s.end_lineno]
            innermost = max(enclosing, key=lambda s: s.lineno) if enclosing else None
            found.append(scopes.get(innermost, "<module>"))
    return found


def test_one_table_of_instance_kinds():
    # core.KINDS and the class attributes of its value types state each
    # per-kind fact once; every other module derives its tables from them
    tables = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "core.py"
        for name in kind_keyed_dicts(path.read_text(encoding="utf-8"))
    }
    assert tables - KIND_KEYED_AT_CALL_TIME == set()


KIND_TABLES = '''\
from .core import BipartiteGraph, Digraph, Graph

LABELS = {Digraph: "digraph", BipartiteGraph: "bipartite", Graph: "undirected"}
LETTERS: dict = {"D": 1, "B": 2, "G": 3}
DERIVED = {cls.letter: cls for cls in (Digraph, Graph)}
OTHER = {"dirac": ("graph", None)}


def pick(kind):
    caps = {"digraph": 5, "bipartite": 5}
    return caps[kind]
'''


def test_the_check_sees_kind_tables():
    assert kind_keyed_dicts(KIND_TABLES) == ["LABELS", "LETTERS", "pick"]


def third_party_imports(text):
    """Top-level names of the modules that Python source ``text`` imports
    from outside the standard library and outside zham itself."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"zham"}


def test_third_party_imports_are_the_declared_dependencies():
    # every module the library imports from outside the standard library is
    # a declared runtime dependency, and every declared one is used
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower() for dep in project["dependencies"]}
    imported = set().union(
        *(third_party_imports(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py"))
    )
    assert imported == declared == {"orjson"}


THIRD_PARTY = '''\
from __future__ import annotations

import json
import os.path, numpy.linalg
from collections import Counter
from .core import Graph
from zham.core import Digraph


def f():
    import orjson
'''


def test_the_check_sees_third_party_imports():
    assert third_party_imports(THIRD_PARTY) == {"numpy", "orjson"}


COUNTED = '''\
"""Module docstring
on two lines."""

import os  # a trailing comment leaves the line counted

# a comment line


def f(x):
    """Docstring."""
    s = """a string value
on two lines"""
    return (x +
            1)


class C:
    "one-line docstring"

    y = 1
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert sorted(code_lines(COUNTED)) == [4, 9, 11, 12, 13, 14, 17, 20]


if __name__ == "__main__":
    counts = module_code_lines()
    for name, count in counts.items():
        print(f"{name:<16}{count:>6,}")
    print(f"{'total':<16}{sum(counts.values()):>6,}")
