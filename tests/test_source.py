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


def string_constant_counts(text, values):
    """How many times Python source ``text`` writes each string of ``values``
    as a string constant (an f-string's literal parts included)."""
    counts = dict.fromkeys(values, 0)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in counts:
            counts[node.value] += 1
    return counts


def _is_size(node):
    return (
        isinstance(node, ast.Name) and node.id == "n"
        or isinstance(node, ast.Attribute) and node.attr == "n"
    )


def size_literal_comparisons(text):
    """The comparisons in Python source ``text`` that set a size (the name
    ``n`` or an attribute ``.n``) directly beside an integer literal, as
    source text, in the order ``ast.walk`` visits them."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                _is_size(a) and isinstance(b, ast.Constant) and isinstance(b.value, int)
                or _is_size(b) and isinstance(a, ast.Constant) and isinstance(a.value, int)
                for a, b in zip(operands, operands[1:])
            ):
                found.append(ast.unparse(node))
    return found


def test_each_condition_is_stated_once():
    # a condition's id, minimum size and note are written in its _condition
    # declaration, whose one gate holds the only size test; the id appears
    # once more, in build_registry
    from zham.conditions import CONDITION_IDS

    text = (SRC / "conditions.py").read_text(encoding="utf-8")
    counts = string_constant_counts(text, CONDITION_IDS)
    assert {cid: count for cid, count in counts.items() if count > 2} == {}
    assert size_literal_comparisons(text) == []


DECLARED = '''\
@_condition("dirac", 3)
def dirac(g, n, k):
    """The "dirac" condition."""
    if n <= 2 or 3 > g.n:
        return f"{'dirac'}"
    if 1 < k < n or len(g) == 2 or g.n < k:
        return "faudree"
    return 2 * n > 5


REGISTRY = {"dirac": dirac}
'''


def test_the_check_sees_restated_conditions():
    assert string_constant_counts(DECLARED, ("dirac", "faudree", "zhu")) == {
        "dirac": 3, "faudree": 1, "zhu": 0,
    }
    assert size_literal_comparisons(DECLARED) == ["n <= 2", "3 > g.n"]


def restated_claim_ids(texts, claim_ids, condition_ids):
    """The claim ids that the Python sources ``texts`` together do not write
    exactly once as a string constant, with the number of times they do; an
    id that is also a condition id is expected twice, as its row's claim id
    and hypothesis."""
    counts = dict.fromkeys(claim_ids, 0)
    for text in texts:
        for cid, count in string_constant_counts(text, claim_ids).items():
            counts[cid] += count
    return {cid: count for cid, count in counts.items() if count != 1 + (cid in condition_ids)}


def test_each_claim_is_stated_once():
    # a claim's id, standing, kind source, conclusion and description are
    # written in its one build_claims row, and every other reader derives
    # from CLAIMS; conditions.py's own ids are test_each_condition_is_stated_once's
    from zham.conditions import CONDITION_IDS
    from zham.verifier import CLAIMS

    texts = [
        path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "conditions.py"
    ]
    assert restated_claim_ids(texts, CLAIMS, CONDITION_IDS) == {}


CLAIM_ROWS = '''\
rows = (
    ("thm-zg", False, _thm_zg_hypothesis, None, "thm-zg restated in prose"),
    ("dirac", True, "dirac", None, "dirac degree bound"),
    ("zhu", False, "zhu", None, f"{'zhu'} count"),
)
'''

CLAIM_READER = '''\
def is_main_theorem(claim_id):
    return claim_id == "thm-zg"
'''


def test_the_check_sees_restated_claims():
    ids = ("thm-zg", "dirac", "zhu", "mm-k")
    assert restated_claim_ids([CLAIM_ROWS, CLAIM_READER], ids, ("dirac", "zhu")) == {
        "thm-zg": 2, "zhu": 3, "mm-k": 0,
    }


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


# the value types whose id space, rows and pairs are stated on the type
VALUE_TYPES = {"Digraph", "Graph", "BipartiteGraph"}
# the one place that renders each kind's own DOT syntax
TYPE_TESTS_ALLOWED = {"fileio.to_dot"}


def _names_value_type(node):
    return (
        isinstance(node, ast.Name) and node.id in VALUE_TYPES
        or isinstance(node, ast.Attribute) and node.attr in VALUE_TYPES
        or isinstance(node, ast.Tuple) and any(_names_value_type(e) for e in node.elts)
    )


def value_type_tests(text):
    """Where Python source ``text`` tests a value against a named value type
    (``isinstance(x, Digraph)``, a tuple of types included, or ``cls is
    Digraph`` / ``is not``): the innermost enclosing function, else
    ``<module>``, one entry per test."""
    tree = ast.parse(text)
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            tested = (
                isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and _names_value_type(node.args[1])
            )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            tested = any(
                isinstance(op, (ast.Is, ast.IsNot))
                and (_names_value_type(a) or _names_value_type(b))
                for op, a, b in zip(node.ops, operands, operands[1:])
            )
        else:
            continue
        if tested:
            enclosing = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            found.append(max(enclosing, key=lambda f: f.lineno).name if enclosing else "<module>")
    return found


def test_no_module_dispatches_on_value_type():
    # each value type states its id space, rows and pairs itself, so the
    # certificate check, the cycle search and serialization read them
    # instead of telling the kinds apart
    tests = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "core.py"
        for name in value_type_tests(path.read_text(encoding="utf-8"))
    }
    assert tests - TYPE_TESTS_ALLOWED == set()


TYPE_TESTS = '''\
from . import core
from .core import KINDS, BipartiteGraph, Digraph, Graph

assert isinstance(KINDS["graph"](1), Graph)


def serialize(obj):
    cls = type(obj)
    pairs = obj.arcs if cls is Digraph else obj.edges
    return isinstance(obj, (core.BipartiteGraph, int)), pairs


def solve(host):
    def inner():
        return type(host) is not BipartiteGraph

    if isinstance(host, tuple(KINDS.values())) and host.kind == "digraph":
        return inner(), isinstance(host, dict), host is None
    return isinstance(host)
'''


def test_the_check_sees_value_type_tests():
    assert value_type_tests(TYPE_TESTS) == ["<module>", "serialize", "serialize", "inner"]


# a value type's private rows: a digraph's in-rows, the tuple form of its
# second index table
PRIVATE_ROWS = {"_pred"}

# every table of a value type's index, in either form
INDEX = {"masks", "rows", "in_masks", "_pred"}


def attribute_reads(text, names):
    """Where Python source ``text`` reads an attribute named in ``names``:
    the innermost enclosing function, else ``<module>``, one entry per
    read."""
    tree = ast.parse(text)
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            enclosing = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            found.append(max(enclosing, key=lambda f: f.lineno).name if enclosing else "<module>")
    return found


def _reads_outside(names, allowed):
    return {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in allowed
        for name in attribute_reads(path.read_text(encoding="utf-8"), names)
    }


def test_only_core_reads_private_rows():
    # the row layout is core's decision: the solvers read the public index
    # tables, other modules the degree accessors and row methods
    assert _reads_outside(PRIVATE_ROWS, {"core.py"}) == set()


def test_only_core_and_solvers_read_the_index():
    # the id-space layout (y_j as id n + j for a bipartite graph) is known
    # to the module that fills the index and the one whose searches walk
    # it; every other module asks the per-vertex accessors
    assert _reads_outside(INDEX, {"core.py", "solvers.py"}) == set()


ROW_READS = '''\
rows = GRAPH._pred


def reach(d):
    return walk(d._pred, d.n) and walk(d.rows, d.n)


def cycles(d, g):
    def inner():
        return g.masks[1], d.in_masks, d._predecessors

    return g.rows, inner(), getattr(d, "_pred"), d.successors(1)
'''


def test_the_check_sees_private_row_reads():
    assert sorted(attribute_reads(ROW_READS, PRIVATE_ROWS)) == ["<module>", "reach"]


def test_the_check_sees_index_reads():
    assert sorted(attribute_reads(ROW_READS, INDEX)) == [
        "<module>", "cycles", "inner", "inner", "reach", "reach",
    ]


def non_init_fields(text):
    """The dataclass fields that Python source ``text`` declares with
    ``init=False`` (``name: T = field(..., init=False)`` in a class body,
    ``dataclasses.field`` included), as ``Class.name``, in the order
    ``ast.walk`` visits them."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                call = stmt.value if isinstance(stmt, ast.AnnAssign) else None
                if (
                    isinstance(call, ast.Call)
                    and (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == "field"
                    and any(
                        kw.arg == "init" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                        for kw in call.keywords
                    )
                ):
                    found.append(f"{node.name}.{stmt.target.id}")
    return found


def test_derived_state_is_no_dataclass_field():
    # a field left out of __init__ holds state derived from the others, yet
    # dataclasses.fields, asdict and astuple still list it; derived state is
    # a plain instance attribute instead
    fields = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in non_init_fields(path.read_text(encoding="utf-8"))
    }
    assert fields == set()


FIELDS = '''\
import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Value:
    n: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    details: dict = field(default_factory=dict, compare=False)
    cache: dict = dataclasses.field(init=False)
    shown: int = field(init=True)


@dataclass
class Other:
    count: int = 0

    def method(self):
        local: int = field(init=False)
        return local
'''


def test_the_check_sees_non_init_fields():
    assert non_init_fields(FIELDS) == ["Value._memo", "Value.cache"]


def raised_names(text):
    """Names of the exceptions that Python source ``text`` raises by name
    (``raise E``, ``raise E(...)``, ``raise mod.E(...)``), one per raise
    statement, in the order ``ast.walk`` visits them."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.append(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.append(exc.attr)
    return found


def test_one_pair_validator():
    # core._index_pairs is the only check of a pair's range; the parser and
    # every other caller leave a bad pair to it
    raisers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "VertexRangeError" in raised_names(path.read_text(encoding="utf-8"))
    }
    assert raisers == {"core.py"}


RAISES = '''\
from . import core
from .core import GraphError, VertexRangeError


def check(v, n):
    if v > n:
        raise VertexRangeError(f"vertex {v}")
    if v < 1:
        raise core.VertexRangeError
    try:
        return n // v
    except ZeroDivisionError as exc:
        raise type(exc)(f"{exc} at v") from None
    raise GraphError("unreachable") from None
'''


def test_the_check_sees_raised_names():
    assert sorted(raised_names(RAISES)) == ["GraphError", "VertexRangeError", "VertexRangeError"]


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


# the code lines of src/zham as ``module_code_lines`` counts them; a change
# that adds code raises this in its own diff, one that removes code lowers it
CODE_LINE_BUDGET = 1_851


def test_code_lines_within_budget():
    assert sum(module_code_lines().values()) <= CODE_LINE_BUDGET

if __name__ == "__main__":
    counts = module_code_lines()
    for name, count in counts.items():
        print(f"{name:<16}{count:>6,}")
    print(f"{'total':<16}{sum(counts.values()):>6,}")
