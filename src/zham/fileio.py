"""Text edge-list format and DOT export.

Format, bit-exact: the first non-comment line is a header ``D <n>`` (digraph),
``B <n>`` (balanced bipartite, part size n) or ``G <n>`` (undirected); every
following non-comment line is ``u v`` — an arc u->v for D, the edge x_u—y_v
for B, the edge u—v for G.  ``#`` starts a comment line, indices are 1-based,
encoding is UTF-8 with LF line endings.  The header n and each index are an
optional ``-`` and ASCII digits.  Tokens are separated by ASCII spaces and
tabs only: outside comments, any other whitespace in a line (a no-break
space, U+000B, U+2028 ...) is a ``ParseError`` naming the line; a
carriage return at either end of a line, as a CRLF line end leaves, is
dropped with the spaces and tabs there.  Serialization always emits edges in
ascending order, so parse-serialize is a normalizing round trip.

A header n below 1 or above ``MAX_HEADER_N`` is refused with ``GraphError``
before anything is sized by it, and a file that is not UTF-8 is a
``ParseError``.
"""

from __future__ import annotations

from pathlib import Path

from .core import KINDS, BipartiteGraph, Digraph, Graph, GraphError

_HEADER_KINDS = {cls.letter: cls for cls in KINDS.values()}
_VALUE_TYPES = tuple(KINDS.values())

# largest header n accepted (vertices, or part size for B); building the
# per-vertex tables of a larger graph could exhaust memory before any arc is read
MAX_HEADER_N = 10**6


class ParseError(ValueError):
    """Malformed edge-list text; carries the 1-based offending line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        suffix = f" at line {line_no}" if line_no is not None else ""
        super().__init__(message + suffix)


def _content_lines(text):
    """(line number, line, tokens) of each line that is not blank or a
    comment, its tokens split at ASCII spaces and tabs."""
    # lines end at "\n" only: a comment may hold a raw U+2028 or U+0085,
    # which ``str.splitlines`` would also split on
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(" \t\r")  # "\r": a CRLF line's end
        if not line or line.startswith("#"):
            continue
        # a printable line holds no whitespace but spaces, so str.split
        # splits it at spaces and tabs alone
        if not line.isprintable() and any(c.isspace() and c not in " \t" for c in line):
            raise ParseError(f"whitespace other than space or tab in {line!r}", line_no)
        yield line_no, line, line.split()


def _index(token):
    """The integer ``token`` spells as an optional ``-`` and ASCII digits;
    ValueError for any other text, such as the ``+3``, ``1_0`` and non-ASCII
    digits that ``int`` alone would take."""
    if not (token.isascii() and token.lstrip("-").isdigit()):
        raise ValueError(f"not an index: {token!r}")
    return int(token)


def parse_graph_text(text: str):
    """Parse edge-list text into a Digraph, BipartiteGraph, or Graph.

    Raises ``ParseError`` for syntax problems; a header n below 1 or above
    ``MAX_HEADER_N`` raises ``GraphError`` naming the header line.  Each
    ``u v`` pair goes to the value type's validator as its line is read, so
    a bad pair is refused there (``VertexRangeError`` naming the vertex and,
    for B, its part, or ``SelfLoopError`` naming the vertex) with
    `` at line N`` appended.
    """
    lines = _content_lines(text)
    try:
        header_no, header, fields = next(lines)
    except StopIteration:
        raise ParseError("missing header line") from None
    if len(fields) != 2 or fields[0] not in _HEADER_KINDS:
        raise ParseError(
            f"header must be 'D <n>', 'B <n>' or 'G <n>', got {header!r}", header_no
        )
    try:
        n = _index(fields[1])
    except ValueError:
        raise ParseError(f"vertex count {fields[1]!r} is not an integer", header_no) from None
    if n < 1:
        raise GraphError(f"header size {n} is below 1 at line {header_no}")
    if n > MAX_HEADER_N:
        raise GraphError(f"header size {n} exceeds the cap of {MAX_HEADER_N} at line {header_no}")
    line_no = None

    def pairs():
        nonlocal line_no
        for line_no, line, tokens in lines:
            if len(tokens) != 2:
                raise ParseError(f"expected 'u v', got {line!r}", line_no)
            try:
                u, v = _index(tokens[0]), _index(tokens[1])
            except ValueError:
                raise ParseError(f"non-integer endpoint in {line!r}", line_no) from None
            yield u, v

    try:
        return _HEADER_KINDS[fields[0]](n, pairs())
    except GraphError as exc:  # the validator refused the pair on line_no
        raise type(exc)(f"{exc} at line {line_no}") from None


def parse_graph_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_graph_text(text)


def serialize_graph(obj) -> str:
    """Canonical text form: header plus ascending edge lines, LF-terminated.
    The header letter and the pairs are the ``letter`` and ``pairs`` of
    ``obj``'s ``core.KINDS`` type."""
    if not isinstance(obj, _VALUE_TYPES):
        raise GraphError(f"cannot serialize {type(obj).__name__}")
    lines = [f"{obj.letter} {obj.n}"] + [f"{u} {v}" for u, v in sorted(obj.pairs)]
    return "\n".join(lines) + "\n"


def write_graph_file(path, obj):
    Path(path).write_text(serialize_graph(obj), encoding="utf-8", newline="\n")


def to_dot(obj) -> str:
    """DOT rendering; bipartite x vertices draw as boxes, y vertices as circles."""
    if isinstance(obj, Digraph):
        body = "".join(f"  {u} -> {v};\n" for u, v in sorted(obj.arcs))
        return "digraph {\n" + body + "}\n"
    if isinstance(obj, BipartiteGraph):
        lines = ["graph {", "  rankdir=LR;", "  node [shape=box];"]
        lines += [f"  x{i};" for i in range(1, obj.n + 1)]
        lines.append("  node [shape=circle];")
        lines += [f"  y{j};" for j in range(1, obj.n + 1)]
        lines += [f"  x{i} -- y{j};" for i, j in sorted(obj.edges)]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, Graph):
        body = "".join(f"  {u} -- {v};\n" for u, v in sorted(obj.edges))
        return "graph {\n" + body + "}\n"
    raise GraphError(f"cannot render {type(obj).__name__}")
