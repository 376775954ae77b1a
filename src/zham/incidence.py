"""Incidence-matrix builders and column-shape validators.

Sign convention for digraphs: +1 marks the arc tail, -1 the head.  Columns
are always in ascending (lexicographic) arc/edge order and rows follow vertex
order, so matrices are reproducible.  A matrix is a tuple of int rows with
entries in {-1, 0, +1}.
"""

from __future__ import annotations

from .core import BipartiteGraph, Digraph, Graph

Matrix = tuple[tuple[int, ...], ...]


def _incidence(rows: int, pairs, offset: int, head: int) -> Matrix:
    """rows x |pairs| matrix; the column for pair (u, v), in ascending pair
    order, has +1 at row u and ``head`` at row offset + v."""
    cols = sorted(pairs)
    c = [[0] * len(cols) for _ in range(rows)]
    for k, (u, v) in enumerate(cols):
        c[u - 1][k] = 1
        c[offset + v - 1][k] = head
    return tuple(map(tuple, c))


def incidence_matrix(d: Digraph) -> Matrix:
    """n x |A| matrix; the column for arc (u, v) has +1 at row u, -1 at row v."""
    return _incidence(d.n, d.arcs, 0, -1)


def graph_incidence(g: Graph) -> Matrix:
    """n x |E| matrix; the column for edge {u, v} has +1 at rows u and v."""
    return _incidence(g.n, g.edges, 0, 1)


def bipartite_incidence(g: BipartiteGraph) -> Matrix:
    """2n x |E| matrix; rows 1..n are the x part, rows n+1..2n the y part.

    The column for edge (x_i, y_j) has +1 at row i and +1 at row n+j.
    """
    return _incidence(2 * g.n, g.edges, g.n, 1)


def _columns(c) -> list[tuple[int, ...]] | None:
    """Columns of ``c`` when it is a list or tuple of one or more equally
    long list or tuple rows of ints in {-1, 0, +1}; None for anything else."""
    if not isinstance(c, (list, tuple)) or not c:
        return None
    if any(not isinstance(row, (list, tuple)) or len(row) != len(c[0]) for row in c):
        return None
    if any(type(x) is not int or not -1 <= x <= 1 for row in c for x in row):
        return None
    return list(zip(*c))


def is_digraph_incidence(c) -> bool:
    """Each column holds exactly one +1 and one -1 (and nothing else)."""
    cols = _columns(c)
    return cols is not None and all(col.count(1) == col.count(-1) == 1 for col in cols)


def is_graph_incidence(c) -> bool:
    """Each column holds exactly two +1 entries and no -1."""
    cols = _columns(c)
    return cols is not None and all(col.count(1) == 2 and -1 not in col for col in cols)


def is_split_incidence(f) -> bool:
    """Stacked-form check: 2n rows, one +1 in the top half and one +1 in the
    bottom half per column (the shape the vertex-split transform produces)."""
    cols = _columns(f)
    if cols is None or len(f) % 2:
        return False
    n = len(f) // 2
    return all(-1 not in col and col[:n].count(1) == col[n:].count(1) == 1 for col in cols)
