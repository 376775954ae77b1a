"""Vertex-split transform between digraphs and balanced bipartite graphs.

``zmap`` splits every vertex v of a digraph into an out-role x_v and an
in-role y_v and turns each arc u->v into the edge (x_u, y_v); ``unzmap``
inverts it.  The transform is a bijection between loopless digraphs on n
vertices and balanced bipartite graphs of part size n with no (x_i, y_i)
edge.  On top of it sit the two constructive conversions: a Hamiltonian
cycle of the bipartite image pulls back to a pair of spanning cycle factors,
and a Hamiltonian cycle of the digraph pushes forward to a perfect matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BipartiteGraph,
    CycleWitness,
    Digraph,
    GraphError,
    Matching,
    SelfLoopError,
    check_cycle,
)
from .incidence import Matrix, incidence_matrix, is_digraph_incidence


@dataclass(frozen=True)
class SplitPair:
    """Nonnegative / nonpositive halves of a digraph incidence matrix."""

    c_plus: Matrix
    c_minus: Matrix


def split_incidence(c: Matrix) -> SplitPair:
    """Split a digraph incidence matrix into its tail part (entries >= 0 kept,
    rest zeroed) and head part (entries <= 0 kept, rest zeroed)."""
    if not is_digraph_incidence(c):
        raise GraphError("not a digraph incidence matrix (each column needs one +1 and one -1)")
    return SplitPair(
        tuple(tuple(max(x, 0) for x in row) for row in c),
        tuple(tuple(min(x, 0) for x in row) for row in c),
    )


def zmap(d: Digraph) -> BipartiteGraph:
    """Bipartite image of a digraph: edge (x_u, y_v) per arc u->v.

    Degrees transport exactly: deg(x_i) = out-degree of i, deg(y_j) =
    in-degree of j, and |E| = |A|.  No (x_i, y_i) edge ever appears because
    the source is loopless.  The image is memoised on ``d``, so every caller
    shares one ``BipartiteGraph`` and with it that graph's memoised solves.
    """
    image = d._memo.get("zmap")
    if image is None:
        image = d._memo["zmap"] = BipartiteGraph(d.n, d.arcs)
    return image


def unzmap(g: BipartiteGraph) -> Digraph:
    """Inverse transform: arc u->v per edge (x_u, y_v).

    Rejects graphs with an (x_i, y_i) edge, which would create a self-loop.
    """
    for i, j in g.edges:
        if i == j:
            raise SelfLoopError(f"edge (x{i}, y{i}) would map to a self-loop")
    return Digraph(g.n, g.edges)


def f_matrix(d: Digraph) -> Matrix:
    """Stacked incidence [tail part; -head part] of the bipartite image.

    Equals ``bipartite_incidence(zmap(d))`` entry for entry: row i marks the
    out-role x_i, row n+j the in-role y_j.
    """
    pair = split_incidence(incidence_matrix(d))
    return pair.c_plus + tuple(tuple(-x for x in row) for row in pair.c_minus)


def ham_cycle_pullback(g: BipartiteGraph, witness: CycleWitness):
    """Split a Hamiltonian cycle of the bipartite image into its two
    alternating halves and map each back to an arc set of the source digraph.

    The 2n cycle edges are taken in traversal order; odd positions form the
    first half, even positions the second.  Each half is a perfect matching
    of ``g``, so each mapped arc set gives every vertex of the source
    out-degree 1 and in-degree 1 (a spanning cycle factor).  Neither half is
    promised to be one single cycle; callers must check connectivity.

    Returns ``(first, second)`` as frozensets of arcs.
    """
    for i, j in g.edges:
        if i == j:
            raise SelfLoopError(f"edge (x{i}, y{i}) admits no digraph preimage")
    if not (check_cycle(g, witness) and witness.is_hamiltonian(g)):
        raise GraphError("witness is not a Hamiltonian cycle of the bipartite graph")
    items = witness.items
    first = frozenset(items[0::2])
    second = frozenset(items[1::2])
    # A simple cycle never repeats an edge, so nothing can cancel between the
    # halves; a nonempty intersection would mean the witness was not simple.
    assert not (first & second)
    return first, second


def matching_pushforward(d: Digraph, witness: CycleWitness) -> Matching:
    """Image of a Hamiltonian cycle of ``d`` in the bipartite graph: each arc
    u->v of the cycle becomes the pair (x_u, y_v).

    The cycle visits every vertex once as a tail and once as a head, so the
    image is 1-regular, i.e. a perfect matching of ``zmap(d)``.
    """
    if not (check_cycle(d, witness) and witness.is_hamiltonian(d)):
        raise GraphError("witness is not a Hamiltonian cycle of the digraph")
    return Matching(frozenset(witness.items))
