"""Graph value types: digraphs, balanced bipartite graphs, plain undirected
graphs, plus cycle witnesses and matchings with certificate checking and
their one JSON encoding.

All types are immutable after construction and validate their invariants in
``__post_init__``; instances are safe to share between threads.  Vertices are
1-based integers; bipartite vertices are ``("x", i)`` / ``("y", j)`` tags.

Each graph type also states its id space (see ``KINDS``): ids 1..n, or 1..2n
for a bipartite graph, whose x_i is id i and y_j id n + j, with an adjacency
row per id.  The cycle search and the certificate check walk those ids alone,
so neither tells the kinds apart.

``Digraph``, ``Graph`` and ``BipartiteGraph`` carry a private ``_memo`` dict
that the solvers, the Z-mapping and the condition predicates fill with facts
derived deterministically from the value (strong connectivity, a cycle
search per node budget, the bipartite image, the ``degree_table``).  It
never takes part in equality, hashing or ``repr``, and it lives exactly as
long as the instance, so the value stays immutable.  It is safe to share
between threads: a race at worst computes an equal result twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter


class GraphError(ValueError):
    """Invalid graph data: bad endpoints, malformed certificates, bad inputs."""


class SelfLoopError(GraphError):
    """An arc or edge would join a vertex to itself."""


class VertexRangeError(GraphError):
    """An endpoint lies outside 1..n."""


DIGRAPH_CYCLE = "digraph-cycle"
GRAPH_CYCLE = "graph-cycle"


def is_int(x):
    """The one integer test of every input check: an int that is not a bool
    (``True`` is refused, other int subclasses are accepted)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_endpoint(v, n, where=""):
    if not is_int(v):
        raise GraphError(f"endpoint {v!r} is not an integer{where}")
    if not 1 <= v <= n:
        raise VertexRangeError(f"vertex {v} out of range 1..{n}{where}")


def _index_pairs(obj, name, rows, bipartite=False):
    """Validate and index the pairs field ``name`` of the value ``obj``.

    The one validator of the three graph types: ``n`` must be a positive
    int, each pair two int endpoints in 1..n and, unless ``bipartite``, no
    pair a self-loop.  A bipartite value's n is a part size and its messages
    name the part of an endpoint; its (i, i) joins x_i to y_i.  With two
    ``rows`` names the pairs fill a row per first endpoint and a row per
    second; with one (``Graph``) each pair is normalised to (min, max) and
    fills one row from both ends.  Rows come out ascending either way.
    """
    n = obj.n
    size = "part size" if bipartite else "vertex count"
    parts = (" (x part)", " (y part)") if bipartite else ("", "")
    if not is_int(n) or n < 1:
        raise GraphError(f"{size} must be a positive integer, got {n!r}")
    undirected = len(rows) == 1
    cleaned = set()
    for item in getattr(obj, name):
        try:
            u, v = item
        except (TypeError, ValueError):
            raise GraphError(f"{item!r} is not a pair") from None
        if not (type(u) is int and type(v) is int and 0 < u <= n and 0 < v <= n):
            _check_endpoint(u, n, parts[0])
            _check_endpoint(v, n, parts[1])
        if not bipartite and u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        cleaned.add((v, u) if undirected and v < u else (u, v))
    first = [[] for _ in range(n + 1)]
    # a Graph's one row per vertex gets its smaller neighbours, then its
    # larger ones, both ascending in sorted pair order
    second = first if undirected else [[] for _ in range(n + 1)]
    for u, v in sorted(cleaned):
        first[u].append(v)
        second[v].append(u)
    object.__setattr__(obj, name, frozenset(cleaned))
    for row, table in zip(rows, (first, second)):
        object.__setattr__(obj, row, tuple(map(tuple, table)))


def _own_id(host, v):
    """The id of witness entry ``v`` on a host whose vertices are their own
    ids: ``v`` itself when it is one of 1..n, else None."""
    return v if is_int(v) and 0 < v <= host.n else None


def _own_vertex(host, i):
    return i


def arc_universe(n):
    """All possible loopless arcs on 1..n in lexicographic order."""
    return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]


def bipartite_edge_universe(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def graph_edge_universe(n):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


@dataclass(frozen=True)
class Digraph:
    """Simple loopless directed graph on vertices 1..n with arc set ``arcs``."""

    kind = "digraph"
    letter = "D"
    label = "digraph (D header)"
    max_n = 5  # 2^20 instances
    universe = staticmethod(arc_universe)
    cycle_kind = DIGRAPH_CYCLE
    shortest_cycle = 2  # a digon uses two distinct arcs
    pairs = property(attrgetter("arcs"))
    id_count = property(attrgetter("n"))
    rows = property(attrgetter("_succ"))
    id_of = _own_id
    vertex_of = _own_vertex

    n: int
    arcs: frozenset = frozenset()
    _succ: tuple = field(init=False, repr=False, compare=False)
    _pred: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _index_pairs(self, "arcs", ("_succ", "_pred"))

    def vertices(self):
        return range(1, self.n + 1)

    def successors(self, u):
        return self._succ[u]

    def predecessors(self, u):
        return self._pred[u]

    def out_degree(self, u):
        return len(self._succ[u])

    def in_degree(self, u):
        return len(self._pred[u])

    def degree(self, u):
        """Total degree d(u) = d+(u) + d-(u)."""
        return len(self._succ[u]) + len(self._pred[u])

    def has_arc(self, u, v):
        return (u, v) in self.arcs

    def _degrees(self):
        outs = tuple(map(len, self._succ[1:]))
        ins = tuple(map(len, self._pred[1:]))
        return self.vertices(), tuple(map(int.__add__, outs, ins)), outs, ins

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


def build_digraph(n, arcs):
    """Validated digraph from an arc list; duplicates collapse (set semantics)."""
    return Digraph(n, arcs)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n; edges normalized to (min, max)."""

    kind = "graph"
    letter = "G"
    label = "undirected (G header)"
    max_n = 7  # 2^21 instances
    universe = staticmethod(graph_edge_universe)
    cycle_kind = GRAPH_CYCLE
    shortest_cycle = 3
    pairs = property(attrgetter("edges"))
    id_count = property(attrgetter("n"))
    rows = property(attrgetter("_adj"))
    id_of = _own_id
    vertex_of = _own_vertex

    n: int
    edges: frozenset = frozenset()
    _adj: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _index_pairs(self, "edges", ("_adj",))

    def vertices(self):
        return range(1, self.n + 1)

    def neighbors(self, u):
        return self._adj[u]

    def degree(self, u):
        return len(self._adj[u])

    def has_edge(self, u, v):
        return ((u, v) if u < v else (v, u)) in self.edges

    def _degrees(self):
        return self.vertices(), tuple(map(len, self._adj[1:]))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class BipartiteGraph:
    """Balanced bipartite graph with parts x1..xn and y1..yn.

    An edge ``(i, j)`` joins x_i to y_j; both parts always have exactly n
    vertices, so balance is structural rather than checked.
    """

    kind = "bipartite"
    letter = "B"
    label = "bipartite (B header)"
    max_n = 5  # 2^25 instances
    universe = staticmethod(bipartite_edge_universe)
    cycle_kind = GRAPH_CYCLE
    shortest_cycle = 3
    pairs = property(attrgetter("edges"))

    n: int
    edges: frozenset = frozenset()
    _adj_x: tuple = field(init=False, repr=False, compare=False)
    _adj_y: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _index_pairs(self, "edges", ("_adj_x", "_adj_y"), bipartite=True)

    def neighbors_x(self, i):
        """y-indices adjacent to x_i, ascending."""
        return self._adj_x[i]

    def neighbors_y(self, j):
        """x-indices adjacent to y_j, ascending."""
        return self._adj_y[j]

    def degree_x(self, i):
        return len(self._adj_x[i])

    def degree_y(self, j):
        return len(self._adj_y[j])

    @property
    def id_count(self):
        return 2 * self.n

    @property
    def rows(self):
        """Adjacency rows over the ids 1..2n, memoised: x_i's row holds n + j
        for each neighbour y_j and y_j's row the i of each neighbour x_i, so
        a row holds only ids of the other part.  Built on first use, never
        by the constructor."""
        rows = self._memo.get("rows")
        if rows is None:
            n = self.n
            x_rows = tuple(tuple(n + j for j in row) for row in self._adj_x[1:])
            rows = self._memo["rows"] = ((),) + x_rows + self._adj_y[1:]
        return rows

    def id_of(self, vertex):
        """x_i -> i, y_j -> n + j; None for anything that is not a vertex."""
        if isinstance(vertex, tuple) and len(vertex) == 2 and vertex[0] in ("x", "y"):
            side, i = vertex
            if is_int(i) and 0 < i <= self.n:
                return i if side == "x" else self.n + i
        return None

    def vertex_of(self, i):
        return ("x", i) if i <= self.n else ("y", i - self.n)

    def vertices(self):
        """All 2n part-tagged vertices, x part first."""
        return map(self.vertex_of, range(1, self.id_count + 1))

    def degree(self, vertex):
        side, i = vertex
        return self.degree_x(i) if side == "x" else self.degree_y(i)

    def has_edge(self, i, j):
        return (i, j) in self.edges

    def _degrees(self):
        parts = range(1, self.n + 1)
        labels = tuple([f"x{i}" for i in parts] + [f"y{j}" for j in parts])
        return labels, tuple(map(len, self._adj_x[1:] + self._adj_y[1:]))

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, edges={sorted(self.edges)})"


# the one table of instance kinds, kind name -> value type, in sweep order;
# each type states its kind's facts once, as plain class attributes (not
# fields, so equality, hashing and repr ignore them): ``kind``, its header
# ``letter``, the ``label`` messages name its input by, ``max_n``, the largest
# n it is enumerated exhaustively at, and ``universe(n)``, its possible
# arcs or edges in enumeration-bit order.  Beside them each states its id
# space: ``id_count``, ``rows`` (row v lists the ids adjacent to id v, row 0
# empty), ``id_of`` (witness vertex -> id, None for a non-vertex) and
# ``vertex_of``; its cycle witnesses' ``cycle_kind`` and ``shortest_cycle``;
# and ``pairs``, its arc or edge set
KINDS = {cls.kind: cls for cls in (Digraph, BipartiteGraph, Graph)}
_HOSTS = tuple(KINDS.values())


def degree_table(instance):
    """The degree table of ``instance``, memoised on it under "degrees": the
    vertex labels and degrees in ``vertices()`` order ("x1".."xn", "y1".."yn"
    for a bipartite graph), plus a digraph's out- and in-degrees in the same
    order, as its type's ``_degrees`` states them.  The condition predicates,
    ``degrees`` and the verifier's counterexample details all read this one
    table."""
    table = instance._memo.get("degrees")
    if table is None:
        table = instance._memo["degrees"] = instance._degrees()
    return table


def degrees(d: Digraph):
    """Per-vertex (out, in, total) degree triples of a digraph, keyed by
    vertex; read from ``degree_table``."""
    vertices, totals, outs, ins = degree_table(d)
    return dict(zip(vertices, zip(outs, ins, totals)))


def format_bipartite_vertex(vertex):
    """("x", 3) -> "x3"."""
    side, i = vertex
    return f"{side}{i}"


@dataclass(frozen=True)
class CycleWitness:
    """Closed vertex sequence certifying a simple cycle.

    ``sequence`` lists the visited vertices once each; the closing step back
    to the first vertex is implicit.  For bipartite hosts the entries are
    part-tagged vertices, otherwise plain integers.
    """

    kind: str
    sequence: tuple

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(self.sequence))

    @property
    def items(self):
        """Induced arcs/edges in traversal order (wrap-around included).

        Digraph cycles give ordered arcs; bipartite sequences give cross
        pairs ``(x_index, y_index)``; undirected integer sequences give
        (min, max) edges.  Only meaningful for well-formed witnesses.
        """
        seq = self.sequence
        length = len(seq)
        pairs = [(seq[i], seq[(i + 1) % length]) for i in range(length)]
        if self.kind == DIGRAPH_CYCLE:
            return tuple(pairs)
        out = []
        for a, b in pairs:
            if isinstance(a, tuple):
                out.append((a[1], b[1]) if a[0] == "x" else (b[1], a[1]))
            else:
                out.append((a, b) if a < b else (b, a))
        return tuple(out)

    def is_hamiltonian(self, host):
        return len(self.sequence) == host.id_count


def check_cycle(host, witness) -> bool:
    """True when ``witness`` certifies a simple cycle of ``host``.

    A valid certificate has pairwise-distinct vertices of the host with every
    consecutive pair (including the wrap-around) an arc/edge.  Digraph cycles
    may have length 2 (a digon uses two distinct arcs); undirected and
    bipartite cycles need length >= 3, and bipartite adjacency forces even
    length.  Never raises: malformed witnesses simply fail.

    One body for every host kind: the sequence is mapped to the host's ids
    and each consecutive pair tested against its rows.  A bipartite row holds
    only ids of the other part, so a path along the rows alternates parts.
    """
    if not (isinstance(host, _HOSTS) and isinstance(witness, CycleWitness)):
        return False
    ids = [host.id_of(v) for v in witness.sequence]
    if witness.kind != host.cycle_kind or len(ids) < host.shortest_cycle or None in ids:
        return False
    rows = host.rows
    return len(set(ids)) == len(ids) and all(b in rows[a] for a, b in zip(ids, ids[1:] + ids[:1]))


@dataclass(frozen=True)
class Matching:
    """Set of bipartite pairs (x_i, y_j), no two sharing an endpoint."""

    pairs: frozenset = frozenset()

    def __post_init__(self):
        cleaned = set()
        for item in self.pairs:
            try:
                i, j = item
            except (TypeError, ValueError):
                raise GraphError(f"{item!r} is not a pair") from None
            for v in (i, j):
                if not is_int(v) or v < 1:
                    raise GraphError(f"matching endpoint {v!r} is not a positive integer")
            cleaned.add((i, j))
        xs = [i for i, _ in cleaned]
        ys = [j for _, j in cleaned]
        if len(set(xs)) != len(cleaned) or len(set(ys)) != len(cleaned):
            raise GraphError("matching pairs share an endpoint")
        object.__setattr__(self, "pairs", frozenset(cleaned))

    def __len__(self):
        return len(self.pairs)

    def is_matching_of(self, g: BipartiteGraph) -> bool:
        return self.pairs <= g.edges

    def is_perfect(self, g: BipartiteGraph) -> bool:
        """Perfect = covers every vertex: n pairs, all edges of g."""
        return len(self.pairs) == g.n and self.is_matching_of(g)

    def __repr__(self):
        return f"Matching({sorted(self.pairs)})"


def pairs_json(pairs):
    """JSON form of a set of pairs (matching pairs, arc halves): sorted lists."""
    return [list(p) for p in sorted(pairs)]


def witness_json(witness):
    """JSON form of a solver witness; ``None`` (nothing found) stays ``None``.

    A cycle becomes its vertex sequence, bipartite vertices labelled like
    "x3"; a matching becomes its sorted pair list.
    """
    if witness is None:
        return None
    if isinstance(witness, Matching):
        return pairs_json(witness.pairs)
    return [
        format_bipartite_vertex(v) if isinstance(v, tuple) else v
        for v in witness.sequence
    ]
