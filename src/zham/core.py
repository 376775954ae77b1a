"""Graph value types: digraphs, balanced bipartite graphs, plain undirected
graphs, plus cycle witnesses and matchings with certificate checking and
their one JSON encoding.

All types are immutable after construction and validate their invariants in
``__post_init__``; instances are safe to share between threads.  Vertices are
1-based integers; bipartite vertices are ``("x", i)`` / ``("y", j)`` tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class GraphError(ValueError):
    """Invalid graph data: bad endpoints, malformed certificates, bad inputs."""


class SelfLoopError(GraphError):
    """An arc or edge would join a vertex to itself."""


class VertexRangeError(GraphError):
    """An endpoint lies outside 1..n."""


DIGRAPH_CYCLE = "digraph-cycle"
GRAPH_CYCLE = "graph-cycle"


def _check_endpoint(v, n, where=""):
    if not isinstance(v, int) or isinstance(v, bool):
        raise GraphError(f"endpoint {v!r} is not an integer{where}")
    if not 1 <= v <= n:
        raise VertexRangeError(f"vertex {v} out of range 1..{n}{where}")


def _as_pair(item):
    try:
        u, v = item
    except (TypeError, ValueError):
        raise GraphError(f"{item!r} is not a pair") from None
    return u, v


@dataclass(frozen=True)
class Digraph:
    """Simple loopless directed graph on vertices 1..n with arc set ``arcs``."""

    n: int
    arcs: frozenset = frozenset()
    _succ: tuple = field(init=False, repr=False, compare=False)
    _pred: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {self.n!r}")
        n = self.n
        cleaned = set()
        for item in self.arcs:
            u, v = _as_pair(item)
            _check_endpoint(u, n)
            _check_endpoint(v, n)
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            cleaned.add((u, v))
        succ = [[] for _ in range(n + 1)]
        pred = [[] for _ in range(n + 1)]
        for u, v in sorted(cleaned):
            succ[u].append(v)
            pred[v].append(u)
        object.__setattr__(self, "arcs", frozenset(cleaned))
        object.__setattr__(self, "_succ", tuple(map(tuple, succ)))
        object.__setattr__(self, "_pred", tuple(map(tuple, pred)))

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

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


def build_digraph(n, arcs):
    """Validated digraph from an arc list; duplicates collapse (set semantics)."""
    return Digraph(n, frozenset(tuple(_as_pair(a)) for a in arcs))


def degrees(d: Digraph):
    """Per-vertex (out, in, total) degree triples, keyed by vertex."""
    return {v: (d.out_degree(v), d.in_degree(v), d.degree(v)) for v in d.vertices()}


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n; edges normalized to (min, max)."""

    n: int
    edges: frozenset = frozenset()
    _adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {self.n!r}")
        n = self.n
        cleaned = set()
        for item in self.edges:
            u, v = _as_pair(item)
            _check_endpoint(u, n)
            _check_endpoint(v, n)
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            cleaned.add((u, v) if u < v else (v, u))
        adj = [[] for _ in range(n + 1)]
        for u, v in sorted(cleaned):
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "edges", frozenset(cleaned))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    def vertices(self):
        return range(1, self.n + 1)

    def neighbors(self, u):
        return self._adj[u]

    def degree(self, u):
        return len(self._adj[u])

    def has_edge(self, u, v):
        return ((u, v) if u < v else (v, u)) in self.edges

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class BipartiteGraph:
    """Balanced bipartite graph with parts x1..xn and y1..yn.

    An edge ``(i, j)`` joins x_i to y_j; both parts always have exactly n
    vertices, so balance is structural rather than checked.
    """

    n: int
    edges: frozenset = frozenset()
    _adj_x: tuple = field(init=False, repr=False, compare=False)
    _adj_y: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise GraphError(f"part size must be a positive integer, got {self.n!r}")
        n = self.n
        cleaned = set()
        for item in self.edges:
            i, j = _as_pair(item)
            _check_endpoint(i, n, " (x part)")
            _check_endpoint(j, n, " (y part)")
            cleaned.add((i, j))
        adj_x = [[] for _ in range(n + 1)]
        adj_y = [[] for _ in range(n + 1)]
        for i, j in sorted(cleaned):
            adj_x[i].append(j)
            adj_y[j].append(i)
        object.__setattr__(self, "edges", frozenset(cleaned))
        object.__setattr__(self, "_adj_x", tuple(map(tuple, adj_x)))
        object.__setattr__(self, "_adj_y", tuple(tuple(sorted(a)) for a in adj_y))

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

    def vertices(self):
        """All 2n part-tagged vertices, x part first."""
        for i in range(1, self.n + 1):
            yield ("x", i)
        for j in range(1, self.n + 1):
            yield ("y", j)

    def degree(self, vertex):
        side, i = vertex
        return self.degree_x(i) if side == "x" else self.degree_y(i)

    def has_edge(self, i, j):
        return (i, j) in self.edges

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, edges={sorted(self.edges)})"


def format_bipartite_vertex(vertex):
    """("x", 3) -> "x3"."""
    side, i = vertex
    return f"{side}{i}"


def _is_bipartite_vertex(item, n):
    return (
        isinstance(item, tuple)
        and len(item) == 2
        and item[0] in ("x", "y")
        and isinstance(item[1], int)
        and not isinstance(item[1], bool)
        and 1 <= item[1] <= n
    )


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
        target = 2 * host.n if isinstance(host, BipartiteGraph) else host.n
        return len(self.sequence) == target


def check_cycle(host, witness) -> bool:
    """True when ``witness`` certifies a simple cycle of ``host``.

    A valid certificate has pairwise-distinct vertices of the host with every
    consecutive pair (including the wrap-around) an arc/edge.  Digraph cycles
    may have length 2 (a digon uses two distinct arcs); undirected and
    bipartite cycles need length >= 3, and bipartite adjacency forces even
    length.  Never raises: malformed witnesses simply fail.
    """
    if not isinstance(witness, CycleWitness):
        return False
    seq = witness.sequence
    length = len(seq)

    if isinstance(host, Digraph):
        if witness.kind != DIGRAPH_CYCLE or length < 2:
            return False
        if any(not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= host.n for v in seq):
            return False
        if len(set(seq)) != length:
            return False
        arcs = host.arcs
        return all((seq[i], seq[(i + 1) % length]) in arcs for i in range(length))

    if isinstance(host, BipartiteGraph):
        if witness.kind != GRAPH_CYCLE or length < 3:
            return False
        if any(not _is_bipartite_vertex(v, host.n) for v in seq):
            return False
        if len(set(seq)) != length:
            return False
        edges = host.edges
        for i in range(length):
            a, b = seq[i], seq[(i + 1) % length]
            if a[0] == b[0]:
                return False
            edge = (a[1], b[1]) if a[0] == "x" else (b[1], a[1])
            if edge not in edges:
                return False
        return True

    if isinstance(host, Graph):
        if witness.kind != GRAPH_CYCLE or length < 3:
            return False
        if any(not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= host.n for v in seq):
            return False
        if len(set(seq)) != length:
            return False
        return all(host.has_edge(seq[i], seq[(i + 1) % length]) for i in range(length))

    return False


@dataclass(frozen=True)
class Matching:
    """Set of bipartite pairs (x_i, y_j), no two sharing an endpoint."""

    pairs: frozenset = frozenset()

    def __post_init__(self):
        cleaned = set()
        for item in self.pairs:
            i, j = _as_pair(item)
            for v in (i, j):
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
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
