"""Graph value types: digraphs, balanced bipartite graphs, plain undirected
graphs, plus cycle witnesses and matchings with certificate checking and
their one JSON encoding.

All types are immutable after construction and validate their invariants in
``__post_init__``; instances are safe to share between threads.  Vertices are
1-based integers; bipartite vertices are ``("x", i)`` / ``("y", j)`` tags.

Each type states its id space (see ``KINDS``): ids 1..n, or 1..2n for a
bipartite graph, whose x_i is id i and y_j id n + j.  Its index is over
those ids, one row per id, in one of two forms chosen by n: ``masks`` and
``rows`` (a digraph's out-rows; its in-rows are ``in_masks`` and
``_pred``).  Up to ``MASK_N`` the validating pass of its constructor fills
bitmask rows, bit w of row v for each id w adjacent to v, so a degree is
one ``int.bit_count`` and an adjacency test one shift; the ascending tuple
rows are derived from the masks on first read and then kept on the
instance.  Above it a bitmask row would be as wide as n, so the constructor
fills the tuple rows, and masks are derived only where a caller reads them
(the cycle search).  The same pass sizes each row, and from those sizes the
constructor sets ``degree_table``: the vertex labels and degrees in
``vertices()`` order ("x1".."xn", "y1".."yn" for a bipartite graph), plus a
digraph's out- and in-degrees in the same order.  The condition predicates,
the solvers' prunes, ``degrees`` and the verifier's counterexample details
all read this one table.  The cycle search and the certificate check walk
the ids alone, so neither tells the kinds apart.  Only ``core`` and the
solvers read the index; every other module asks the per-vertex accessors
(``successors``, ``neighbors_x``, ``degree`` and the rest), which take a
vertex of the value and raise ``VertexRangeError`` for anything else (the
row methods also take 0, an empty row).

``Digraph``, ``Graph`` and ``BipartiteGraph`` carry a private ``_memo`` dict,
set by the constructor beside the index, that the solvers and the Z-mapping
fill with facts derived deterministically from the value (strong
connectivity, a cycle search per node budget, the bipartite image).  Like
the index, the degree table and the derived rows, it is a plain instance
attribute and not a dataclass field, so it never takes part in equality,
hashing, ``repr`` or ``dataclasses.asdict``; all live exactly as long as
the instance, so the value stays immutable.  All are safe to share between
threads: a race at worst computes an equal result twice.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
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


# the largest n (vertex count, or part size) whose value is indexed by
# bitmask rows: each row is an int n + 1 bits wide, so a sparse value's masks
# grow quadratically in n; above it the constructor fills ascending tuple
# rows instead, linear in n + m
MASK_N = 256


def _index_pairs(obj, name, tables=(("masks", "rows"),), bipartite=False):
    """Validate and index the pairs field ``name`` of the value ``obj``.

    The one validator of the three graph types: ``n`` must be a positive
    int, each pair two int endpoints in 1..n and, unless ``bipartite``, no
    pair a self-loop.  A bipartite value's n is a part size and its messages
    name the part of an endpoint; its (i, i) joins x_i to y_i.  The field is
    set to the frozenset of the pairs as tuples, each normalised to
    (min, max) for a ``Graph``; a frozenset given in that form is kept as
    it is.

    ``tables`` names each index table as a (masks, rows) pair of
    attributes, a row per id: a digraph's table with a row per tail and
    one with a row per head, or one table filled from both ends.  A pair
    (u, v) joins id u to id v + s, where s is n for a bipartite value
    (x_i is id i and y_j id n + j, so its one table has 2n rows) and 0
    otherwise.  Up to ``MASK_N`` the validating pass sets bit v + s of row
    u of the first table and bit u of row v + s of the last, a repeated
    pair setting the same bits again; above it the pairs fill ascending
    tuple rows.  The form not filled is derived on its first read
    (``_forms``).  Also sets the value's empty ``_memo``.

    Returns the sizes of the rows of each table but row 0, popcounts of its
    masks or lengths of its tuple rows: the degrees the constructor
    tabulates, a bipartite value's x degrees then its y degrees.
    """
    n = obj.n
    size = "part size" if bipartite else "vertex count"
    parts = (" (x part)", " (y part)") if bipartite else ("", "")
    if not is_int(n) or n < 1:
        raise GraphError(f"{size} must be a positive integer, got {n!r}")
    undirected = len(tables) == 1 and not bipartite
    masked = n <= MASK_N
    shift = n if bipartite else 0
    first = [0] * (n + shift + 1)
    second = first if len(tables) == 1 else [0] * (n + 1)
    pairs = getattr(obj, name)
    # a frozenset of tuples already in normal form is kept as it is; other
    # input, perhaps a one-shot iterator whose items are checked as they
    # come, is gathered in normal form as it is read
    gather = type(pairs) is not frozenset
    exact, cleaned = not gather, set()
    for item in pairs:
        try:
            u, v = item
        except (TypeError, ValueError):
            raise GraphError(f"{item!r} is not a pair") from None
        if not (type(u) is int and type(v) is int and 0 < u <= n and 0 < v <= n):
            _check_endpoint(u, n, parts[0])
            _check_endpoint(v, n, parts[1])
        if not bipartite and u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if masked:
            first[u] |= 1 << v + shift
            second[v + shift] |= 1 << u
        if gather:
            cleaned.add((v, u) if undirected and v < u else (u, v))
        elif type(item) is not tuple or undirected and v < u:
            exact = False
    if not exact:
        pairs = cleaned if gather else {(v, u) if undirected and v < u else (u, v) for u, v in pairs}
    object.__setattr__(obj, name, frozenset(pairs))
    if not masked:
        first = [[] for _ in range(n + shift + 1)]
        # a Graph's one row per vertex gets its smaller neighbours, then its
        # larger ones, both ascending in sorted pair order
        second = first if len(tables) == 1 else [[] for _ in range(n + 1)]
        for u, v in sorted(getattr(obj, name)):
            first[u].append(v + shift)
            second[v + shift].append(u)
        first, second = map(tuple, first), map(tuple, second)
    sizes = []
    for (masks, rows), table in zip(tables, (first, second)):
        table = tuple(table)
        object.__setattr__(obj, masks if masked else rows, table)
        sizes.append(tuple(map(int.bit_count if masked else len, table[1:])))
    object.__setattr__(obj, "_memo", {})
    return sizes


def mask_select(universe, mask):
    """The items of ``universe`` at the set bits of ``mask``, lowest bit
    first: the one bit walk of the mask decoders and the derived rows."""
    out = []
    while mask:
        low = mask & -mask
        out.append(universe[low.bit_length() - 1])
        mask ^= low
    return out


def _bit_row(mask):
    """The ascending tuple row of the ids set in ``mask``."""
    return tuple(mask_select(range(mask.bit_length()), mask))


def _row_mask(row):
    """The bitmask of the ids in ``row``."""
    return sum(1 << w for w in row)


def _forms(masks="masks", rows="rows"):
    """The two forms of one index table, bitmask rows ``masks`` and tuple
    rows ``rows``, each as a cached_property that converts the other row by
    row.  Every type's first (or only) table is ``masks``/``rows``, a row
    per id; a digraph's second, its in-rows, is ``in_masks``/``_pred``.
    The constructor fills one form; the other is derived on its first read
    and stored in the instance __dict__, where every later read is a plain
    attribute lookup.  Neither is a dataclass field, so equality, hashing
    and repr ignore both."""
    return (
        cached_property(lambda self: tuple(map(_row_mask, getattr(self, rows)))),
        cached_property(lambda self: tuple(map(_bit_row, getattr(self, masks)))),
    )


def _id(host, vertex):
    """The id of ``vertex`` on ``host``, else ``VertexRangeError``: the
    range check of the per-vertex accessors, so that no index reads another
    vertex's row or degree.  The row methods answer index 0, the empty row
    0, without it."""
    if (i := host.id_of(vertex)) is None:
        raise VertexRangeError(f"{vertex!r} is not a vertex of this {host.kind} (n = {host.n})")
    return i


def _row_reader(rows, part=None):
    """The one body of the row methods: the tuple row ``rows`` of vertex u,
    ``(part, u)`` on a bipartite graph, or the empty row 0 for u = 0."""
    def row(self, u):
        return getattr(self, rows)[_id(self, (part, u) if part else u) if u != 0 else 0]

    return row


class _Value:
    """What the three value types share, stated once.

    The id space of a type whose vertices are their own ids: ``id_count``,
    ``id_of``, ``vertex_of`` and ``vertices`` over 1..n, the four members
    ``BipartiteGraph`` overrides.  Then the two forms of the index, a row
    per id (``masks`` and ``rows``), a vertex's ``degree`` and the repr.
    It has no annotations, so ``dataclasses.fields`` of a value type names
    only its ``n`` and its pair field; each type keeps its own
    ``__post_init__``.
    """

    id_count = property(attrgetter("n"))
    masks, rows = _forms()

    def id_of(self, v):
        """The id of witness entry ``v``: ``v`` itself when it is one of
        1..n, else None."""
        return v if is_int(v) and 0 < v <= self.n else None

    def vertex_of(self, i):
        return i

    def vertices(self):
        return range(1, self.n + 1)

    def degree(self, vertex):
        """The degree of ``vertex``; a digraph's total degree d+(u) + d-(u)."""
        return self.degree_table[1][_id(self, vertex) - 1]

    def __repr__(self):
        pairs = fields(self)[1].name
        return f"{type(self).__name__}(n={self.n}, {pairs}={sorted(self.pairs)})"


def arc_universe(n):
    """All possible loopless arcs on 1..n in lexicographic order."""
    return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]


def bipartite_edge_universe(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def graph_edge_universe(n):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


@dataclass(frozen=True, repr=False)
class Digraph(_Value):
    """Simple loopless directed graph on vertices 1..n with arc set ``arcs``."""

    kind = "digraph"
    letter = "D"
    label = "digraph (D header)"
    max_n = 5  # 2^20 instances
    universe = staticmethod(arc_universe)
    cycle_kind = DIGRAPH_CYCLE
    shortest_cycle = 2  # a digon uses two distinct arcs
    pairs = property(attrgetter("arcs"))
    in_masks, _pred = _forms("in_masks", "_pred")
    successors = _row_reader("rows")
    predecessors = _row_reader("_pred")

    n: int
    arcs: frozenset = frozenset()

    def __post_init__(self):
        outs, ins = _index_pairs(self, "arcs", (("masks", "rows"), ("in_masks", "_pred")))
        totals = tuple(map(int.__add__, outs, ins))
        object.__setattr__(self, "degree_table", (self.vertices(), totals, outs, ins))

    def out_degree(self, u):
        return self.degree_table[2][_id(self, u) - 1]

    def in_degree(self, u):
        return self.degree_table[3][_id(self, u) - 1]

    def has_arc(self, u, v):
        return (u, v) in self.arcs


def build_digraph(n, arcs):
    """Validated digraph from an arc list; duplicates collapse (set semantics)."""
    return Digraph(n, arcs)


@dataclass(frozen=True, repr=False)
class Graph(_Value):
    """Simple undirected graph on vertices 1..n; edges normalized to (min, max)."""

    kind = "graph"
    letter = "G"
    label = "undirected (G header)"
    max_n = 7  # 2^21 instances
    universe = staticmethod(graph_edge_universe)
    cycle_kind = GRAPH_CYCLE
    shortest_cycle = 3
    pairs = property(attrgetter("edges"))
    neighbors = _row_reader("rows")

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        (degrees,) = _index_pairs(self, "edges")
        object.__setattr__(self, "degree_table", (self.vertices(), degrees))

    def has_edge(self, u, v):
        return ((u, v) if u < v else (v, u)) in self.edges


@dataclass(frozen=True, repr=False)
class BipartiteGraph(_Value):
    """Balanced bipartite graph with parts x1..xn and y1..yn.

    An edge ``(i, j)`` joins x_i to y_j; both parts always have exactly n
    vertices, so balance is structural rather than checked.  Its index is
    over the ids 1..2n, x_i as id i and y_j as id n + j: x_i's mask has
    bit n + j for each neighbour y_j and y_j's mask bit i for each
    neighbour x_i, so a mask or row holds only ids of the other part.
    """

    kind = "bipartite"
    letter = "B"
    label = "bipartite (B header)"
    max_n = 5  # 2^25 instances
    universe = staticmethod(bipartite_edge_universe)
    cycle_kind = GRAPH_CYCLE
    shortest_cycle = 3
    pairs = property(attrgetter("edges"))
    id_count = property(lambda self: 2 * self.n)
    # x-indices adjacent to y_j, ascending
    neighbors_y = _row_reader("rows", "y")

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        (degrees,) = _index_pairs(self, "edges", bipartite=True)
        object.__setattr__(self, "degree_table", (_part_labels(self.n), degrees))

    def neighbors_x(self, i):
        """y-indices adjacent to x_i, ascending."""
        return tuple(w - self.n for w in self.rows[_id(self, ("x", i)) if i != 0 else 0])

    def degree_x(self, i):
        return self.degree(("x", i))

    def degree_y(self, j):
        return self.degree(("y", j))

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

    def has_edge(self, i, j):
        return (i, j) in self.edges


@lru_cache(maxsize=16)
def _part_labels(n):
    """"x1".."xn", "y1".."yn": the bipartite degree-table labels, one shared
    tuple per part size."""
    return tuple([f"x{i}" for i in range(1, n + 1)] + [f"y{j}" for j in range(1, n + 1)])


# the one table of instance kinds, kind name -> value type, in sweep order;
# each type states its kind's facts once, as plain class attributes (not
# fields, so equality, hashing and repr ignore them): ``kind``, its header
# ``letter``, the ``label`` messages name its input by, ``max_n``, the largest
# n it is enumerated exhaustively at, and ``universe(n)``, its possible
# arcs or edges in enumeration-bit order.  Beside them each has an id
# space, stated once in ``_Value`` for the types whose vertices are their own
# ids and overridden by ``BipartiteGraph``: ``id_count``, ``masks`` (bit w of
# mask v set for each id w adjacent to id v, mask 0 empty), ``rows`` (the
# same adjacency as ascending tuples), the one index the constructor fills in
# one form and the other derives; ``id_of`` (witness vertex -> id, None for a
# non-vertex) and ``vertex_of``; and each type states its cycle witnesses'
# ``cycle_kind`` and ``shortest_cycle`` and ``pairs``, its arc or edge set
KINDS = {cls.kind: cls for cls in (Digraph, BipartiteGraph, Graph)}


def degrees(d: Digraph):
    """Per-vertex (out, in, total) degree triples of a digraph, keyed by
    vertex; read from its ``degree_table``."""
    vertices, totals, outs, ins = d.degree_table
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
    and each consecutive pair tested against its id masks, or its id rows
    above ``MASK_N``, so a large sparse host builds no masks.  A bipartite
    mask or row holds only ids of the other part, so a path along them
    alternates parts.
    """
    if not (isinstance(host, _Value) and isinstance(witness, CycleWitness)):
        return False
    ids = [host.id_of(v) for v in witness.sequence]
    if witness.kind != host.cycle_kind or len(ids) < host.shortest_cycle or None in ids:
        return False
    steps = zip(ids, ids[1:] + ids[:1])
    if host.n > MASK_N:
        return len(set(ids)) == len(ids) and all(b in host.rows[a] for a, b in steps)
    masks = host.masks
    return len(set(ids)) == len(ids) and all(masks[a] >> b & 1 for a, b in steps)


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
