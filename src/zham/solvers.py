"""Exact decision procedures used as ground truth: strong connectivity,
Hamiltonian cycle search, maximum matching, and disjoint-structure searches.

Every search is deterministic — candidates are tried in ascending vertex
order — so identical inputs always produce identical witnesses and identical
node counts.  Searches that can blow up exponentially take a node ``budget``;
running out is reported as an explicit outcome (``exhausted``), never
conflated with "not found".  Returned witnesses are self-certified against
the host before they leave a solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DIGRAPH_CYCLE,
    GRAPH_CYCLE,
    BipartiteGraph,
    CycleWitness,
    Digraph,
    Graph,
    GraphError,
    Matching,
    check_cycle,
)

DEFAULT_NODE_BUDGET = 10_000_000


class BudgetExhausted(Exception):
    """A search ran out of its node budget before reaching a decision."""


class _Budget:
    __slots__ = ("limit", "spent")

    def __init__(self, limit):
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit
        self.spent = 0

    def spend(self):
        self.spent += 1
        if self.spent > self.limit:
            raise BudgetExhausted


@dataclass(frozen=True)
class SolveResult:
    found: bool
    witness: CycleWitness | None
    nodes_explored: int
    exhausted: bool = False


@dataclass(frozen=True)
class DisjointPair:
    """Result of a two-disjoint-structure search (cycles or matchings)."""

    found: bool
    first: object | None
    second: object | None
    nodes_explored: int
    exhausted: bool = False


def strongly_connected_components(d: Digraph):
    """Tarjan's algorithm; components sorted internally, in completion order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = iter(range(d.n + 1))

    def connect(v):
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        for w in d.successors(v):
            if w not in index:
                connect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            components.append(tuple(sorted(comp)))

    for v in d.vertices():
        if v not in index:
            connect(v)
    return components


def strongly_connected(d: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    return len(strongly_connected_components(d)) == 1


def _search_cycle(n, start, neighbors, budget):
    """Generic backtracking cycle search over vertices 1..n (or 1..2n ids).

    Yields each spanning cycle as a tuple, always anchored at ``start`` and
    extending by the smallest unvisited neighbor first.
    """
    visited = bytearray(n + 1)
    visited[start] = 1
    path = [start]
    budget.spend()

    def extend(v):
        if len(path) == n:
            if start in neighbors(v):
                yield tuple(path)
            return
        for w in neighbors(v):
            if not visited[w]:
                visited[w] = 1
                path.append(w)
                budget.spend()
                yield from extend(w)
                path.pop()
                visited[w] = 0

    yield from extend(start)


def _first(iterator):
    for item in iterator:
        return item
    return None


def _digraph_viable(d: Digraph, k=1) -> bool:
    """n > 1, every in- and out-degree at least ``k``, and strongly connected.

    Necessary for a Hamiltonian cycle (k = 1) and for two arc-disjoint ones
    (k = 2).  Strong connectivity, the costly test, runs last.
    """
    return (
        d.n > 1
        and all(d.out_degree(v) >= k and d.in_degree(v) >= k for v in d.vertices())
        and strongly_connected(d)
    )


def _bipartite_viable(g: BipartiteGraph) -> bool:
    """Part size >= 2 and every vertex of degree >= 2: necessary for a
    Hamiltonian cycle and for two edge-disjoint perfect matchings."""
    return g.n >= 2 and all(
        g.degree_x(i) >= 2 and g.degree_y(i) >= 2 for i in range(1, g.n + 1)
    )


def _graph_viable(g: Graph) -> bool:
    return g.n >= 3 and all(g.degree(v) >= 2 for v in g.vertices())


def _bipartite_ids(g: BipartiteGraph):
    """Internal 1..2n ids: x_i -> i, y_j -> n+j, with merged adjacency."""
    n = g.n
    adj = [()] * (2 * n + 1)
    for i in range(1, n + 1):
        adj[i] = tuple(n + j for j in g.neighbors_x(i))
    for j in range(1, n + 1):
        adj[n + j] = g.neighbors_y(j)
    return adj


def _find_cycle(host, viable, budget) -> SolveResult:
    """Prune, search and certify: the body of every ``find_hamiltonian_cycle*``.

    ``viable`` is the host kind's necessary-condition prune; a certified
    cycle must pass it again.  A bipartite host is searched on the merged
    ids of ``_bipartite_ids`` (parts alternate by construction) and its
    witness is tagged back to ("x", i) / ("y", j) vertices.
    """
    b = _Budget(budget)
    if not viable(host):
        return SolveResult(False, None, 0)
    n = host.n
    bipartite = isinstance(host, BipartiteGraph)
    if bipartite:
        size, neighbors, kind = 2 * n, _bipartite_ids(host).__getitem__, GRAPH_CYCLE
    elif isinstance(host, Digraph):
        size, neighbors, kind = n, host.successors, DIGRAPH_CYCLE
    else:
        size, neighbors, kind = n, host.neighbors, GRAPH_CYCLE
    try:
        seq = _first(_search_cycle(size, 1, neighbors, b))
    except BudgetExhausted:
        return SolveResult(False, None, b.spent, exhausted=True)
    if seq is None:
        return SolveResult(False, None, b.spent)
    if bipartite:
        seq = tuple(("x", v) if v <= n else ("y", v - n) for v in seq)
    witness = CycleWitness(kind, seq)
    assert check_cycle(host, witness) and viable(host)
    return SolveResult(True, witness, b.spent)


def find_hamiltonian_cycle(d: Digraph, budget=None) -> SolveResult:
    """Exact backtracking search for a directed spanning cycle.

    Prunes upfront on zero in/out degree and on strong connectivity (both
    necessary); the witness starts at vertex 1 and takes the smallest
    successor at every branch.  A single vertex is never Hamiltonian (no
    loops); a digon counts as a valid 2-cycle.
    """
    return _find_cycle(d, _digraph_viable, budget)


def find_hamiltonian_cycle_bipartite(g: BipartiteGraph, budget=None) -> SolveResult:
    """Spanning cycle of length 2n in a balanced bipartite graph (needs n >= 2).

    Deterministic like the digraph solver: starts at x1, smallest neighbor
    first (y-part indices count from n+1 internally, so parts alternate by
    construction).
    """
    return _find_cycle(g, _bipartite_viable, budget)


def find_hamiltonian_cycle_undirected(g: Graph, budget=None) -> SolveResult:
    """Spanning cycle in a plain undirected graph (needs n >= 3)."""
    return _find_cycle(g, _graph_viable, budget)


def max_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching via Hopcroft-Karp layered augmentation.

    Deterministic under the fixed vertex order (free x vertices and adjacency
    are scanned ascending).
    """
    n = g.n
    INF = n + 1
    match_x = [0] * (n + 1)  # 0 = unmatched
    match_y = [0] * (n + 1)
    dist = [0] * (n + 1)

    def bfs():
        queue = []
        for i in range(1, n + 1):
            if match_x[i] == 0:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = INF
        found_free = False
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            for j in g.neighbors_x(i):
                nxt = match_y[j]
                if nxt == 0:
                    found_free = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[i] + 1
                    queue.append(nxt)
        return found_free

    def dfs(i):
        for j in g.neighbors_x(i):
            nxt = match_y[j]
            if nxt == 0 or (dist[nxt] == dist[i] + 1 and dfs(nxt)):
                match_x[i] = j
                match_y[j] = i
                return True
        dist[i] = INF
        return False

    while bfs():
        for i in range(1, n + 1):
            if match_x[i] == 0:
                dfs(i)
    return Matching(frozenset((i, match_x[i]) for i in range(1, n + 1) if match_x[i]))


def has_perfect_matching(g: BipartiteGraph) -> bool:
    return len(max_matching(g)) == g.n


def _iter_perfect_matchings(g: BipartiteGraph, budget):
    """All perfect matchings, ordered by ascending partner choice for x1, x2, ...

    Spends one budget node per tentative pair assignment.
    """
    n = g.n
    if any(g.degree_x(i) == 0 or g.degree_y(i) == 0 for i in range(1, n + 1)):
        return
    used = bytearray(n + 1)
    chosen = []

    def assign(i):
        if i > n:
            yield frozenset(chosen)
            return
        for j in g.neighbors_x(i):
            if not used[j]:
                used[j] = 1
                chosen.append((i, j))
                budget.spend()
                yield from assign(i + 1)
                chosen.pop()
                used[j] = 0

    yield from assign(1)


def enumerate_perfect_matchings(g: BipartiteGraph, budget=None):
    """Deterministic stream of every perfect matching of ``g``."""
    b = _Budget(budget)
    for pairs in _iter_perfect_matchings(g, b):
        yield Matching(pairs)


def enumerate_hamiltonian_cycles(d: Digraph, budget=None):
    """Deterministic stream of every Hamiltonian cycle of ``d``, anchored at 1."""
    b = _Budget(budget)
    if not _digraph_viable(d):
        return
    for seq in _search_cycle(d.n, 1, d.successors, b):
        yield CycleWitness(DIGRAPH_CYCLE, seq)


def find_two_disjoint_hamiltonian_cycles(d: Digraph, budget=None) -> DisjointPair:
    """First arc-disjoint pair of Hamiltonian cycles, if any.

    Enumerates Hamiltonian cycles in deterministic order; for each, removes
    its arcs and re-solves on the rest.  Both witnesses share one budget.
    """
    b = _Budget(budget)
    if not _digraph_viable(d, 2):
        return DisjointPair(False, None, None, 0)
    try:
        for first in _search_cycle(d.n, 1, d.successors, b):
            cycle_arcs = frozenset(
                (first[i], first[(i + 1) % d.n]) for i in range(d.n)
            )
            rest = Digraph(d.n, d.arcs - cycle_arcs)
            if not _digraph_viable(rest):
                continue
            second = _first(_search_cycle(rest.n, 1, rest.successors, b))
            if second is not None:
                w1 = CycleWitness(DIGRAPH_CYCLE, first)
                w2 = CycleWitness(DIGRAPH_CYCLE, second)
                assert check_cycle(d, w1) and check_cycle(rest, w2)
                return DisjointPair(True, w1, w2, b.spent)
    except BudgetExhausted:
        return DisjointPair(False, None, None, b.spent, exhausted=True)
    return DisjointPair(False, None, None, b.spent)


def find_two_disjoint_perfect_matchings(g: BipartiteGraph, budget=None) -> DisjointPair:
    """First edge-disjoint pair of perfect matchings, if any.

    Enumerates perfect matchings in deterministic order; for each, removes
    its edges and asks the matching solver for a second one.
    """
    b = _Budget(budget)
    if not _bipartite_viable(g):
        return DisjointPair(False, None, None, 0)
    try:
        for pairs in _iter_perfect_matchings(g, b):
            rest = BipartiteGraph(g.n, g.edges - pairs)
            second = max_matching(rest)
            if len(second) == g.n:
                first = Matching(pairs)
                assert first.is_perfect(g) and second.is_perfect(rest)
                return DisjointPair(True, first, second, b.spent)
    except BudgetExhausted:
        return DisjointPair(False, None, None, b.spent, exhausted=True)
    return DisjointPair(False, None, None, b.spent)


def extends_to_hamiltonian(g: BipartiteGraph, m: Matching, budget=None) -> bool:
    """True when some Hamiltonian cycle of ``g`` uses every pair of ``m``.

    A Hamiltonian cycle through a perfect matching m is exactly m plus a
    second, edge-disjoint perfect matching whose union with m is a single
    cycle; the search enumerates candidates for the second matching and
    checks that the composed successor map is one n-cycle.  Raises
    ``GraphError`` for a non-perfect or invalid matching and
    ``BudgetExhausted`` when the node budget runs out.
    """
    if not isinstance(m, Matching) or not m.is_perfect(g):
        raise GraphError("not a perfect matching of the graph")
    n = g.n
    if n == 1:
        return False
    b = _Budget(budget)
    partner = {i: j for i, j in m.pairs}
    used = bytearray(n + 1)
    chosen_y_of_x = [0] * (n + 1)

    def single_cycle():
        x_of_y = [0] * (n + 1)
        for i in range(1, n + 1):
            x_of_y[chosen_y_of_x[i]] = i
        seen = 1
        v = x_of_y[partner[1]]
        while v != 1:
            seen += 1
            v = x_of_y[partner[v]]
        return seen == n

    def assign(i):
        if i > n:
            return single_cycle()
        for j in g.neighbors_x(i):
            if not used[j] and partner[i] != j:
                used[j] = 1
                chosen_y_of_x[i] = j
                b.spend()
                if assign(i + 1):
                    return True
                used[j] = 0
        chosen_y_of_x[i] = 0
        return False

    return assign(1)
