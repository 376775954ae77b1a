"""Exact decision procedures used as ground truth: strong connectivity,
Hamiltonian cycle search, maximum matching, and disjoint-structure searches.

Every search is deterministic — candidates are tried in ascending vertex
order — so identical inputs always produce identical witnesses and identical
node counts.  Searches that can blow up exponentially take a node ``budget``;
running out is reported as an explicit outcome (``exhausted``), never
conflated with "not found".  Returned witnesses are self-certified against
the host before they leave a solver.  Strong connectivity and each
Hamiltonian cycle search (per node budget) are memoised on the instance, so
repeated questions about one value are answered once.  Every search walks
the index of the id space the host's type states (ids 1..``id_count``,
their adjacency ``masks`` and ``rows``), the one index its constructor
fills.  One cycle search serves every kind and maps the ids it finds back
to the host's vertices.  Strong connectivity grows reached-id masks along
the same bitmask rows (a Tarjan walk over the tuple rows of a digraph
above ``core.MASK_N``).  The matching searches walk a bipartite host's id
rows, in which y_j is id n + j (``max_matching`` reads only its n x rows,
decoded from their masks up to ``MASK_N``), and every prune reads the
host's ``degree_table``.

Every search keeps its own stack instead of recursing, so each works for
any n.  ``extends_to_hamiltonian`` has no search of its own: it asks the
cycle search about the Z-mapping preimage of the graph with the matching
contracted.  ``nodes_explored`` of a cycle search counts the nodes of the
full backtracking tree, so a budget means the same number of nodes as a
node-by-node walk; but a subtree below an interior (visited set, end vertex)
state that held no cycle is walked once and charged from a table on every
later visit.  The table holds at most one entry per distinct interior state
walked and is dropped when the search ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DIGRAPH_CYCLE,
    MASK_N,
    BipartiteGraph,
    CycleWitness,
    Digraph,
    Graph,
    GraphError,
    Matching,
    check_cycle,
    mask_select,
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
    """Tarjan's algorithm; components sorted internally, in completion order.

    The depth-first walk keeps its own stack of (vertex, successor iterator)
    frames, so any n works.
    """
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    for root in d.vertices():
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        walk = [(root, iter(d.rows[root]))]
        while walk:
            v, successors = walk[-1]
            for w in successors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    walk.append((w, iter(d.rows[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                walk.pop()
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    components.append(tuple(sorted(comp)))
    return components


def _reaches_all(masks, n):
    """True when every vertex of 1..n is reachable from vertex 1 along the
    bitmask rows ``masks``: each reached vertex not yet expanded (a bit of
    ``frontier``) adds the unreached bits of its row to both masks."""
    seen = frontier = 2
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = masks[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << (n + 1)) - 2


def strongly_connected(d: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    Two sweeps from vertex 1, one forward over the out-masks and one
    backward over the in-masks; above ``MASK_N``, where a digraph is
    indexed by tuple rows, one Tarjan walk over them instead, so any n
    works in time linear in its index.  The answer is memoised on ``d``.
    """
    strong = d._memo.get("strongly_connected")
    if strong is None:
        strong = d._memo["strongly_connected"] = (
            _reaches_all(d.masks, d.n) and _reaches_all(d.in_masks, d.n)
            if d.n <= MASK_N
            else len(strongly_connected_components(d)) == 1
        )
    return strong


def _search_cycle(n, start, adj, budget):
    """Backtracking cycle search over the ids 1..n of a host's id space.

    ``adj[v]`` is the adjacency bitmask of v (bit w set for each neighbor w).
    Yields each spanning cycle as a tuple, always anchored at ``start`` and
    extending by the smallest unvisited neighbor (lowest bit) first.

    The walk keeps an explicit stack, so any n works.  ``budget`` is charged
    one node per path prefix of the full backtracking tree, yet no subtree
    that held no cycle is walked twice: what lies below a path depends only
    on its (visited set, end vertex) state, so the ``dead`` table keeps the
    node count of each such interior subtree and a repeated state is charged
    from it.  Leaves and dead ends, which cost no more to re-walk than to
    look up, stay out of the table.  ``budget`` is re-read after each yield:
    a caller may spend from it while the search is suspended.
    """
    budget.spend()
    limit = budget.limit
    spent = budget.spent
    start_bit = 1 << start
    full = (1 << (n + 1)) - 2
    dead = {}
    found = 0
    path = [start]
    visited = start_bit
    # the top frame lives in locals; ``frames`` holds the ones below it
    frames = []
    v, todo, entry, entry_found = start, adj[start] & ~start_bit, spent, 0
    while True:
        if todo:
            low = todo & -todo
            todo ^= low
            spent += 1
            if spent > limit:
                budget.spent = spent
                raise BudgetExhausted
            w = low.bit_length() - 1
            state = visited | low
            if state == full:
                if adj[w] & start_bit:
                    found += 1
                    budget.spent = spent
                    yield (*path, w)
                    spent = budget.spent
                continue
            below = dead.get((state, w))
            if below is not None:
                spent += below
                if spent > limit:
                    budget.spent = limit + 1
                    raise BudgetExhausted
                continue
            step = adj[w] & ~state
            if step:
                frames.append((v, todo, entry, entry_found))
                v, todo, entry, entry_found = w, step, spent, found
                visited = state
                path.append(w)
        elif frames:
            if found == entry_found:
                dead[visited, v] = spent - entry
            visited ^= 1 << v
            path.pop()
            v, todo, entry, entry_found = frames.pop()
        else:
            break
    budget.spent = spent


def _digraph_viable(d: Digraph, k=1) -> bool:
    """n > 1, every in- and out-degree at least ``k``, and strongly connected.

    Necessary for a Hamiltonian cycle (k = 1) and for two arc-disjoint ones
    (k = 2).  Strong connectivity, the costly test, runs last.
    """
    # d.degree_table[2:] holds the out-degrees and the in-degrees
    return d.n > 1 and min(map(min, d.degree_table[2:])) >= k and strongly_connected(d)


def _bipartite_viable(g: BipartiteGraph) -> bool:
    """Part size >= 2 and every vertex of degree >= 2: necessary for a
    Hamiltonian cycle and for two edge-disjoint perfect matchings."""
    return g.n >= 2 and min(g.degree_table[1]) >= 2


def _graph_viable(g: Graph) -> bool:
    return g.n >= 3 and min(g.degree_table[1]) >= 2


def _find_cycle(host, viable, budget) -> SolveResult:
    """Prune, search and certify: the body of every ``find_hamiltonian_cycle*``.

    ``viable`` is the host kind's necessary-condition prune.  The search
    walks the host's ids and masks (for a bipartite host x_i is id i and
    y_j id n + j, and a mask holds only ids of the other part, so parts
    alternate by construction) and its witness maps each id back to a
    vertex of the host.  The result is memoised on ``host`` per node budget,
    so asking again with the same budget returns it without a second search.
    """
    b = _Budget(budget)
    key = ("hamiltonian_cycle", b.limit)
    result = host._memo.get(key)
    if result is None:
        result = host._memo[key] = _solve_cycle(host, viable, b)
    return result


def _solve_cycle(host, viable, b) -> SolveResult:
    if not viable(host):
        return SolveResult(False, None, 0)
    try:
        seq = next(_search_cycle(host.id_count, 1, host.masks, b), None)
    except BudgetExhausted:
        return SolveResult(False, None, b.spent, exhausted=True)
    if seq is None:
        return SolveResult(False, None, b.spent)
    witness = CycleWitness(host.cycle_kind, tuple(map(host.vertex_of, seq)))
    assert check_cycle(host, witness) and witness.is_hamiltonian(host)
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
    first (y_j is id n + j of the host's index, so parts alternate by
    construction).
    """
    return _find_cycle(g, _bipartite_viable, budget)


def find_hamiltonian_cycle_undirected(g: Graph, budget=None) -> SolveResult:
    """Spanning cycle in a plain undirected graph (needs n >= 3)."""
    return _find_cycle(g, _graph_viable, budget)


def max_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching via Hopcroft-Karp layered augmentation.

    Deterministic under the fixed vertex order (free x vertices and adjacency
    are scanned ascending).  Walks the host's x rows, in which y_j is id
    n + j: ``match_x[i]`` is the id of x_i's partner, ``match_y[n + j]``
    that of y_j's, 0 while unmatched.  Only the n x rows are read: the
    filled tuple rows above ``MASK_N``, up to it each x's mask decoded here
    once, so no tuple row is derived on the host.
    """
    n = g.n
    rows = g.rows if n > MASK_N else [mask_select(range(2 * n + 1), m) for m in g.masks[: n + 1]]
    INF = n + 1
    match_x = [0] * (n + 1)
    match_y = [0] * (2 * n + 1)
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
            for w in rows[i]:
                nxt = match_y[w]
                if nxt == 0:
                    found_free = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[i] + 1
                    queue.append(nxt)
        return found_free

    def augment(root):
        # layered walk from a free x: ``path`` holds (x, untried neighbors)
        # frames and ``ys[t]`` the y id leading on from path[t]; a dead end
        # leaves its layer, a free y flips every pair along the path
        path = [(root, iter(rows[root]))]
        ys = []
        while path:
            i, neighbors = path[-1]
            for w in neighbors:
                nxt = match_y[w]
                if nxt == 0 or dist[nxt] == dist[i] + 1:
                    break
            else:
                dist[i] = INF
                path.pop()
                if ys:
                    ys.pop()
                continue
            ys.append(w)
            if nxt == 0:
                for (i, _), w in zip(path, ys):
                    match_x[i] = w
                    match_y[w] = i
                return
            path.append((nxt, iter(rows[nxt])))

    while bfs():
        for i in range(1, n + 1):
            if match_x[i] == 0:
                augment(i)
    return Matching(frozenset((i, match_x[i] - n) for i in range(1, n + 1) if match_x[i]))


def has_perfect_matching(g: BipartiteGraph) -> bool:
    return len(max_matching(g)) == g.n


def _iter_perfect_matchings(g: BipartiteGraph, budget):
    """All perfect matchings, ordered by ascending partner choice for x1, x2, ...

    Spends one budget node per tentative pair assignment.  Walks the
    host's id rows, in which y_j is id n + j.
    """
    n = g.n
    if 0 in g.degree_table[1]:
        return
    rows = g.rows
    used = 0  # bit n + j set while y_j is taken
    chosen = []
    # candidates[i - 1] iterates the partner ids still to try for x_i
    candidates = [iter(rows[1])]
    while candidates:
        for w in candidates[-1]:
            if not used >> w & 1:
                break
        else:
            candidates.pop()
            if chosen:
                used ^= 1 << n + chosen.pop()[1]
            continue
        i = len(candidates)
        used |= 1 << w
        chosen.append((i, w - n))
        budget.spend()
        if i < n:
            candidates.append(iter(rows[i + 1]))
        else:
            yield frozenset(chosen)
            chosen.pop()
            used ^= 1 << w


def enumerate_perfect_matchings(g: BipartiteGraph, budget=None):
    """Deterministic stream of every perfect matching of ``g``."""
    b = _Budget(budget)
    for pairs in _iter_perfect_matchings(g, b):
        yield Matching(pairs)


def _digraph_cycles(d: Digraph, b, k=1):
    """Every Hamiltonian cycle of ``d`` as a vertex tuple anchored at 1,
    charged to ``b``; none, at no cost, unless ``_digraph_viable(d, k)``."""
    if _digraph_viable(d, k):
        yield from _search_cycle(d.n, 1, d.masks, b)


def enumerate_hamiltonian_cycles(d: Digraph, budget=None):
    """Deterministic stream of every Hamiltonian cycle of ``d``, anchored at 1."""
    for seq in _digraph_cycles(d, _Budget(budget)):
        yield CycleWitness(DIGRAPH_CYCLE, seq)


def find_two_disjoint_hamiltonian_cycles(d: Digraph, budget=None) -> DisjointPair:
    """First arc-disjoint pair of Hamiltonian cycles, if any.

    Enumerates Hamiltonian cycles in deterministic order; for each, removes
    its arcs and re-solves on the rest.  Both witnesses share one budget.
    """
    b = _Budget(budget)
    try:
        for first in _digraph_cycles(d, b, 2):
            cycle_arcs = frozenset(
                (first[i], first[(i + 1) % d.n]) for i in range(d.n)
            )
            rest = Digraph(d.n, d.arcs - cycle_arcs)
            second = next(_digraph_cycles(rest, b), None)
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

    Decided on the Z-mapping preimage of ``g`` with ``m`` contracted: the
    digraph D_m on 1..n has an arc i -> k for each edge (x_i, y_j) of ``g``
    outside ``m``, where x_k is the partner of y_j in ``m``.  A Hamiltonian
    cycle of ``g`` through ``m`` alternates ``m`` edges and other edges, so
    it reads x_i, y_j, x_k, ... with (x_k, y_j) in ``m``; contracting each
    ``m`` edge turns it into a directed Hamiltonian cycle i -> k -> ... of
    D_m, and expanding each vertex k of such a cycle back into x_k and its
    partner turns it into one of ``g``.  D_m is loopless, as (x_i, y_j)
    outside ``m`` means y_j is not x_i's partner.

    ``budget`` counts cycle-search nodes on D_m, the unit of every
    ``find_hamiltonian_cycle*`` budget.  Raises ``GraphError`` for a
    non-perfect or invalid matching and ``BudgetExhausted`` when the node
    budget runs out.
    """
    if not isinstance(m, Matching) or not m.is_perfect(g):
        raise GraphError("not a perfect matching of the graph")
    x_of_y = {j: i for i, j in m.pairs}
    d_m = Digraph(g.n, frozenset((i, x_of_y[j]) for i, j in g.edges - m.pairs))
    result = _find_cycle(d_m, _digraph_viable, budget)
    if result.exhausted:
        raise BudgetExhausted
    return result.found
