"""Independent brute-force oracles and instance generators for the tests.

Everything here works by exhaustive enumeration over permutations or edge
subsets, deliberately sharing no code path with the solvers it checks.
"""

from itertools import combinations, permutations

from hypothesis import strategies as st

from zham import BipartiteGraph, Digraph, Graph
from zham.verifier import arc_universe, bipartite_edge_universe, graph_edge_universe


# ---------------------------------------------------------------------------
# Cycle catalogs (rotation/direction-normalized adjacency checks)


def normalize_directed(seq):
    pivot = seq.index(min(seq))
    return seq[pivot:] + seq[:pivot]


def normalize_undirected(seq):
    forward = normalize_directed(seq)
    backward = normalize_directed(tuple(reversed(seq)))
    return min(forward, backward)


def directed_cycle_catalog(d: Digraph):
    """All simple directed cycles of d as rotation-normalized sequences."""
    catalog = set()
    for size in range(2, d.n + 1):
        for subset in combinations(range(1, d.n + 1), size):
            for perm in permutations(subset):
                if perm[0] != subset[0]:
                    continue
                if all(
                    (perm[i], perm[(i + 1) % size]) in d.arcs for i in range(size)
                ):
                    catalog.add(perm)
    return catalog


def all_vertex_sequences(n, max_len=None):
    """Every sequence of distinct vertices of 1..n (candidate witnesses)."""
    top = n if max_len is None else max_len
    for size in range(1, top + 1):
        for subset in combinations(range(1, n + 1), size):
            yield from permutations(subset)


# ---------------------------------------------------------------------------
# Hamiltonicity by permutation enumeration


def brute_ham_digraph(d: Digraph) -> bool:
    return next(brute_ham_cycle_arc_sets(d), None) is not None


def brute_ham_cycle_arc_sets(d: Digraph):
    """Arc sets of every Hamiltonian cycle of d, by permutation enumeration."""
    if d.n == 1:
        return
    for perm in permutations(range(2, d.n + 1)):
        seq = (1,) + perm
        arcs = [(seq[i], seq[(i + 1) % d.n]) for i in range(d.n)]
        if all(a in d.arcs for a in arcs):
            yield frozenset(arcs)


def brute_ham_undirected(g: Graph) -> bool:
    if g.n < 3:
        return False
    rest = range(2, g.n + 1)
    for perm in permutations(rest):
        seq = (1,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % g.n]) for i in range(g.n)):
            return True
    return False


def brute_bipartite_ham_cycles(g: BipartiteGraph):
    """All Hamiltonian cycles of g as tuples of alternating (x, y) indices,
    anchored at x1: (x_1, y_j1, x_i2, y_j2, ...)."""
    n = g.n
    if n < 2:
        return
    for xs in permutations(range(2, n + 1)):
        x_order = (1,) + xs
        for ys in permutations(range(1, n + 1)):
            if all(
                g.has_edge(x_order[t], ys[t]) and g.has_edge(x_order[(t + 1) % n], ys[t])
                for t in range(n)
            ):
                yield x_order, ys


def brute_ham_bipartite(g: BipartiteGraph) -> bool:
    return next(brute_bipartite_ham_cycles(g), None) is not None


# ---------------------------------------------------------------------------
# Matchings by subset enumeration


def _is_matching(pairs):
    xs = [i for i, _ in pairs]
    ys = [j for _, j in pairs]
    return len(set(xs)) == len(pairs) and len(set(ys)) == len(pairs)


def brute_max_matching_size(g: BipartiteGraph) -> int:
    edges = sorted(g.edges)
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for subset in combinations(edges, size):
            if _is_matching(subset):
                best = size
                break
    return best


def brute_perfect_matchings(g: BipartiteGraph):
    for subset in combinations(sorted(g.edges), g.n):
        if _is_matching(subset):
            yield frozenset(subset)


def brute_two_disjoint_pms(g: BipartiteGraph) -> bool:
    pms = list(brute_perfect_matchings(g))
    return any(not (a & b) for a, b in combinations(pms, 2))


def brute_extends(g: BipartiteGraph, pairs) -> bool:
    """Does some Hamiltonian cycle of g use every pair of the matching?"""
    wanted = frozenset(pairs)
    for x_order, ys in brute_bipartite_ham_cycles(g):
        n = g.n
        cycle_edges = set()
        for t in range(n):
            cycle_edges.add((x_order[t], ys[t]))
            cycle_edges.add((x_order[(t + 1) % n], ys[t]))
        if wanted <= cycle_edges:
            return True
    return False


# ---------------------------------------------------------------------------
# Hypothesis strategies


@st.composite
def digraphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    universe = arc_universe(n)
    arcs = draw(st.sets(st.sampled_from(universe))) if universe else set()
    return Digraph(n, frozenset(arcs))


@st.composite
def bipartite_graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    edges = draw(st.sets(st.sampled_from(bipartite_edge_universe(n))))
    return BipartiteGraph(n, frozenset(edges))


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    universe = graph_edge_universe(n)
    edges = draw(st.sets(st.sampled_from(universe))) if universe else set()
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# Reference cycle-search kernel


def search_cycle_reference(n, start, neighbors, budget):
    """The recursive backtracking walk that ``solvers._search_cycle`` must
    match: same cycles in the same order, the same budget charges.

    Walks every node of the tree, spending one budget node per path prefix;
    ``neighbors(v)`` is v's ascending neighbor tuple.  Recursion depth grows
    with n, so it serves small instances only.
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


# ---------------------------------------------------------------------------
# Reference matching kernels


def perfect_matchings_reference(g: BipartiteGraph, budget):
    """The recursive enumeration that ``solvers._iter_perfect_matchings`` must
    match: same matchings in the same order, the same budget charges.

    Tries partners of x1, x2, ... in ascending order, spending one budget
    node per tentative pair.  Recursion depth grows with n, so it serves
    small instances only.
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


def max_matching_reference(g: BipartiteGraph):
    """Recursive Hopcroft-Karp that ``solvers.max_matching`` must match pair
    for pair: free x vertices and adjacency scanned ascending, a dead end
    leaves its layer.  Returns the matched (x, y) pairs as a frozenset."""
    n = g.n
    inf = n + 1
    match_x = [0] * (n + 1)
    match_y = [0] * (n + 1)
    dist = [0] * (n + 1)

    def bfs():
        queue = []
        for i in range(1, n + 1):
            if match_x[i] == 0:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = inf
        found_free = False
        for i in queue:
            for j in g.neighbors_x(i):
                nxt = match_y[j]
                if nxt == 0:
                    found_free = True
                elif dist[nxt] == inf:
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
        dist[i] = inf
        return False

    while bfs():
        for i in range(1, n + 1):
            if match_x[i] == 0:
                dfs(i)
    return frozenset((i, match_x[i]) for i in range(1, n + 1) if match_x[i])
