"""Independent brute-force oracles and instance generators for the tests.

Everything here works by exhaustive enumeration over permutations or edge
subsets, deliberately sharing no code path with the solvers it checks.
"""

from itertools import combinations, permutations

from hypothesis import strategies as st

from zham import DIGRAPH_CYCLE, GRAPH_CYCLE, BipartiteGraph, CycleWitness, Digraph, Graph
from zham.conditions import NOT_STRONG, ConditionReport
from zham.core import format_bipartite_vertex
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


# ---------------------------------------------------------------------------
# Reference cycle-certificate check


def _is_bipartite_vertex_reference(item, n):
    return (
        isinstance(item, tuple)
        and len(item) == 2
        and item[0] in ("x", "y")
        and isinstance(item[1], int)
        and not isinstance(item[1], bool)
        and 1 <= item[1] <= n
    )


def check_cycle_reference(host, witness) -> bool:
    """The per-host-kind certificate check that ``core.check_cycle`` must
    match: one branch per host kind, each testing adjacency directly on the
    vertex sequence rather than through ``CycleWitness.items``."""
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
        if any(not _is_bipartite_vertex_reference(v, host.n) for v in seq):
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


# ---------------------------------------------------------------------------
# Reference degree-condition predicates


def strongly_connected_reference(d: Digraph) -> bool:
    """Every vertex reaches every other, by a transitive closure."""
    reach = {u: {u} | set(d.successors(u)) for u in d.vertices()}
    for w in d.vertices():
        for u in d.vertices():
            if w in reach[u]:
                reach[u] |= reach[w]
    return all(len(reach[u]) == d.n for u in d.vertices())


def _eager(condition_id, items, parameters, note=""):
    items = tuple(items)
    return ConditionReport(condition_id, not items, items, parameters, note)


def _too_small(condition_id, n, minimum):
    return ConditionReport(
        condition_id,
        False,
        ({"reason": "n too small", "n": n, "minimum": minimum},),
        {"n": n},
        note="n too small",
    )


def dirac_reference(g: Graph):
    if g.n <= 2:
        return _too_small("dirac", g.n, 3)
    bad = [
        {"vertex": v, "degree": g.degree(v)} for v in g.vertices() if 2 * g.degree(v) < g.n
    ]
    return _eager("dirac", bad, {"n": g.n})


def ghouila_houri_reference(d: Digraph):
    if d.n <= 2:
        return _too_small("ghouila-houri", d.n, 3)
    bad = []
    if not strongly_connected_reference(d):
        bad.append(NOT_STRONG)
    bad += [{"vertex": v, "degree": d.degree(v)} for v in d.vertices() if d.degree(v) < d.n]
    return _eager("ghouila-houri", bad, {"n": d.n})


def faudree_reference(g: Graph):
    if g.n <= 2:
        return _too_small("faudree", g.n, 3)
    k = min(g.degree(v) for v in g.vertices())
    small = [v for v in g.vertices() if 2 * g.degree(v) < g.n]
    params = {"n": g.n, "k": k, "s_size": len(small)}
    if len(small) <= k - 1:
        return _eager("faudree", (), params)
    bad = [{"vertex": v, "degree": g.degree(v)} for v in small]
    return _eager("faudree", bad, params)


def zhu_reference(d: Digraph):
    if d.n <= 2:
        return _too_small("zhu", d.n, 3)
    k = min(d.degree(v) for v in d.vertices())
    small = [v for v in d.vertices() if d.degree(v) < d.n]
    params = {"n": d.n, "k": k, "s_size": len(small)}
    bad = []
    if not strongly_connected_reference(d):
        bad.append(NOT_STRONG)
    if len(small) > k - 1:
        bad += [{"vertex": v, "degree": d.degree(v)} for v in small]
    return _eager("zhu", bad, params)


def moon_moser_k_reference(g: BipartiteGraph, k: int):
    small = [v for v in g.vertices() if g.degree(v) < k]
    params = {"n": g.n, "k": k, "s_size": len(small)}
    note = "low-degree set drawn from both parts"
    if len(small) < g.n:
        return _eager("moon-moser-k", (), params, note)
    bad = [
        {"vertex": format_bipartite_vertex(v), "degree": g.degree(v)} for v in small
    ]
    return _eager("moon-moser-k", bad, params, note)


def moon_moser_half_reference(g: BipartiteGraph):
    if g.n < 2:
        return _too_small("moon-moser-half", g.n, 2)
    bad = [
        {"vertex": format_bipartite_vertex(v), "degree": g.degree(v)}
        for v in g.vertices()
        if 2 * g.degree(v) <= g.n
    ]
    return _eager("moon-moser-half", bad, {"n": g.n})


def disjoint_hc_degree_reference(d: Digraph):
    if d.n <= 2:
        return _too_small("cor1-disjoint-hc", d.n, 3)
    bad = []
    if not strongly_connected_reference(d):
        bad.append(NOT_STRONG)
    bad += [
        {"vertex": v, "out_degree": d.out_degree(v), "in_degree": d.in_degree(v)}
        for v in d.vertices()
        if 2 * d.out_degree(v) <= d.n or 2 * d.in_degree(v) <= d.n
    ]
    return _eager("cor1-disjoint-hc", bad, {"n": d.n}, note="disjoint = arc-disjoint")


def _pair_deficits_reference(d, threshold):
    out = []
    for u in d.vertices():
        for v in d.vertices():
            total = d.out_degree(u) + d.in_degree(v)
            if u != v and not d.has_arc(u, v) and total < threshold:
                out.append({"pair": [u, v], "degree_sum": total})
    return out


def _cross_pair_deficits_reference(g, threshold):
    out = []
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            total = g.degree_x(i) + g.degree_y(j)
            if not g.has_edge(i, j) and total < threshold:
                out.append({"pair": [f"x{i}", f"y{j}"], "degree_sum": total})
    return out


def las_vergnas_reference(g: BipartiteGraph):
    if g.n < 2:
        return _too_small("las-vergnas", g.n, 2)
    return _eager("las-vergnas", _cross_pair_deficits_reference(g, g.n + 2), {"n": g.n})


def woodall_reference(d: Digraph):
    if d.n <= 2:
        return _too_small("woodall", d.n, 3)
    bad = []
    if not strongly_connected_reference(d):
        bad.append(NOT_STRONG)
    bad += _pair_deficits_reference(d, d.n)
    return _eager("woodall", bad, {"n": d.n})


def woodall_plus2_reference(d: Digraph):
    if d.n <= 2:
        return _too_small("cor2-woodall-plus2", d.n, 3)
    bad = _pair_deficits_reference(d, d.n + 2)
    return _eager("cor2-woodall-plus2", bad, {"n": d.n}, note="disjoint = arc-disjoint")


def ore_bipartite_reference(g: BipartiteGraph, threshold: int):
    if threshold == g.n:
        condition_id, note = "cor3-ore-pm", ""
    else:
        condition_id, note = "cor3-ore-2pm", "disjoint = edge-disjoint"
    if g.n < 2:
        return _too_small(condition_id, g.n, 2)
    bad = _cross_pair_deficits_reference(g, threshold)
    return _eager(condition_id, bad, {"n": g.n, "threshold": threshold}, note)
