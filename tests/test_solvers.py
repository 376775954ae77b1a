import dataclasses
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zham import (
    BipartiteGraph,
    Digraph,
    Graph,
    GraphError,
    Matching,
    build_digraph,
    check_cycle,
    extends_to_hamiltonian,
    find_hamiltonian_cycle,
    find_hamiltonian_cycle_bipartite,
    find_hamiltonian_cycle_undirected,
    find_two_disjoint_hamiltonian_cycles,
    find_two_disjoint_perfect_matchings,
    has_perfect_matching,
    max_matching,
    strongly_connected,
    zmap,
)
from zham import core, solvers
from zham.solvers import enumerate_perfect_matchings
from zham.verifier import enumerate_bipartite, enumerate_digraphs

from brute import (
    bipartite_graphs,
    brute_extends,
    brute_ham_bipartite,
    brute_ham_cycle_arc_sets,
    brute_ham_digraph,
    brute_ham_undirected,
    brute_max_matching_size,
    brute_perfect_matchings,
    brute_two_disjoint_pms,
    digraphs,
    graphs,
    max_matching_reference,
    perfect_matchings_reference,
    search_cycle_reference,
    strongly_connected_reference,
)

C3 = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
K3 = build_digraph(3, [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v])
DIGON = build_digraph(2, [(1, 2), (2, 1)])
Z_C3 = zmap(C3)
Z_K3 = zmap(K3)


class TestStrongConnectivity:
    def test_cycle_is_strong(self):
        assert strongly_connected(C3)

    def test_single_arc_is_not(self):
        assert not strongly_connected(build_digraph(2, [(1, 2)]))

    def test_single_vertex_is_strong(self):
        assert strongly_connected(Digraph(1))

    def test_long_cycle_needs_no_recursion(self):
        n = 3000
        d = build_digraph(n, [(v, v % n + 1) for v in range(1, n + 1)])
        assert strongly_connected(d)
        path = Digraph(n, d.arcs - {(n, 1)})
        assert not strongly_connected(path)

    @pytest.mark.parametrize("mask_n", [0, core.MASK_N])
    def test_both_walks_match_the_closure_on_every_small_digraph(self, mask_n):
        # with MASK_N at 0 every digraph is indexed by tuple rows, as one
        # above MASK_N is, and the reach walk reads those rows
        with patch.object(core, "MASK_N", mask_n), patch.object(solvers, "MASK_N", mask_n):
            for n in range(1, 5):
                for d in enumerate_digraphs(n):
                    assert strongly_connected(d) == strongly_connected_reference(d)

    @given(digraphs(max_n=7))
    def test_reachability_oracle(self, d):
        def reaches(src):
            seen = {src}
            frontier = [src]
            while frontier:
                v = frontier.pop()
                for w in d.successors(v):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            return seen

        full = set(d.vertices())
        expected = all(reaches(v) == full for v in d.vertices())
        assert strongly_connected(d) == expected


class TestFindHamiltonianCycle:
    def test_triangle(self):
        result = find_hamiltonian_cycle(C3)
        assert result.found and result.witness.sequence == (1, 2, 3)

    def test_broken_triangle(self):
        d = build_digraph(3, [(1, 2), (2, 3)])
        result = find_hamiltonian_cycle(d)
        assert not result.found and not result.exhausted

    def test_digon_counts(self):
        assert find_hamiltonian_cycle(DIGON).found

    def test_single_vertex_is_never_hamiltonian(self):
        assert not find_hamiltonian_cycle(Digraph(1)).found

    def test_witness_is_deterministic_and_starts_at_one(self):
        first = find_hamiltonian_cycle(K3)
        second = find_hamiltonian_cycle(Digraph(K3.n, K3.arcs))  # fresh, equal copy
        assert first == second
        assert first.witness.sequence[0] == 1
        assert first.witness.sequence == (1, 2, 3)  # smallest successor first

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_permutation_oracle(self, n):
        for d in enumerate_digraphs(n):
            result = find_hamiltonian_cycle(d)
            assert result.found == brute_ham_digraph(d)
            if result.found:
                assert check_cycle(d, result.witness)
                assert strongly_connected(d)


class TestFindHamiltonianCycleBipartite:
    def test_image_of_complete_three(self):
        result = find_hamiltonian_cycle_bipartite(Z_K3)
        assert result.found
        assert result.witness.sequence == (
            ("x", 1), ("y", 2), ("x", 3), ("y", 1), ("x", 2), ("y", 3)
        )

    def test_one_regular_image_has_no_cycle(self):
        result = find_hamiltonian_cycle_bipartite(Z_C3)
        assert not result.found and result.nodes_explored == 0

    def test_part_size_one_is_degenerate(self):
        assert not find_hamiltonian_cycle_bipartite(BipartiteGraph(1, frozenset({(1, 1)}))).found

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_permutation_oracle(self, n):
        for g in enumerate_bipartite(n):
            result = find_hamiltonian_cycle_bipartite(g)
            assert result.found == brute_ham_bipartite(g)
            if result.found:
                assert check_cycle(g, result.witness)


class TestFindHamiltonianCycleUndirected:
    def test_triangle(self):
        g = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        result = find_hamiltonian_cycle_undirected(g)
        assert result.found and result.witness.sequence == (1, 2, 3)

    def test_path_fails(self):
        g = Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}))
        assert not find_hamiltonian_cycle_undirected(g).found

    def test_long_cycle_needs_no_recursion(self):
        n = 3000
        g = Graph(n, frozenset((v, v % n + 1) for v in range(1, n + 1)))
        result = find_hamiltonian_cycle_undirected(g)
        assert result.found and result.nodes_explored == n
        assert result.witness.sequence == tuple(range(1, n + 1))

    def test_small_graphs_agree_with_oracle(self):
        from zham.verifier import enumerate_graphs

        for n in (1, 2, 3, 4):
            for g in enumerate_graphs(n):
                result = find_hamiltonian_cycle_undirected(g)
                assert result.found == brute_ham_undirected(g)
                if result.found:
                    assert check_cycle(g, result.witness)


class TestMaxMatching:
    def test_one_regular_is_its_own_perfect_matching(self):
        m = max_matching(Z_C3)
        assert len(m) == 3 and m.is_perfect(Z_C3)

    def test_star_matches_once(self):
        star = BipartiteGraph(3, frozenset({(1, 1), (1, 2), (1, 3)}))
        assert len(max_matching(star)) == 1

    def test_empty(self):
        assert len(max_matching(BipartiteGraph(3))) == 0

    def test_all_part_size_two_agree_with_subset_oracle(self):
        for g in enumerate_bipartite(2):
            assert len(max_matching(g)) == brute_max_matching_size(g)

    def test_returned_matching_uses_graph_edges(self):
        for g in enumerate_bipartite(2):
            assert max_matching(g).is_matching_of(g)

    def test_dead_ends_are_walked_once_per_phase(self, monkeypatch):
        # after the first phase x_1..x_2k sit in k layers of two, each x
        # adjacent to both y's of the next layer, the last layer a dead end;
        # the free root x_n reaches layer 1 first and the free y_n last, so
        # a walk that forgot its dead ends would follow all 2^k layer paths
        k = 12
        n = 2 * k + 2
        edges = {(i, i) for i in range(1, n)} | {(n - 1, n), (n, 1), (n, 2), (n, n - 1)}
        for t in range(1, k):
            edges |= {(x, y) for x in (2 * t - 1, 2 * t) for y in (2 * t + 1, 2 * t + 2)}
        g = BipartiteGraph(n, frozenset(edges))
        scans = []

        class CountingRow(list):
            """An x row that counts each scan of it."""

            def __iter__(self):
                scans.append(1)
                return super().__iter__()

        # max_matching decodes each x row from its mask; count the scans of those rows
        decode = solvers.mask_select
        monkeypatch.setattr(solvers, "mask_select", lambda ids, m: CountingRow(decode(ids, m)))
        assert max_matching(g).is_perfect(g)
        assert 0 < len(scans) <= 4 * n  # two phases, each x scanned once per BFS and walk
        assert "rows" not in vars(g)  # no tuple row is derived on the host


class TestHasPerfectMatching:
    def test_one_regular(self):
        assert has_perfect_matching(Z_C3)

    def test_isolated_x_vertex_blocks(self):
        g = BipartiteGraph(2, frozenset({(1, 1), (1, 2)}))
        assert not has_perfect_matching(g)


class TestTwoDisjointHamiltonianCycles:
    def test_complete_three_splits_into_both_triangles(self):
        result = find_two_disjoint_hamiltonian_cycles(K3)
        assert result.found
        assert result.first.sequence == (1, 2, 3)
        assert result.second.sequence == (1, 3, 2)
        assert not (frozenset(result.first.items) & frozenset(result.second.items))

    def test_plain_cycle_has_no_second(self):
        assert not find_two_disjoint_hamiltonian_cycles(C3).found

    def test_digon_has_no_second(self):
        assert not find_two_disjoint_hamiltonian_cycles(DIGON).found

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_pairwise_cycle_oracle(self, n):
        for d in enumerate_digraphs(n):
            cycles = list(brute_ham_cycle_arc_sets(d))
            expected = any(
                not (a & b) for i, a in enumerate(cycles) for b in cycles[i + 1:]
            )
            assert find_two_disjoint_hamiltonian_cycles(d).found == expected


class TestTwoDisjointPerfectMatchings:
    def test_six_cycle_splits(self):
        result = find_two_disjoint_perfect_matchings(Z_K3)
        assert result.found
        assert result.first.is_perfect(Z_K3) and result.second.is_perfect(Z_K3)
        assert not (result.first.pairs & result.second.pairs)

    def test_one_regular_cannot(self):
        assert not find_two_disjoint_perfect_matchings(Z_C3).found

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_subset_pair_oracle(self, n):
        for g in enumerate_bipartite(n):
            got = find_two_disjoint_perfect_matchings(g).found
            assert got == brute_two_disjoint_pms(g)


def test_the_matching_searches_derive_no_tuple_rows():
    # up to MASK_N they decode the n x rows they read, as max_matching does;
    # reading g.rows derived all 2n + 1 rows on the host
    g = BipartiteGraph(4, frozenset((i, j) for i in range(1, 5) for j in range(1, 5)))
    assert len(list(enumerate_perfect_matchings(g))) == 24
    assert find_two_disjoint_perfect_matchings(g).found
    assert "rows" not in vars(g)


class TestExtendsToHamiltonian:
    def test_six_cycle_contains_its_halves(self):
        for m in enumerate_perfect_matchings(Z_K3):
            assert extends_to_hamiltonian(Z_K3, m)

    def test_matching_only_graph_cannot_extend(self):
        m = max_matching(Z_C3)
        assert not extends_to_hamiltonian(Z_C3, m)

    def test_rejects_non_perfect_matching(self):
        with pytest.raises(GraphError):
            extends_to_hamiltonian(Z_K3, Matching(frozenset({(1, 2)})))
        with pytest.raises(GraphError):
            extends_to_hamiltonian(Z_K3, Matching(frozenset({(1, 1), (2, 2), (3, 3)})))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_cycle_enumeration_oracle(self, n):
        for g in enumerate_bipartite(n):
            for pairs in brute_perfect_matchings(g):
                got = extends_to_hamiltonian(g, Matching(pairs))
                assert got == brute_extends(g, pairs)

    @given(st.data())
    def test_agrees_with_oracle_up_to_five(self, data):
        n = data.draw(st.integers(1, 5))
        partner = data.draw(st.permutations(range(1, n + 1)))
        pairs = frozenset(zip(range(1, n + 1), partner))
        rest = data.draw(bipartite_graphs(min_n=n, max_n=n))
        g = BipartiteGraph(n, rest.edges | pairs)
        assert extends_to_hamiltonian(g, Matching(pairs)) == brute_extends(g, pairs)

    def test_budget_counts_cycle_search_nodes_on_the_contraction(self):
        g = zmap(_complete_digraph(4))
        m = next(enumerate_perfect_matchings(g))
        x_of_y = {j: i for i, j in m.pairs}
        d_m = build_digraph(4, [(i, x_of_y[j]) for i, j in g.edges - m.pairs])
        full = find_hamiltonian_cycle(d_m)
        assert full.found and full.nodes_explored > 1
        for limit in range(1, full.nodes_explored + 1):
            if find_hamiltonian_cycle(d_m, budget=limit).exhausted:
                with pytest.raises(solvers.BudgetExhausted):
                    extends_to_hamiltonian(g, m, budget=limit)
            else:
                assert extends_to_hamiltonian(g, m, budget=limit)
        with pytest.raises(solvers.BudgetExhausted):
            extends_to_hamiltonian(g, m, budget=1)


class TestBudget:
    def test_exhaustion_is_distinct_from_not_found(self):
        dense = build_digraph(
            7, [(u, v) for u in range(1, 8) for v in range(1, 8) if u != v]
        )
        # remove the return arcs into 1 so the search has to run long
        d = Digraph(7, dense.arcs - {(v, 1) for v in range(2, 8)} | {(2, 1)})
        full = find_hamiltonian_cycle(d)
        assert full.found
        starved = find_hamiltonian_cycle(d, budget=5)
        assert starved.exhausted and not starved.found
        assert starved.nodes_explored == 6  # the spend that crossed the limit
        unsolvable = build_digraph(3, [(1, 2), (2, 3)])
        clean_miss = find_hamiltonian_cycle(unsolvable, budget=5)
        assert not clean_miss.found and not clean_miss.exhausted

    def test_identical_runs_spend_identically(self):
        a = find_hamiltonian_cycle(K3)
        b = find_hamiltonian_cycle(Digraph(K3.n, K3.arcs))  # fresh, equal copy
        assert a.nodes_explored == b.nodes_explored

    def test_disjoint_search_budget(self):
        k4 = build_digraph(4, [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v])
        starved = find_two_disjoint_hamiltonian_cycles(k4, budget=3)
        assert starved.exhausted and not starved.found


def _complete_digraph(n):
    return build_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v])


class TestInstanceMemo:
    @pytest.mark.parametrize(
        "host, solver",
        [
            (lambda d: d, find_hamiltonian_cycle),
            (zmap, find_hamiltonian_cycle_bipartite),
        ],
        ids=["digraph", "bipartite-image"],
    )
    def test_cycle_search_is_keyed_by_budget(self, host, solver):
        g = host(_complete_digraph(5))
        starved = solver(g, budget=3)
        assert starved.exhausted and not starved.found
        full = solver(g)
        assert full.found and not full.exhausted
        assert solver(g, budget=3) == starved
        assert solver(g) is full

    def test_zmap_image_is_shared(self):
        d = _complete_digraph(4)
        assert zmap(d) is zmap(d)
        assert zmap(d) is not zmap(Digraph(d.n, d.arcs))

    def test_memo_is_invisible_to_value_semantics(self):
        solved = _complete_digraph(4)
        fresh = Digraph(solved.n, solved.arcs)
        find_hamiltonian_cycle(solved)
        find_hamiltonian_cycle_bipartite(zmap(solved))
        assert solved._memo and not fresh._memo
        assert solved == fresh and hash(solved) == hash(fresh)
        assert repr(solved) == repr(fresh)
        assert zmap(solved) == zmap(fresh)
        # derived state is no dataclass field, so asdict never carries it
        assert dataclasses.asdict(solved) == dataclasses.asdict(fresh)
        assert dataclasses.asdict(zmap(solved)) == dataclasses.asdict(zmap(fresh))
        for cls, pairs in ((Digraph, "arcs"), (Graph, "edges"), (BipartiteGraph, "edges")):
            assert [f.name for f in dataclasses.fields(cls)] == ["n", pairs]


def _two_blocks():
    """Complete digraphs on 1..6 and 6..12 sharing vertex 6: strong, every
    degree prune passes, never Hamiltonian, so the search runs to the end."""
    blocks = (range(1, 7), range(6, 13))
    return build_digraph(12, [(u, v) for b in blocks for u in b for v in b if u != v])


class TestNodeCounts:
    def test_exhaustive_search_counts_every_node_of_the_tree(self):
        result = find_hamiltonian_cycle(_two_blocks())
        assert not result.found and not result.exhausted
        assert result.nodes_explored == 127466

    @pytest.mark.parametrize("limit", [127465, 127460])
    def test_budget_crossed_by_a_charged_subtree(self, limit):
        # the last 15 nodes of the tree are one dead subtree charged at once;
        # the count stops one past the limit, as a node-by-node walk would
        result = find_hamiltonian_cycle(_two_blocks(), budget=limit)
        assert result.exhausted and not result.found
        assert result.nodes_explored == limit + 1


def _run_kernel(kernel, size, adjacency, limit, first_only):
    """The cycles a kernel yields (the first only, or all), the nodes it
    spent, and whether it ran out of budget."""
    budget = solvers._Budget(limit)
    cycles = []
    try:
        for cycle in kernel(size, 1, adjacency, budget):
            cycles.append(cycle)
            if first_only:
                break
    except solvers.BudgetExhausted:
        return cycles, budget.spent, True
    return cycles, budget.spent, False


def _reference_on_masks(n, start, adj, budget):
    """The reference kernel behind the bitmask kernel's signature."""
    rows = [tuple(w for w in range(1, n + 1) if mask >> w & 1) for mask in adj]
    return search_cycle_reference(n, start, rows.__getitem__, budget)


BUDGETS = st.sampled_from([None, 1, 5, 50])


class TestCycleKernelMatchesReference:
    """The bitmask kernel yields the recursive walk's cycles, in its order,
    and spends exactly its nodes, down to where a budget runs out."""

    @staticmethod
    def _check(host, limit):
        # the id space the solvers search ``host`` on
        size, rows = host.id_count, host.rows
        for first_only in (True, False):
            got = _run_kernel(solvers._search_cycle, size, host.masks, limit, first_only)
            want = _run_kernel(search_cycle_reference, size, rows.__getitem__, limit, first_only)
            assert got == want

    @given(digraphs(max_n=7), BUDGETS)
    def test_digraphs(self, d, limit):
        self._check(d, limit)

    @given(bipartite_graphs(max_n=4), BUDGETS)
    def test_bipartite_graphs(self, g, limit):
        self._check(g, limit)

    @given(graphs(max_n=7), BUDGETS)
    def test_graphs(self, g, limit):
        self._check(g, limit)

    @pytest.mark.parametrize(
        "d",
        [
            _complete_digraph(4),
            _complete_digraph(5),
            # four second searches fail before the pair is found, so the
            # first search resumes each time after another one has spent
            build_digraph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 1),
                              (3, 2), (3, 5), (4, 1), (4, 5), (5, 2), (5, 3), (5, 4)]),
        ],
        ids=["K4", "K5", "resumed"],
    )
    def test_disjoint_pair_shares_one_budget(self, d, monkeypatch):
        limits = [None, *range(1, find_two_disjoint_hamiltonian_cycles(d).nodes_explored + 1)]
        got = [find_two_disjoint_hamiltonian_cycles(d, limit) for limit in limits]
        assert got[0].found and got[-1] == got[0] and got[-2].exhausted
        monkeypatch.setattr(solvers, "_search_cycle", _reference_on_masks)
        assert got == [find_two_disjoint_hamiltonian_cycles(d, limit) for limit in limits]


def _run_matchings(kernel, g, limit):
    """The perfect matchings a kernel yields, in order, the nodes it spent,
    and whether it ran out of budget."""
    budget = solvers._Budget(limit)
    matchings = []
    try:
        for pairs in kernel(g, budget):
            matchings.append(pairs)
    except solvers.BudgetExhausted:
        return matchings, budget.spent, True
    return matchings, budget.spent, False


def _bipartite_cycle(n, closing=True):
    """x_i ~ y_i and y_(i+1); with ``closing`` false, x_n ~ y_1 only, which
    leaves Hopcroft-Karp one augmenting path of 2n - 1 edges."""
    edges = {(i, i) for i in range(1, n)} | {(i, i + 1) for i in range(1, n)}
    edges |= {(n, n), (n, 1)} if closing else {(n, 1)}
    return BipartiteGraph(n, frozenset(edges))


class TestMatchingKernelsMatchReference:
    """The explicit-stack enumerator and Hopcroft-Karp give the recursive
    walks' matchings, in their order, with the same node spend."""

    @staticmethod
    def _check(g, limit):
        got = _run_matchings(solvers._iter_perfect_matchings, g, limit)
        assert got == _run_matchings(perfect_matchings_reference, g, limit)
        assert max_matching(g).pairs == max_matching_reference(g)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_graph(self, n):
        for g in enumerate_bipartite(n):
            for limit in (None, 1, 5, 50):
                self._check(g, limit)

    @given(bipartite_graphs(max_n=6), BUDGETS)
    def test_random_graphs(self, g, limit):
        self._check(g, limit)

    def test_disjoint_pair_matches_the_reference_procedure(self, monkeypatch):
        hosts = list(enumerate_bipartite(3)) + [Z_K3, zmap(_complete_digraph(4))]
        limits = (None, 1, 5, 50)
        got = [find_two_disjoint_perfect_matchings(g, limit) for g in hosts for limit in limits]
        monkeypatch.setattr(solvers, "_iter_perfect_matchings", perfect_matchings_reference)
        monkeypatch.setattr(solvers, "max_matching", lambda g: Matching(max_matching_reference(g)))
        assert got == [
            find_two_disjoint_perfect_matchings(g, limit) for g in hosts for limit in limits
        ]

    def test_long_cycle_needs_no_recursion(self):
        n = 3000
        g = _bipartite_cycle(n)
        first = next(enumerate_perfect_matchings(g))
        assert first.pairs == frozenset((i, i) for i in range(1, n + 1))

    def test_long_augmenting_path_needs_no_recursion(self):
        n = 3000
        g = _bipartite_cycle(n, closing=False)
        assert max_matching(g).pairs == frozenset((i, i % n + 1) for i in range(1, n + 1))
