import pytest
from hypothesis import given

from zham import (
    DIGRAPH_CYCLE,
    GRAPH_CYCLE,
    BipartiteGraph,
    CycleWitness,
    Digraph,
    GraphError,
    SelfLoopError,
    bipartite_incidence,
    build_digraph,
    check_cycle,
    f_matrix,
    find_hamiltonian_cycle_bipartite,
    ham_cycle_pullback,
    incidence_matrix,
    matching_pushforward,
    split_incidence,
    unzmap,
    zmap,
)
from zham.solvers import enumerate_hamiltonian_cycles
from zham.verifier import enumerate_digraphs, is_spanning_cycle_factor

from brute import digraphs, bipartite_graphs

C3 = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
K3 = build_digraph(3, [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v])
DIGON = build_digraph(2, [(1, 2), (2, 1)])


class TestSplitIncidence:
    def test_single_arc(self):
        pair = split_incidence(((1,), (-1,)))
        assert pair.c_plus == ((1,), (0,))
        assert pair.c_minus == ((0,), (-1,))

    def test_triangle_splits_into_permutation_shapes(self):
        pair = split_incidence(incidence_matrix(C3))
        # columns in arc order (1,2), (2,3), (3,1): tails on the diagonal
        assert pair.c_plus == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert pair.c_minus == ((0, 0, -1), (-1, 0, 0), (0, -1, 0))

    def test_degenerate_empty(self):
        pair = split_incidence(((), (), (), ()))
        assert pair.c_plus == ((), (), (), ())
        assert pair.c_minus == ((), (), (), ())

    def test_rejects_graph_shaped_matrix(self):
        with pytest.raises(GraphError):
            split_incidence(((1,), (1,)))

    def test_rejects_ragged_rows(self):
        with pytest.raises(GraphError):
            split_incidence([[1], [-1, 0]])

    @given(digraphs(max_n=7))
    def test_halves_recompose_and_have_unit_columns(self, d):
        c = incidence_matrix(d)
        pair = split_incidence(c)
        assert tuple(
            tuple(p + m for p, m in zip(plus, minus))
            for plus, minus in zip(pair.c_plus, pair.c_minus)
        ) == c
        assert all(col.count(1) == 1 for col in zip(*pair.c_plus))
        assert all(col.count(-1) == 1 for col in zip(*pair.c_minus))


class TestZmap:
    def test_triangle_maps_to_its_arc_pairs(self):
        assert zmap(C3).edges == frozenset({(1, 2), (2, 3), (3, 1)})

    def test_complete_three_maps_to_six_cycle(self):
        z = zmap(K3)
        assert z.edges == frozenset(
            (u, v) for u in range(1, 4) for v in range(1, 4) if u != v
        )
        assert all(z.degree_x(i) == 2 and z.degree_y(i) == 2 for i in (1, 2, 3))
        assert find_hamiltonian_cycle_bipartite(z).found

    def test_digon(self):
        assert zmap(DIGON).edges == frozenset({(1, 2), (2, 1)})

    def test_never_produces_diagonal_edges(self):
        z = zmap(K3)
        assert all(i != j for i, j in z.edges)

    @given(digraphs(max_n=8))
    def test_degree_transport(self, d):
        z = zmap(d)
        assert len(z.edges) == len(d.arcs)
        for v in d.vertices():
            assert z.degree_x(v) == d.out_degree(v)
            assert z.degree_y(v) == d.in_degree(v)

    @given(digraphs(max_n=7))
    def test_stacked_split_equals_image_incidence(self, d):
        assert f_matrix(d) == bipartite_incidence(zmap(d))


class TestUnzmap:
    def test_inverts_the_triangle(self):
        assert unzmap(zmap(C3)) == C3

    def test_rejects_diagonal_edge(self):
        with pytest.raises(SelfLoopError):
            unzmap(BipartiteGraph(1, frozenset({(1, 1)})))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_exhaustive(self, n):
        for d in enumerate_digraphs(n):
            assert unzmap(zmap(d)) == d

    @given(digraphs(max_n=8))
    def test_round_trip_random(self, d):
        assert unzmap(zmap(d)) == d

    @given(bipartite_graphs(max_n=8))
    def test_reverse_round_trip_on_admissible_graphs(self, g):
        admissible = BipartiteGraph(g.n, frozenset(e for e in g.edges if e[0] != e[1]))
        assert zmap(unzmap(admissible)) == admissible


class TestHamCyclePullback:
    def test_six_cycle_splits_into_the_two_triangles(self):
        z = zmap(K3)
        witness = CycleWitness(
            GRAPH_CYCLE, (("x", 1), ("y", 2), ("x", 3), ("y", 1), ("x", 2), ("y", 3))
        )
        first, second = ham_cycle_pullback(z, witness)
        assert first == frozenset({(1, 2), (3, 1), (2, 3)})
        assert second == frozenset({(3, 2), (2, 1), (1, 3)})
        # both halves re-certify as single directed cycles
        assert check_cycle(Digraph(3, first), CycleWitness(DIGRAPH_CYCLE, (1, 2, 3)))
        assert check_cycle(Digraph(3, second), CycleWitness(DIGRAPH_CYCLE, (1, 3, 2)))

    def test_rejects_non_hamiltonian_witness(self):
        digon_image = BipartiteGraph(2, frozenset({(1, 2), (2, 1)}))
        fake = CycleWitness(
            GRAPH_CYCLE, (("x", 1), ("y", 2), ("x", 2), ("y", 1))
        )
        with pytest.raises(GraphError):
            ham_cycle_pullback(digon_image, fake)

    def test_rejects_graph_with_diagonal_edges(self):
        g = BipartiteGraph(2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
        witness = CycleWitness(
            GRAPH_CYCLE, (("x", 1), ("y", 1), ("x", 2), ("y", 2))
        )
        with pytest.raises(SelfLoopError):
            ham_cycle_pullback(g, witness)

    @pytest.mark.parametrize("n", [2, 3])
    def test_halves_are_spanning_cycle_factors_exhaustively(self, n):
        for d in enumerate_digraphs(n):
            z = zmap(d)
            result = find_hamiltonian_cycle_bipartite(z)
            if not result.found:
                continue
            first, second = ham_cycle_pullback(z, result.witness)
            assert is_spanning_cycle_factor(d.n, first)
            assert is_spanning_cycle_factor(d.n, second)
            assert first <= d.arcs and second <= d.arcs


class TestMatchingPushforward:
    def test_triangle_cycle_gives_perfect_matching(self):
        witness = CycleWitness(DIGRAPH_CYCLE, (1, 2, 3))
        m = matching_pushforward(C3, witness)
        assert m.pairs == frozenset({(1, 2), (2, 3), (3, 1)})
        assert m.is_perfect(zmap(C3))

    def test_digon_cycle(self):
        witness = CycleWitness(DIGRAPH_CYCLE, (1, 2))
        m = matching_pushforward(DIGON, witness)
        assert m.pairs == frozenset({(1, 2), (2, 1)})
        assert m.is_perfect(zmap(DIGON))

    def test_rejects_non_hamiltonian_witness(self):
        with pytest.raises(GraphError):
            matching_pushforward(C3, CycleWitness(DIGRAPH_CYCLE, (1, 2)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_cycle_of_every_digraph_pushes_to_perfect(self, n):
        for d in enumerate_digraphs(n):
            z = zmap(d)
            for witness in enumerate_hamiltonian_cycles(d):
                assert matching_pushforward(d, witness).is_perfect(z)
