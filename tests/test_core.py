from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zham import (
    DIGRAPH_CYCLE,
    GRAPH_CYCLE,
    BipartiteGraph,
    CycleWitness,
    Digraph,
    Graph,
    KINDS,
    GraphError,
    Matching,
    SelfLoopError,
    VertexRangeError,
    build_digraph,
    check_cycle,
    degrees,
    format_bipartite_vertex,
)
from zham.core import arc_universe, bipartite_edge_universe, graph_edge_universe
from zham.verifier import enumerate_bipartite, enumerate_digraphs, enumerate_graphs

from brute import (
    all_vertex_sequences,
    bipartite_graphs,
    check_cycle_reference,
    digraphs,
    directed_cycle_catalog,
    graphs,
    normalize_directed,
)

C3 = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
K3 = build_digraph(3, [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v])
ZK3 = BipartiteGraph(3, frozenset((u, v) for u in range(1, 4) for v in range(1, 4) if u != v))


class TestBuildDigraph:
    def test_triangle(self):
        assert C3.n == 3
        assert C3.arcs == frozenset({(1, 2), (2, 3), (3, 1)})

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_digraph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexRangeError):
            build_digraph(2, [(1, 3)])
        with pytest.raises(VertexRangeError):
            build_digraph(2, [(0, 1)])

    def test_error_codes_are_distinct(self):
        assert not issubclass(SelfLoopError, VertexRangeError)
        assert not issubclass(VertexRangeError, SelfLoopError)
        assert issubclass(SelfLoopError, GraphError)
        assert issubclass(VertexRangeError, GraphError)

    def test_duplicate_arcs_collapse(self):
        d = build_digraph(3, [(1, 2), (1, 2), (2, 3), (3, 1)])
        assert len(d.arcs) == 3

    def test_rejects_bad_counts(self):
        with pytest.raises(GraphError):
            Digraph(0)
        with pytest.raises(GraphError):
            Digraph(-1)

    def test_adjacency_is_sorted(self):
        d = build_digraph(4, [(1, 4), (1, 2), (1, 3)])
        assert d.successors(1) == (2, 3, 4)
        assert d.predecessors(4) == (1,)


class TestDegrees:
    def test_triangle(self):
        assert degrees(C3) == {1: (1, 1, 2), 2: (1, 1, 2), 3: (1, 1, 2)}

    def test_complete(self):
        assert degrees(K3) == {1: (2, 2, 4), 2: (2, 2, 4), 3: (2, 2, 4)}

    def test_arcless(self):
        assert degrees(Digraph(3)) == {v: (0, 0, 0) for v in (1, 2, 3)}

    @given(digraphs(max_n=7))
    def test_degree_sums_count_arcs(self, d):
        per_vertex = degrees(d)
        assert sum(t[0] for t in per_vertex.values()) == len(d.arcs)
        assert sum(t[1] for t in per_vertex.values()) == len(d.arcs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_per_vertex_form(self, n):
        for d in enumerate_digraphs(n):
            expected = {v: (d.out_degree(v), d.in_degree(v), d.degree(v)) for v in d.vertices()}
            assert degrees(d) == expected, d


class TestGraph:
    def test_edges_normalize(self):
        g = Graph(3, frozenset({(2, 1), (1, 2), (3, 1)}))
        assert g.edges == frozenset({(1, 2), (1, 3)})
        assert g.neighbors(1) == (2, 3)

    def test_rejects_loop(self):
        with pytest.raises(SelfLoopError):
            Graph(3, frozenset({(2, 2)}))


class TestBipartiteGraph:
    def test_parts_are_separate_index_spaces(self):
        g = BipartiteGraph(2, frozenset({(1, 1), (2, 1)}))
        assert g.degree_x(1) == 1 and g.degree_y(1) == 2
        assert g.neighbors_y(1) == (1, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexRangeError):
            BipartiteGraph(2, frozenset({(1, 3)}))

    def test_vertices_are_tagged(self):
        g = BipartiteGraph(2)
        assert list(g.vertices()) == [("x", 1), ("x", 2), ("y", 1), ("y", 2)]
        assert format_bipartite_vertex(("y", 2)) == "y2"


class TestKinds:
    def test_one_table_in_sweep_order(self):
        assert KINDS == {"digraph": Digraph, "bipartite": BipartiteGraph, "graph": Graph}
        assert [
            (cls.kind, cls.letter, cls.label, cls.max_n, cls.universe) for cls in KINDS.values()
        ] == [
            ("digraph", "D", "digraph (D header)", 5, arc_universe),
            ("bipartite", "B", "bipartite (B header)", 5, bipartite_edge_universe),
            ("graph", "G", "undirected (G header)", 7, graph_edge_universe),
        ]

    @pytest.mark.parametrize("cls", list(KINDS.values()))
    def test_kind_facts_are_not_fields(self, cls):
        a, b = cls(2, [(1, 2)]), cls(2, [(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"{cls.__name__}(n=2, {'arcs' if cls is Digraph else 'edges'}=[(1, 2)])"
        assert a.universe(2) == cls.universe(2)
        # each type keeps its own __post_init__, wrapped per type by the tracer
        assert "__post_init__" in vars(cls)


class _Int(int):
    pass


class TestValidator:
    """The one validator, ``_index_pairs``, keeps each type's messages."""

    @pytest.mark.parametrize(
        "build,error,message",
        [
            (lambda: Digraph(0), GraphError, "vertex count must be a positive integer, got 0"),
            (lambda: Graph(True), GraphError, "vertex count must be a positive integer, got True"),
            (
                lambda: BipartiteGraph(2.0),
                GraphError,
                "part size must be a positive integer, got 2.0",
            ),
            (lambda: Digraph(3, [5]), GraphError, "5 is not a pair"),
            (lambda: Graph(3, [(1, 2, 3)]), GraphError, "(1, 2, 3) is not a pair"),
            (lambda: Digraph(3, [(1, 4)]), VertexRangeError, "vertex 4 out of range 1..3"),
            (lambda: Graph(3, [(0, 1)]), VertexRangeError, "vertex 0 out of range 1..3"),
            (lambda: Digraph(3, [(True, 2)]), GraphError, "endpoint True is not an integer"),
            (lambda: Graph(3, [(1, 2.0)]), GraphError, "endpoint 2.0 is not an integer"),
            (
                lambda: BipartiteGraph(3, [(1, 4)]),
                VertexRangeError,
                "vertex 4 out of range 1..3 (y part)",
            ),
            (
                lambda: BipartiteGraph(3, [("1", 4)]),
                GraphError,
                "endpoint '1' is not an integer (x part)",
            ),
            (lambda: Digraph(3, [(2, 2)]), SelfLoopError, "self-loop at vertex 2"),
            (lambda: Graph(3, [(_Int(3), 3)]), SelfLoopError, "self-loop at vertex 3"),
            # build_digraph leaves every pair to the same validator
            (lambda: build_digraph(3, [[5]]), GraphError, "[5] is not a pair"),
            (lambda: build_digraph(3, [[1, 2, 3]]), GraphError, "[1, 2, 3] is not a pair"),
            (lambda: build_digraph(3, [[1, 5]]), VertexRangeError, "vertex 5 out of range 1..3"),
            (lambda: build_digraph(4, [[4, 4]]), SelfLoopError, "self-loop at vertex 4"),
            (
                lambda: build_digraph(3, [([1], 2)]),
                GraphError,
                "endpoint [1] is not an integer",
            ),
        ],
    )
    def test_messages(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_int_subclasses_are_accepted_and_normalised(self):
        g = Graph(3, [(_Int(3), 1)])
        assert g.edges == {(1, 3)} and g.neighbors(3) == (1,)
        assert BipartiteGraph(2, [(_Int(2), _Int(2))]).neighbors_y(2) == (2,)

    def test_rows_are_sorted_for_every_type(self):
        pairs = [(3, 1), (1, 3), (2, 1), (1, 2)]
        d = Digraph(3, pairs)
        assert d.successors(1) == (2, 3) and d.predecessors(1) == (2, 3)
        g = Graph(3, pairs)
        assert g.edges == {(1, 2), (1, 3)} and g.neighbors(1) == (2, 3)
        b = BipartiteGraph(3, pairs)
        assert b.neighbors_x(1) == (2, 3) and b.neighbors_y(1) == (2, 3)


class TestCheckCycle:
    def test_triangle_forward(self):
        assert check_cycle(C3, CycleWitness(DIGRAPH_CYCLE, (1, 2, 3)))

    def test_triangle_reversed_fails(self):
        assert not check_cycle(C3, CycleWitness(DIGRAPH_CYCLE, (1, 3, 2)))

    def test_bipartite_six_cycle(self):
        seq = (("x", 1), ("y", 2), ("x", 3), ("y", 1), ("x", 2), ("y", 3))
        assert check_cycle(ZK3, CycleWitness(GRAPH_CYCLE, seq))

    def test_digon_is_a_cycle(self):
        digon = build_digraph(2, [(1, 2), (2, 1)])
        assert check_cycle(digon, CycleWitness(DIGRAPH_CYCLE, (1, 2)))

    def test_single_vertex_never_cycles(self):
        assert not check_cycle(Digraph(1), CycleWitness(DIGRAPH_CYCLE, (1,)))

    def test_undirected_needs_length_three(self):
        g = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        assert check_cycle(g, CycleWitness(GRAPH_CYCLE, (1, 2, 3)))
        assert not check_cycle(g, CycleWitness(GRAPH_CYCLE, (1, 2)))

    @pytest.mark.parametrize(
        "witness",
        [
            CycleWitness(DIGRAPH_CYCLE, (1, 2, 2)),          # repeated vertex
            CycleWitness(DIGRAPH_CYCLE, (1, 2, 9)),          # out of range
            CycleWitness(DIGRAPH_CYCLE, (1, "two", 3)),      # junk entry
            CycleWitness(GRAPH_CYCLE, (1, 2, 3)),            # wrong kind for digraph
            CycleWitness(DIGRAPH_CYCLE, ()),                 # empty
        ],
    )
    def test_malformed_witnesses_fail_quietly(self, witness):
        assert check_cycle(C3, witness) is False

    def test_not_a_witness_fails(self):
        assert check_cycle(C3, (1, 2, 3)) is False

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_catalog_oracle_exhaustively(self, n):
        # Independent route: rotation-normalized catalog built by brute force
        # over all vertex subsets and permutations.
        candidates = list(all_vertex_sequences(n))
        for d in enumerate_digraphs(n):
            catalog = directed_cycle_catalog(d)
            for seq in candidates:
                expected = len(seq) >= 2 and normalize_directed(seq) in catalog
                got = check_cycle(d, CycleWitness(DIGRAPH_CYCLE, seq))
                assert got == expected, (d, seq)


def _tokens(host):
    """Candidate witness entries for ``host``: its own vertices, then
    out-of-range, bool and other-kind entries."""
    n = host.n
    if isinstance(host, BipartiteGraph):
        return list(host.vertices()) + [("x", 0), ("y", n + 1), ("x", True), ("z", 1), 1]
    return list(host.vertices()) + [0, n + 1, True, ("x", 1)]


def _witnesses(host, max_len):
    """Every sequence of at most ``max_len`` tokens and every ordering of
    distinct host vertices, each as both witness kinds.  Not deduplicated:
    ``(True,) == (1,)``, and both must be tried."""
    vertices = list(host.vertices())
    seqs = [seq for k in range(max_len + 1) for seq in product(_tokens(host), repeat=k)]
    seqs += [seq for k in range(2, len(vertices) + 1) for seq in permutations(vertices, k)]
    return [CycleWitness(kind, seq) for kind in (DIGRAPH_CYCLE, GRAPH_CYCLE) for seq in seqs]


_ENUMERATE = {
    "digraph": enumerate_digraphs,
    "graph": enumerate_graphs,
    "bipartite": enumerate_bipartite,
}


class TestCheckCycleReference:
    @pytest.mark.parametrize(
        "kind, n, max_len",
        [("digraph", n, 3) for n in (1, 2, 3)]
        + [("digraph", 4, 2)]
        + [("graph", n, 3) for n in (1, 2, 3, 4)]
        + [("bipartite", n, 3) for n in (1, 2)],
    )
    def test_matches_reference_exhaustively(self, kind, n, max_len):
        hosts = list(_ENUMERATE[kind](n))
        witnesses = _witnesses(hosts[0], max_len)
        for host in hosts:
            for w in witnesses:
                assert check_cycle(host, w) == check_cycle_reference(host, w), (host, w)

    @given(
        st.one_of(digraphs(max_n=5), graphs(max_n=5), bipartite_graphs(max_n=3)),
        st.sampled_from([DIGRAPH_CYCLE, GRAPH_CYCLE]),
        st.data(),
    )
    def test_matches_reference_on_random_hosts(self, host, kind, data):
        vertices = list(host.vertices())
        seq = data.draw(
            st.one_of(
                st.lists(st.sampled_from(_tokens(host)), max_size=len(vertices) + 1),
                st.permutations(vertices).flatmap(
                    lambda p: st.integers(0, len(p)).map(lambda k: p[:k])
                ),
            )
        )
        w = CycleWitness(kind, seq)
        assert check_cycle(host, w) == check_cycle_reference(host, w)

    @pytest.mark.parametrize(
        "host",
        [C3, ZK3, Graph(3, frozenset({(1, 2), (2, 3), (1, 3)})), None, 3, "D 3\n", Matching()],
    )
    @pytest.mark.parametrize(
        "witness",
        [
            None,
            (1, 2, 3),
            [1, 2, 3],
            "123",
            CycleWitness(DIGRAPH_CYCLE, (1, 2, 3)),
            CycleWitness(GRAPH_CYCLE, ([1], [2], [3])),
            CycleWitness(GRAPH_CYCLE, (("x", [1]), ("y", 1), ("x", 2))),
            CycleWitness(["unhashable kind"], (1, 2, 3)),
        ],
    )
    def test_never_raises(self, host, witness):
        assert check_cycle(host, witness) is check_cycle_reference(host, witness)


class TestWitnessItems:
    def test_digraph_items_in_traversal_order(self):
        w = CycleWitness(DIGRAPH_CYCLE, (1, 2, 3))
        assert w.items == ((1, 2), (2, 3), (3, 1))

    def test_bipartite_items_are_cross_pairs(self):
        w = CycleWitness(GRAPH_CYCLE, (("x", 1), ("y", 2), ("x", 3), ("y", 1), ("x", 2), ("y", 3)))
        assert w.items == ((1, 2), (3, 2), (3, 1), (2, 1), (2, 3), (1, 3))

    def test_hamiltonian_length_check(self):
        w = CycleWitness(DIGRAPH_CYCLE, (1, 2, 3))
        assert w.is_hamiltonian(C3)
        assert not w.is_hamiltonian(Digraph(4, frozenset({(1, 2), (2, 3), (3, 1)})))


class TestMatching:
    def test_rejects_shared_endpoint(self):
        with pytest.raises(GraphError):
            Matching(frozenset({(1, 1), (1, 2)}))
        with pytest.raises(GraphError):
            Matching(frozenset({(1, 1), (2, 1)}))

    def test_perfect_requires_membership_and_size(self):
        m = Matching(frozenset({(1, 2), (2, 3), (3, 1)}))
        z_c3 = BipartiteGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        assert m.is_perfect(z_c3)
        assert not Matching(frozenset({(1, 2)})).is_perfect(z_c3)
        stranger = Matching(frozenset({(1, 1), (2, 2), (3, 3)}))
        assert not stranger.is_perfect(z_c3)


def _ascending(row):
    return all(a < b for a, b in zip(row, row[1:]))


class TestAdjacencyRows:
    """Every adjacency row is strictly ascending and holds exactly the
    vertex's neighbours, whatever order the edges were given in."""

    @given(digraphs(max_n=7))
    def test_digraph_rows(self, d):
        for u in range(d.n + 1):
            assert _ascending(d.successors(u))
            assert _ascending(d.predecessors(u))
            assert set(d.successors(u)) == {v for a, v in d.arcs if a == u}
            assert set(d.predecessors(u)) == {a for a, v in d.arcs if v == u}

    @given(graphs(max_n=7))
    def test_graph_rows(self, g):
        for u in range(g.n + 1):
            assert _ascending(g.neighbors(u))
            assert set(g.neighbors(u)) == {b for a, b in g.edges if a == u} | {
                a for a, b in g.edges if b == u
            }

    @given(bipartite_graphs(max_n=6))
    def test_bipartite_rows(self, g):
        for i in range(g.n + 1):
            assert _ascending(g.neighbors_x(i))
            assert _ascending(g.neighbors_y(i))
            assert set(g.neighbors_x(i)) == {j for a, j in g.edges if a == i}
            assert set(g.neighbors_y(i)) == {a for a, j in g.edges if j == i}
