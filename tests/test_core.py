import os
import pickle
import re
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path
from unittest.mock import patch

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
from zham import core, solvers
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
    strongly_connected_reference,
)

SRC = Path(__file__).resolve().parent.parent / "src"

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

    def test_undirected_items_are_min_max_edges(self):
        w = CycleWitness(GRAPH_CYCLE, (1, 4, 2, 3))
        assert w.items == ((1, 4), (2, 4), (2, 3), (1, 3))

    def test_hamiltonian_length_check(self):
        w = CycleWitness(DIGRAPH_CYCLE, (1, 2, 3))
        assert w.is_hamiltonian(C3)
        assert not w.is_hamiltonian(Digraph(4, frozenset({(1, 2), (2, 3), (3, 1)})))


class TestMatching:
    @pytest.mark.parametrize("item", [3, (1,), (1, 2, 3), "ab!"], ids=repr)
    def test_rejects_a_non_pair(self, item):
        with pytest.raises(GraphError, match=f"^{re.escape(repr(item))} is not a pair$"):
            Matching(frozenset({(1, 1), item}))

    @pytest.mark.parametrize("endpoint", [0, -1, True, 1.0, "1"], ids=repr)
    def test_rejects_a_non_positive_endpoint(self, endpoint):
        message = f"^matching endpoint {re.escape(repr(endpoint))} is not a positive integer$"
        for pair in ((endpoint, 2), (2, endpoint)):
            with pytest.raises(GraphError, match=message):
                Matching(frozenset({pair}))

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


class TestVertexAccessors:
    """A per-vertex accessor answers for its own vertex or raises: a degree
    accessor takes 1..n, a row method also 0 (the empty row 0), and no
    other index reads another vertex's row or degree."""

    D = Digraph(3, [(1, 2), (2, 3), (3, 1), (3, 2)])
    G = Graph(3, [(1, 2), (2, 3)])
    B = BipartiteGraph(2, [(1, 1), (1, 2), (2, 2)])

    @pytest.mark.parametrize("u", [0, -1, 4, True, None, 1.0, ("x", 1)])
    def test_degree_accessors_take_only_vertices(self, u):
        for accessor in (self.D.out_degree, self.D.in_degree, self.D.degree, self.G.degree):
            with pytest.raises(VertexRangeError):
                accessor(u)

    @pytest.mark.parametrize("i", [0, -1, 3, True, None])
    def test_part_degree_accessors_take_only_part_indices(self, i):
        for accessor in (self.B.degree_x, self.B.degree_y):
            with pytest.raises(VertexRangeError):
                accessor(i)

    @pytest.mark.parametrize("vertex", [("z", 1), ("x", 0), ("y", 3), ("x", True), 1, ("x", 1, 2)])
    def test_bipartite_degree_takes_only_tagged_vertices(self, vertex):
        with pytest.raises(VertexRangeError):
            self.B.degree(vertex)

    @pytest.mark.parametrize("u", [-1, 4, True, None, ("x", 1)])
    def test_row_methods_take_only_vertices_and_row_0(self, u):
        for row in (self.D.successors, self.D.predecessors, self.G.neighbors):
            assert row(0) == ()
            with pytest.raises(VertexRangeError):
                row(u)

    @pytest.mark.parametrize("i", [-1, 3, True, None])
    def test_part_rows_take_only_part_indices_and_row_0(self, i):
        for row in (self.B.neighbors_x, self.B.neighbors_y):
            assert row(0) == ()
            with pytest.raises(VertexRangeError):
                row(i)


@st.composite
def _given_pairs(draw):
    """A value type, n <= 8 and pairs of its kind as a caller may give them:
    a list with repeats, each pair a tuple or a list, some reversed; or a
    frozenset of such pairs as tuples."""
    cls = draw(st.sampled_from(list(KINDS.values())))
    n = draw(st.integers(1, 8))
    universe = cls.universe(n)
    pairs = []
    for u, v in draw(st.lists(st.sampled_from(universe), max_size=40)) if universe else ():
        if draw(st.booleans()):
            u, v = v, u
        pairs.append([u, v] if draw(st.booleans()) else (u, v))
    pairs += pairs[: draw(st.integers(0, len(pairs)))]
    return cls, n, frozenset(map(tuple, pairs)) if draw(st.booleans()) else pairs


def _bits(ids):
    return sum(1 << i for i in ids)


def _recounted_rows(host):
    """Each row method's rows, recounted from ``host``'s pairs: row name ->
    the set of neighbours of each index 0..n, row 0 empty."""
    ids, pairs = range(host.n + 1), host.pairs
    heads = [{b for a, b in pairs if a == u} for u in ids]
    tails = [{a for a, b in pairs if b == u} for u in ids]
    if isinstance(host, Digraph):
        return {"successors": heads, "predecessors": tails}
    if isinstance(host, Graph):
        return {"neighbors": [h | t for h, t in zip(heads, tails)]}
    return {"neighbors_x": heads, "neighbors_y": tails}


# the index attributes of each form: the bitmask rows a constructor fills up
# to MASK_N, and the tuple rows it fills above it
MASK_FIELDS = {"masks", "in_masks"}
ROW_FIELDS = {"rows", "_pred"}


class TestMaskIndex:
    """The rows a constructor fills, bitmask rows up to ``core.MASK_N`` and
    tuple rows above it, and every view derived from them, agree with a
    recount from the value's pairs."""

    @given(_given_pairs(), st.booleans(), st.data())
    def test_views_match_a_recount_from_the_pairs(self, case, masked, data):
        # with MASK_N at 0 every value is indexed by tuple rows, as a value
        # above MASK_N is
        with patch.object(core, "MASK_N", core.MASK_N if masked else 0), patch.object(
            solvers, "MASK_N", core.MASK_N if masked else 0
        ):
            self._check(*case, masked, data)

    @staticmethod
    def _check(cls, n, given_pairs, masked, data):
        host, twin = cls(n, given_pairs), cls(n, given_pairs)
        filled, derived = (MASK_FIELDS, ROW_FIELDS) if masked else (ROW_FIELDS, MASK_FIELDS)
        assert filled & set(vars(twin)) and not derived & set(vars(twin))
        # the constructor fills the degree table beside the rows
        assert "degree_table" in vars(twin)
        expected = {tuple(p) if cls is not Graph else tuple(sorted(p)) for p in given_pairs}
        assert host.pairs == expected
        rows = _recounted_rows(host)
        if cls is Digraph:
            outs = [len(rows["successors"][u]) for u in host.vertices()]
            ins = [len(rows["predecessors"][u]) for u in host.vertices()]
            # the reach walk reads the rows the constructor filled
            assert solvers.strongly_connected(host) == strongly_connected_reference(host)
            assert masked or not MASK_FIELDS & set(vars(host))
            assert host.masks == tuple(map(_bits, rows["successors"]))
            assert host.in_masks == tuple(map(_bits, rows["predecessors"]))
            totals = tuple(map(int.__add__, outs, ins))
            assert host.degree_table == (host.vertices(), totals, tuple(outs), tuple(ins))
            for u in host.vertices():
                assert (host.out_degree(u), host.in_degree(u)) == (outs[u - 1], ins[u - 1])
                assert host.degree(u) == totals[u - 1]
        elif cls is Graph:
            degree_list = tuple(len(rows["neighbors"][u]) for u in host.vertices())
            assert host.masks == tuple(map(_bits, rows["neighbors"]))
            assert host.degree_table == (host.vertices(), degree_list)
            assert tuple(map(host.degree, host.vertices())) == degree_list
        else:
            xs, ys = rows["neighbors_x"], rows["neighbors_y"]
            assert host.masks == (0, *(_bits(n + j for j in row) for row in xs[1:]),
                                  *map(_bits, ys[1:]))
            degree_list = tuple(len(row) for row in xs[1:] + ys[1:])
            labels = [f"{side}{i}" for side in "xy" for i in range(1, n + 1)]
            assert host.degree_table == (tuple(labels), degree_list)
            assert tuple(map(host.degree, host.vertices())) == degree_list
            assert tuple(map(host.degree_x, range(1, n + 1))) == degree_list[:n]
            assert tuple(map(host.degree_y, range(1, n + 1))) == degree_list[n:]
        assert tuple(map(_bits, host.rows)) == host.masks
        vertices = list(host.vertices())
        order = data.draw(st.permutations(vertices))
        seq = order[: data.draw(st.integers(0, len(order)))]
        for kind in (DIGRAPH_CYCLE, GRAPH_CYCLE):
            witness = CycleWitness(kind, seq)
            assert check_cycle(host, witness) == check_cycle_reference(host, witness)
        # the rows, filled or derived on first read, are invisible to
        # equality, hashing, repr and pickling
        for name, recounted in rows.items():
            read = [getattr(host, name)(u) for u in range(n + 1)]
            assert read == [tuple(sorted(row)) for row in recounted]
            assert all(type(row) is tuple for row in read)
        assert host == twin and hash(host) == hash(twin) and repr(host) == repr(twin)
        copy = pickle.loads(pickle.dumps(host))
        assert copy == twin and hash(copy) == hash(twin) and repr(copy) == repr(twin)
        for name in rows:
            assert [getattr(copy, name)(u) for u in range(n + 1)] == [
                getattr(twin, name)(u) for u in range(n + 1)
            ]


# a sparse path and cycle on 10^5 vertices, far above core.MASK_N, taken
# through parsing, the degree and connectivity checks, the prunes, the
# certificate check, two predicates, the Z-mapping, matching and
# serialization; the last line printed is the peak RSS in MB and the seconds
LARGE_SPARSE = """\
import resource, sys, time
from zham import CycleWitness, DIGRAPH_CYCLE, GRAPH_CYCLE, Digraph, Graph, check_cycle, solvers
from zham.conditions import ghouila_houri, las_vergnas, woodall
from zham.fileio import parse_graph_text, serialize_graph
from zham.zmapping import zmap

limit = int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
start = time.perf_counter()
n = 100_000
arcs = [(i, i + 1) for i in range(1, n)]
text = f"D {n}\\n" + "".join(f"{u} {v}\\n" for u, v in arcs)
path = parse_graph_text(text)
cycle = Digraph(n, arcs + [(n, 1)])
assert serialize_graph(path) == text
assert (path.out_degree(n), path.in_degree(1), cycle.degree(1)) == (0, 0, 2)
assert not solvers.strongly_connected(path) and solvers.strongly_connected(cycle)
assert not solvers.find_hamiltonian_cycle(path).found
assert check_cycle(cycle, CycleWitness(DIGRAPH_CYCLE, range(1, n + 1)))
assert not check_cycle(cycle, CycleWitness(DIGRAPH_CYCLE, range(n, 0, -1)))
assert not ghouila_houri(cycle).hypothesis_holds and not woodall(cycle).hypothesis_holds
ring = Graph(n, arcs + [(n, 1)])
assert check_cycle(ring, CycleWitness(GRAPH_CYCLE, range(n, 0, -1)))
assert not solvers.find_hamiltonian_cycle_undirected(Graph(n, arcs)).found
image = zmap(cycle)
assert image.degree_x(n) == image.degree_y(1) == 1
assert len(solvers.max_matching(image)) == n
assert not las_vergnas(image).hypothesis_holds
assert serialize_graph(image).count("\\n") == n + 1
print(round(time.perf_counter() - start, 2))
"""

# runs ``python -c`` on its arguments as its own child, then prints the
# child's output and its peak RSS in MB.  On Linux a process's ru_maxrss
# starts from the peak of the process that spawned it (a vfork child takes
# its parent's across exec), so the script is spawned from this small
# interpreter, not from the test process, whose peak grows with the run.
LAUNCHER = """\
import resource, subprocess, sys

done = subprocess.run([sys.executable, "-c", *sys.argv[1:]], capture_output=True, text=True)
sys.stderr.write(done.stderr)
print(done.stdout.strip(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
sys.exit(done.returncode)
"""


class TestLargeSparseValues:
    """A value far above ``core.MASK_N`` is indexed by tuple rows, so a
    sparse path or cycle on 10^5 vertices is handled in time and memory
    linear in n + m.  Bitmask rows as wide as n would take about n^2 / 16
    bytes per table, over 600 MB here; the child process is capped at
    ``LIMIT_MB`` of address space, so such a fault fails fast.  Spawned
    through ``LAUNCHER``, the child peaks near 182 MB."""

    LIMIT_MB = 1024
    PEAK_MB = 240
    SECONDS = 60

    def test_a_long_path_and_cycle_stay_linear(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", LAUNCHER, LARGE_SPARSE, str(self.LIMIT_MB)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, "")
        seconds, peak_mb = map(float, done.stdout.split())
        assert peak_mb < self.PEAK_MB and seconds < self.SECONDS
