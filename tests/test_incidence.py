from hypothesis import given

from zham import (
    BipartiteGraph,
    Digraph,
    Graph,
    bipartite_incidence,
    build_digraph,
    graph_incidence,
    incidence_matrix,
    is_digraph_incidence,
    is_graph_incidence,
    is_split_incidence,
)

from brute import digraphs, graphs

C3 = build_digraph(3, [(1, 2), (2, 3), (3, 1)])


def test_triangle_incidence_is_the_cyclic_band():
    # +1 on the diagonal, -1 one row below (wrapping): the canonical
    # cycle shape with no row or column exchange needed.
    expected = ((1, 0, -1), (-1, 1, 0), (0, -1, 1))
    assert incidence_matrix(C3) == expected


def test_single_arc_column():
    d = build_digraph(2, [(1, 2)])
    assert incidence_matrix(d) == ((1,), (-1,))


def test_empty_arc_set_gives_n_by_zero():
    c = incidence_matrix(Digraph(4))
    assert c == ((), (), (), ())
    assert is_digraph_incidence(c)


def test_columns_follow_ascending_arc_order():
    d = build_digraph(3, [(2, 1), (1, 3), (1, 2)])
    c = incidence_matrix(d)
    # arcs sorted: (1,2), (1,3), (2,1)
    assert tuple(row[0] for row in c) == (1, -1, 0)
    assert tuple(row[1] for row in c) == (1, 0, -1)
    assert tuple(row[2] for row in c) == (-1, 1, 0)


@given(digraphs(max_n=7))
def test_digraph_columns_sum_to_zero(d):
    c = incidence_matrix(d)
    assert is_digraph_incidence(c)
    assert all(sum(col) == 0 for col in zip(*c))


@given(graphs(max_n=7))
def test_graph_columns_sum_to_two(g):
    c = graph_incidence(g)
    assert is_graph_incidence(c)
    assert all(sum(col) == 2 for col in zip(*c))


def test_bipartite_incidence_rows_split_by_part():
    g = BipartiteGraph(2, frozenset({(1, 2), (2, 1)}))
    c = bipartite_incidence(g)
    assert (len(c), len(c[0])) == (4, 2)
    # columns sorted: (1,2) then (2,1)
    assert tuple(row[0] for row in c) == (1, 0, 0, 1)
    assert tuple(row[1] for row in c) == (0, 1, 1, 0)
    assert is_split_incidence(c)
    assert all(sum(col) == 2 for col in zip(*c))


class TestShapeValidators:
    def test_reject_wrong_entries(self):
        assert not is_digraph_incidence(((2,), (-2,)))
        assert not is_graph_incidence(((1,), (-1,)))
        assert not is_digraph_incidence(((1.0,), (-1.0,)))  # int entries only

    def test_reject_wrong_column_shape(self):
        assert not is_digraph_incidence(((1, 1), (1, -1)))
        assert not is_graph_incidence(((1,), (1,), (1,)))  # three +1 per column

    def test_graph_incidence_accepts_two_ones(self):
        g = Graph(3, frozenset({(1, 2)}))
        assert is_graph_incidence(graph_incidence(g))

    def test_split_shape_needs_one_per_half(self):
        bad = ((1,), (1,), (0,), (0,))
        assert not is_split_incidence(bad)
        assert not is_split_incidence(((1,), (0,), (0,)))  # odd rows

    def test_reject_ragged_rows(self):
        # rows of unequal length are no matrix: False, not an exception
        assert not is_digraph_incidence([[1], [-1, 0]])
        assert not is_graph_incidence([[1, 0], [1]])
        assert not is_split_incidence([[1], [0, 0], [0], [1]])
        assert not is_digraph_incidence(((1,), -1))  # a row that is no row
