import pytest
from hypothesis import given

from zham import (
    BipartiteGraph,
    Digraph,
    Graph,
    GraphError,
    Matching,
    ParseError,
    SelfLoopError,
    VertexRangeError,
    build_digraph,
    parse_graph_file,
    parse_graph_text,
    serialize_graph,
    to_dot,
    write_graph_file,
)

from brute import bipartite_graphs, digraphs, graphs

C3_TEXT = "D 3\n1 2\n2 3\n3 1\n"


class TestParse:
    def test_digraph(self):
        d = parse_graph_text(C3_TEXT)
        assert isinstance(d, Digraph)
        assert d.arcs == frozenset({(1, 2), (2, 3), (3, 1)})

    def test_bipartite(self):
        g = parse_graph_text("B 2\n1 2\n2 1\n")
        assert isinstance(g, BipartiteGraph)
        assert g.edges == frozenset({(1, 2), (2, 1)})

    def test_undirected(self):
        g = parse_graph_text("G 3\n1 2\n3 2\n")
        assert isinstance(g, Graph)
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_comments_and_blanks_are_skipped(self):
        text = "# a triangle\n\nD 3\n# first arc\n1 2\n2 3\n\n3 1\n"
        assert parse_graph_text(text) == parse_graph_text(C3_TEXT)

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=ascii)
    def test_a_unicode_line_separator_stays_inside_its_comment(self, char):
        # lines end at "\n" only: the comment keeps its tail, and the lines
        # after it keep their numbers
        text = f"D 2\n# note{char} 3 4\n1 2\n"
        assert parse_graph_text(text) == parse_graph_text("D 2\n1 2\n")
        with pytest.raises(VertexRangeError) as exc:
            parse_graph_text(text + "1 5\n")
        assert str(exc.value) == "vertex 5 out of range 1..2 at line 4"
        with pytest.raises(ParseError) as exc:
            parse_graph_text(f"D 2\n# note{char}x\n1\n")
        assert exc.value.line_no == 3

    def test_crlf_line_ends_parse(self):
        assert parse_graph_text(C3_TEXT.replace("\n", "\r\n")) == parse_graph_text(C3_TEXT)
        with pytest.raises(VertexRangeError) as exc:
            parse_graph_text("D 3\r\n# note\r\n1 4\r\n")
        assert str(exc.value) == "vertex 4 out of range 1..3 at line 3"

    def test_bipartite_diagonal_edge_is_legal_in_files(self):
        g = parse_graph_text("B 2\n1 1\n")
        assert g.edges == frozenset({(1, 1)})

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph_text("# nothing\n")

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_graph_text("Q 3\n1 2\n")
        assert exc.value.line_no == 1

    def test_bad_edge_line_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_graph_text("D 3\n1 2\n1 2 3\n")
        assert exc.value.line_no == 3

    def test_non_integer_endpoint(self):
        with pytest.raises(ParseError):
            parse_graph_text("D 3\n1 x\n")

    def test_self_loop_names_the_line(self):
        with pytest.raises(SelfLoopError) as exc:
            parse_graph_text("D 3\n1 2\n2 2\n")
        assert "line 3" in str(exc.value)

    def test_out_of_range_names_the_line(self):
        with pytest.raises(VertexRangeError) as exc:
            parse_graph_text("D 3\n1 4\n")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("D 3\n1 2\n1 4\n", VertexRangeError, "vertex 4 out of range 1..3 at line 3"),
            ("B 3\n1 2\n4 1\n", VertexRangeError, "vertex 4 out of range 1..3 (x part) at line 3"),
            ("G 3\n1 2\n2 2\n", SelfLoopError, "self-loop at vertex 2 at line 3"),
            ("D 3\n-1 2\n", VertexRangeError, "vertex -1 out of range 1..3 at line 2"),
        ],
        ids=["D", "B", "G", "negative"],
    )
    def test_a_bad_pair_is_refused_in_the_validators_words(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_graph_text(text)
        assert str(exc.value) == message

    def test_the_first_bad_line_is_named_whatever_its_fault(self):
        with pytest.raises(ParseError) as exc:
            parse_graph_text("D 3\n1 x\n1 4\n")
        assert exc.value.line_no == 2
        with pytest.raises(VertexRangeError, match="at line 2$"):
            parse_graph_text("D 3\n1 4\n1 x\n")

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("D 10\n1_0 2\n", 2),
            ("D ٣\n١ ٢\n", 1),  # Arabic-Indic digits
            ("D 3\n١ ٢\n", 2),
            ("D +3\n+1 2\n", 1),
            ("D 3\n+1 2\n", 2),
        ],
        ids=["underscore", "arabic-indic-header", "arabic-indic-endpoint", "plus-header", "plus"],
    )
    def test_an_index_is_an_optional_minus_and_ascii_digits(self, text, line_no):
        # int() takes each of these tokens; the format does not
        with pytest.raises(ParseError) as exc:
            parse_graph_text(text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("kind", ["D", "B", "G"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_header_below_one_names_the_header_line(self, kind, n):
        with pytest.raises(GraphError, match=f"^header size {n} is below 1 at line 2$"):
            parse_graph_text(f"# no vertices\n{kind} {n}\n1 2\n")


class TestSerialize:
    def test_canonical_triangle(self):
        assert serialize_graph(parse_graph_text(C3_TEXT)) == C3_TEXT

    def test_edges_come_out_sorted(self):
        d = build_digraph(3, [(3, 1), (1, 2), (2, 3)])
        assert serialize_graph(d) == C3_TEXT

    def test_empty_graph_is_header_only(self):
        assert serialize_graph(Digraph(4)) == "D 4\n"

    @given(digraphs())
    def test_round_trip_digraphs(self, d):
        assert parse_graph_text(serialize_graph(d)) == d

    @given(bipartite_graphs())
    def test_round_trip_bipartite(self, g):
        assert parse_graph_text(serialize_graph(g)) == g

    @given(graphs())
    def test_round_trip_graphs(self, g):
        assert parse_graph_text(serialize_graph(g)) == g

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "c3.txt"
        d = parse_graph_text(C3_TEXT)
        write_graph_file(path, d)
        assert path.read_bytes() == C3_TEXT.encode()
        assert parse_graph_file(path) == d


@pytest.mark.parametrize("render", [serialize_graph, to_dot])
@pytest.mark.parametrize("value", [None, C3_TEXT, Matching()])
def test_non_graph_is_a_graph_error(render, value):
    with pytest.raises(GraphError, match="^cannot (serialize|render) "):
        render(value)


class TestDot:
    def test_digraph_arrows(self):
        dot = to_dot(parse_graph_text(C3_TEXT))
        assert "1 -> 2;" in dot and dot.startswith("digraph")

    def test_bipartite_marks_parts(self):
        g = BipartiteGraph(2, frozenset({(1, 2)}))
        dot = to_dot(g)
        assert "node [shape=box];" in dot
        assert "node [shape=circle];" in dot
        assert "x1 -- y2;" in dot

    def test_undirected_edges(self):
        g = Graph(2, frozenset({(1, 2)}))
        assert "1 -- 2;" in to_dot(g)
