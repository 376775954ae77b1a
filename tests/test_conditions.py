import pytest
from hypothesis import given, strategies as st

from zham import (
    BipartiteGraph,
    Digraph,
    Graph,
    GraphError,
    build_digraph,
    dirac,
    disjoint_hc_degree,
    faudree,
    ghouila_houri,
    las_vergnas,
    moon_moser_half,
    moon_moser_k,
    ore_bipartite,
    woodall,
    woodall_plus2,
    zhu_digraph,
)
import pickle
import re
import sys
import threading

from zham import conditions, verifier
from zham.conditions import CONDITION_IDS, ConditionReport, build_registry
from zham.verifier import enumerate_bipartite, enumerate_digraphs, enumerate_graphs

import brute
from brute import bipartite_graphs, digraphs, graphs


def complete_digraph(n):
    return build_digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v])


def complete_bipartite(n):
    return BipartiteGraph(n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1)))


def complete_graph(n):
    return Graph(n, frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


C3 = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
K3 = complete_digraph(3)
K4 = complete_digraph(4)
Z_C3 = BipartiteGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))


class TestReportInvariant:
    def test_holds_iff_no_violations(self):
        with pytest.raises(GraphError):
            ConditionReport("dirac", True, ({"vertex": 1},), {})
        with pytest.raises(GraphError):
            ConditionReport("dirac", False, (), {})

    def test_ids_are_stable(self):
        assert CONDITION_IDS == (
            "dirac",
            "ghouila-houri",
            "faudree",
            "zhu",
            "moon-moser-k",
            "moon-moser-half",
            "cor1-disjoint-hc",
            "las-vergnas",
            "woodall",
            "cor2-woodall-plus2",
            "cor3-ore-pm",
            "cor3-ore-2pm",
        )


class TestDirac:
    def test_complete_four_holds(self):
        assert dirac(complete_graph(4)).hypothesis_holds

    def test_path_fails_at_endpoints(self):
        g = Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}))
        report = dirac(g)
        assert not report.hypothesis_holds
        assert {"vertex": 1, "degree": 1} in report.violating_items

    def test_four_cycle_holds_with_equality(self):
        g = Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
        assert dirac(g).hypothesis_holds

    def test_too_small(self):
        report = dirac(Graph(2, frozenset({(1, 2)})))
        assert not report.hypothesis_holds and report.note == "n too small"


class TestGhouilaHouri:
    def test_complete_three_holds(self):
        assert ghouila_houri(K3).hypothesis_holds

    def test_plain_cycle_fails(self):
        report = ghouila_houri(C3)
        assert not report.hypothesis_holds
        assert {"vertex": 1, "degree": 2} in report.violating_items

    def test_strong_with_one_weak_vertex_lists_it(self):
        d = Digraph(4, K4.arcs - {(1, 2), (2, 1), (1, 3)})
        assert d.degree(1) == 3
        report = ghouila_houri(d)
        assert not report.hypothesis_holds
        assert {"vertex": 1, "degree": 3} in report.violating_items

    def test_not_strong_is_a_violation_even_with_high_degrees(self):
        # two digons bridged one way only: every total degree is 4 = n, yet
        # {3, 4} cannot reach {1, 2}
        d = build_digraph(
            4, [(1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (1, 4), (2, 3), (2, 4)]
        )
        assert all(d.degree(v) >= 4 for v in d.vertices())
        report = ghouila_houri(d)
        assert not report.hypothesis_holds
        assert {"reason": "not strongly connected"} in report.violating_items


class TestFaudree:
    def test_complete_four_holds(self):
        assert faudree(complete_graph(4)).hypothesis_holds

    def test_star_fails(self):
        star = Graph(4, frozenset({(1, 2), (1, 3), (1, 4)}))
        report = faudree(star)
        assert not report.hypothesis_holds
        assert report.parameters == {"n": 4, "k": 1, "s_size": 3}

    def test_minimum_degree_one_never_holds_beyond_tiny_sizes(self):
        # k = 1 allows no low-degree vertices, but a degree-1 vertex is
        # itself low for every n > 2, so the bound can never be met
        for g in (
            Graph(3, frozenset({(1, 2), (2, 3)})),
            Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (2, 4)})),
        ):
            report = faudree(g)
            assert report.parameters["k"] == 1
            assert not report.hypothesis_holds


class TestZhu:
    def test_complete_three_holds(self):
        assert zhu_digraph(K3).hypothesis_holds

    def test_plain_cycle_fails(self):
        report = zhu_digraph(C3)
        assert not report.hypothesis_holds
        assert report.parameters == {"n": 3, "k": 2, "s_size": 3}

    def test_single_low_degree_vertex_with_k_two_holds(self):
        # vertex 1 tied to vertex 2 only; 2,3,4 complete among themselves
        arcs = [(1, 2), (2, 1)] + [
            (u, v) for u in (2, 3, 4) for v in (2, 3, 4) if u != v
        ]
        d = build_digraph(4, arcs)
        report = zhu_digraph(d)
        assert report.hypothesis_holds
        assert report.parameters == {"n": 4, "k": 2, "s_size": 1}


class TestMoonMoserK:
    def test_complete_holds(self):
        assert moon_moser_k(complete_bipartite(3), 2).hypothesis_holds

    def test_one_regular_fails(self):
        report = moon_moser_k(Z_C3, 2)
        assert not report.hypothesis_holds
        assert report.parameters["s_size"] == 6

    def test_two_low_degree_vertices_still_hold(self):
        # complete on x1,x2 / y1,y2 plus a pendant pair: exactly x3 and y3
        # have degree 1, and 2 < 3
        g = BipartiteGraph(3, frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}))
        report = moon_moser_k(g, 2)
        assert report.parameters["s_size"] == 2
        assert report.hypothesis_holds

    def test_rejects_k_outside_range(self):
        with pytest.raises(GraphError):
            moon_moser_k(complete_bipartite(3), 1)
        with pytest.raises(GraphError):
            moon_moser_k(complete_bipartite(3), 3)


class TestMoonMoserHalf:
    def test_complete_holds(self):
        assert moon_moser_half(complete_bipartite(3)).hypothesis_holds

    def test_one_regular_fails(self):
        assert not moon_moser_half(Z_C3).hypothesis_holds

    def test_four_cycle_holds(self):
        g = BipartiteGraph(2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
        assert moon_moser_half(g).hypothesis_holds

    def test_part_size_one_is_too_small(self):
        report = moon_moser_half(BipartiteGraph(1, frozenset({(1, 1)})))
        assert not report.hypothesis_holds and report.note == "n too small"


class TestDisjointHcDegree:
    def test_complete_four_holds(self):
        assert disjoint_hc_degree(K4).hypothesis_holds

    def test_plain_cycle_fails(self):
        assert not disjoint_hc_degree(C3).hypothesis_holds

    def test_complete_three_holds(self):
        assert disjoint_hc_degree(K3).hypothesis_holds


class TestLasVergnas:
    def test_complete_holds_vacuously(self):
        assert las_vergnas(complete_bipartite(3)).hypothesis_holds

    def test_one_regular_fails(self):
        report = las_vergnas(Z_C3)
        assert not report.hypothesis_holds
        assert {"pair": ["x1", "y1"], "degree_sum": 2} in report.violating_items

    def test_one_missing_edge_fails_the_sum(self):
        g = BipartiteGraph(
            3, frozenset(complete_bipartite(3).edges - {(1, 1)})
        )
        report = las_vergnas(g)
        assert not report.hypothesis_holds
        assert {"pair": ["x1", "y1"], "degree_sum": 4} in report.violating_items

    def test_part_size_one_is_too_small(self):
        report = las_vergnas(BipartiteGraph(1, frozenset({(1, 1)})))
        assert not report.hypothesis_holds and report.note == "n too small"


class TestWoodall:
    def test_complete_three_holds_vacuously(self):
        assert woodall(K3).hypothesis_holds

    def test_plain_cycle_fails_with_pair(self):
        report = woodall(C3)
        assert not report.hypothesis_holds
        assert {"pair": [2, 1], "degree_sum": 2} in report.violating_items

    def test_complete_four_minus_one_arc_holds(self):
        d = Digraph(4, K4.arcs - {(1, 2)})
        report = woodall(d)
        assert report.hypothesis_holds  # 2 + 2 >= 4


class TestWoodallPlus2:
    def test_complete_four_holds_vacuously(self):
        assert woodall_plus2(K4).hypothesis_holds

    def test_complete_four_minus_arc_fails(self):
        d = Digraph(4, K4.arcs - {(1, 2)})
        report = woodall_plus2(d)
        assert not report.hypothesis_holds
        assert {"pair": [1, 2], "degree_sum": 4} in report.violating_items

    def test_complete_six_minus_arc_holds(self):
        k6 = complete_digraph(6)
        d = Digraph(6, k6.arcs - {(1, 2)})
        assert woodall_plus2(d).hypothesis_holds  # 4 + 4 >= 8


class TestOreBipartite:
    def test_complete_two_holds_vacuously(self):
        assert ore_bipartite(complete_bipartite(2), 2).hypothesis_holds

    def test_one_regular_fails_at_n(self):
        assert not ore_bipartite(Z_C3, 3).hypothesis_holds

    def test_four_cycle_holds_at_n(self):
        g = BipartiteGraph(2, frozenset({(1, 1), (2, 2)}))
        report = ore_bipartite(g, 2)
        assert report.hypothesis_holds  # non-edges sum to 2 >= 2
        assert report.condition_id == "cor3-ore-pm"

    def test_threshold_selects_id(self):
        g = complete_bipartite(2)
        assert ore_bipartite(g, 4).condition_id == "cor3-ore-2pm"
        with pytest.raises(GraphError):
            ore_bipartite(g, 3)

    @pytest.mark.parametrize(
        "n, threshold", [(3, 3.0), (3, 5.0), (1, True)], ids=["n-float", "n+2-float", "bool"]
    )
    def test_threshold_must_be_an_int(self, n, threshold):
        # equal to n or n + 2, but not an int: refused like moon_moser_k's k
        message = f"threshold must be n or n+2, got {threshold!r} with n={n}"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            ore_bipartite(complete_bipartite(n), threshold)


# ---------------------------------------------------------------------------
# Shared predicate properties


def _relabeled_digraph(d, perm):
    return Digraph(d.n, frozenset((perm[u], perm[v]) for u, v in d.arcs))


def _relabeled_graph(g, perm):
    return Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def _relabeled_bipartite(g, perm_x, perm_y):
    return BipartiteGraph(g.n, frozenset((perm_x[i], perm_y[j]) for i, j in g.edges))


@given(digraphs(max_n=6), st.randoms(use_true_random=False))
def test_digraph_conditions_are_isomorphism_invariant(d, rng):
    order = list(range(1, d.n + 1))
    rng.shuffle(order)
    perm = dict(zip(range(1, d.n + 1), order))
    relabeled = _relabeled_digraph(d, perm)
    for predicate in (ghouila_houri, zhu_digraph, woodall, woodall_plus2, disjoint_hc_degree):
        assert predicate(d).hypothesis_holds == predicate(relabeled).hypothesis_holds


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_graph_conditions_are_isomorphism_invariant(g, rng):
    order = list(range(1, g.n + 1))
    rng.shuffle(order)
    perm = dict(zip(range(1, g.n + 1), order))
    relabeled = _relabeled_graph(g, perm)
    for predicate in (dirac, faudree):
        assert predicate(g).hypothesis_holds == predicate(relabeled).hypothesis_holds


@given(bipartite_graphs(max_n=6), st.randoms(use_true_random=False))
def test_bipartite_conditions_are_isomorphism_invariant(g, rng):
    xs = list(range(1, g.n + 1))
    ys = list(range(1, g.n + 1))
    rng.shuffle(xs)
    rng.shuffle(ys)
    perm_x = dict(zip(range(1, g.n + 1), xs))
    perm_y = dict(zip(range(1, g.n + 1), ys))
    relabeled = _relabeled_bipartite(g, perm_x, perm_y)
    predicates = [
        moon_moser_half,
        las_vergnas,
        lambda h: ore_bipartite(h, h.n),
        lambda h: ore_bipartite(h, h.n + 2),
    ]
    if g.n >= 3:
        predicates.append(lambda h: moon_moser_k(h, 2))
    for predicate in predicates:
        assert predicate(g).hypothesis_holds == predicate(relabeled).hypothesis_holds


@given(digraphs(max_n=6), st.randoms(use_true_random=False))
def test_digraph_conditions_are_monotone_under_arc_addition(d, rng):
    from zham.verifier import arc_universe

    missing = [a for a in arc_universe(d.n) if a not in d.arcs]
    extra = rng.sample(missing, rng.randint(0, len(missing)))
    bigger = Digraph(d.n, d.arcs | set(extra))
    for predicate in (ghouila_houri, zhu_digraph, woodall, woodall_plus2, disjoint_hc_degree):
        if predicate(d).hypothesis_holds:
            assert predicate(bigger).hypothesis_holds


@given(bipartite_graphs(max_n=6), st.randoms(use_true_random=False))
def test_bipartite_conditions_are_monotone_under_edge_addition(g, rng):
    from zham.verifier import bipartite_edge_universe

    missing = [e for e in bipartite_edge_universe(g.n) if e not in g.edges]
    extra = rng.sample(missing, rng.randint(0, len(missing)))
    bigger = BipartiteGraph(g.n, g.edges | set(extra))
    predicates = [moon_moser_half, las_vergnas, lambda h: ore_bipartite(h, h.n)]
    for predicate in predicates:
        if predicate(g).hypothesis_holds:
            assert predicate(bigger).hypothesis_holds


# ---------------------------------------------------------------------------
# Lazy predicates against the eager reference bodies


# the eager reference of each registry entry, keyed by condition id
_REFERENCES = {
    "dirac": brute.dirac_reference,
    "ghouila-houri": brute.ghouila_houri_reference,
    "faudree": brute.faudree_reference,
    "zhu": brute.zhu_reference,
    "moon-moser-k": brute.moon_moser_k_reference,
    "moon-moser-half": brute.moon_moser_half_reference,
    "cor1-disjoint-hc": brute.disjoint_hc_degree_reference,
    "las-vergnas": brute.las_vergnas_reference,
    "woodall": brute.woodall_reference,
    "cor2-woodall-plus2": brute.woodall_plus2_reference,
    "cor3-ore-pm": lambda g: brute.ore_bipartite_reference(g, g.n),
    "cor3-ore-2pm": lambda g: brute.ore_bipartite_reference(g, g.n + 2),
}
_KINDS = {Digraph: "digraph", BipartiteGraph: "bipartite", Graph: "graph"}


def _condition_pairs(instance):
    """(condition id, report, reference report) for every registry entry
    whose kind is ``instance``'s, moon-moser-k once per admissible k."""
    pairs = []
    for cid, (kind, predicate) in build_registry().items():
        if kind != _KINDS[type(instance)]:
            continue
        reference = _REFERENCES[cid]
        if cid == "moon-moser-k":
            pairs += [
                (cid, predicate(instance, k), reference(instance, k))
                for k in range(2, instance.n)
            ]
        else:
            pairs.append((cid, predicate(instance), reference(instance)))
    return pairs


def _assert_matches_reference(instance):
    seen = set()
    for cid, report, expected in _condition_pairs(instance):
        seen.add(cid)
        assert report.condition_id == cid
        # decided before listing: compare the decision, then every listed view
        assert report.hypothesis_holds == expected.hypothesis_holds
        assert report == expected
        assert report.to_dict() == expected.to_dict()
        assert repr(report) == repr(expected)
        assert report.violating_items == expected.violating_items
    return seen


def _exhaustive_instances():
    for n in range(1, 4):
        yield from enumerate_digraphs(n)
        yield from enumerate_bipartite(n)
    for n in range(1, 6):
        yield from enumerate_graphs(n)


def test_every_condition_matches_the_eager_reference_exhaustively():
    seen = set()
    for instance in _exhaustive_instances():
        seen |= _assert_matches_reference(instance)
    assert seen == set(CONDITION_IDS)


def test_the_registry_lists_each_condition_once_with_its_kind():
    registry = build_registry()
    assert tuple(registry) == CONDITION_IDS
    assert registry.keys() == _REFERENCES.keys()
    assert {kind for kind, _ in registry.values()} == set(_KINDS.values())


def test_a_rebuilt_registry_and_claim_set_see_a_rebound_predicate(monkeypatch):
    calls = []
    original = conditions.dirac

    def fake(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(conditions, "dirac", fake)
    assert build_registry()["dirac"] == ("graph", fake)
    claim = verifier.build_claims()["dirac"]
    g = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    assert verifier.check_claim(claim, g)[0] == verifier.PASS
    assert calls == [g]


@given(digraphs(max_n=6))
def test_digraph_conditions_match_the_eager_reference(d):
    _assert_matches_reference(d)


@given(bipartite_graphs(max_n=6))
def test_bipartite_conditions_match_the_eager_reference(g):
    _assert_matches_reference(g)


@given(graphs(max_n=6))
def test_graph_conditions_match_the_eager_reference(g):
    _assert_matches_reference(g)


class TestLazyReport:
    def test_repr_is_the_dataclass_form(self):
        # the exact text reports printed when they were frozen dataclasses
        g = Graph(3, frozenset({(1, 2)}))
        assert repr(dirac(g)) == (
            "ConditionReport(condition_id='dirac', hypothesis_holds=False, "
            "violating_items=({'vertex': 1, 'degree': 1}, {'vertex': 2, 'degree': 1}, "
            "{'vertex': 3, 'degree': 0}), parameters={'n': 3}, note='')"
        )
        b = BipartiteGraph(2, frozenset({(1, 1)}))
        assert repr(las_vergnas(b)) == (
            "ConditionReport(condition_id='las-vergnas', hypothesis_holds=False, "
            "violating_items=({'pair': ['x1', 'y2'], 'degree_sum': 1}, "
            "{'pair': ['x2', 'y1'], 'degree_sum': 1}, {'pair': ['x2', 'y2'], "
            "'degree_sum': 0}), parameters={'n': 2}, note='')"
        )

    def test_deciding_lists_only_the_first_violator(self):
        pulled = []

        def violators():
            for item in ({"vertex": 1}, {"vertex": 2}, {"vertex": 3}):
                pulled.append(item["vertex"])
                yield item

        report = ConditionReport._decide("dirac", violators, {"n": 3})
        assert not report.hypothesis_holds
        assert pulled == [1]
        assert report.violating_items == ({"vertex": 1}, {"vertex": 2}, {"vertex": 3})
        assert pulled == [1, 1, 2, 3]  # listed from scratch, once
        assert report.violating_items is report.violating_items

    def test_a_holding_report_lists_nothing(self):
        report = ConditionReport._decide("dirac", lambda: iter(()), {"n": 3})
        assert report.hypothesis_holds
        assert report.violating_items == ()
        assert report == ConditionReport("dirac", True, (), {"n": 3})

    def test_reports_compare_by_value_and_are_unhashable(self):
        report = woodall(C3)
        assert report == woodall(build_digraph(3, [(1, 2), (2, 3), (3, 1)]))
        assert report != woodall(K3)
        assert report != report.to_dict()
        with pytest.raises(TypeError):
            hash(report)

    def test_reports_are_read_only(self):
        report = woodall(C3)
        for name in ("condition_id", "hypothesis_holds", "violating_items", "parameters", "note"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)
        with pytest.raises(AttributeError):
            report.extra = 1

    def test_pickle_round_trip_lists_the_violators(self):
        report = las_vergnas(Z_C3)
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report
        assert copy.violating_items == report.violating_items

    def test_degree_table_is_built_once_per_instance(self):
        g = BipartiteGraph(3, frozenset({(1, 1), (2, 2), (3, 3), (1, 2)}))
        moon_moser_half(g)
        table = g._memo["degrees"]
        las_vergnas(g)
        moon_moser_k(g, 2)
        ore_bipartite(g, 5)
        assert g._memo["degrees"] is table
        assert table == (("x1", "x2", "x3", "y1", "y2", "y3"), (2, 1, 1, 1, 2, 1))

    def test_concurrent_first_reads_list_equal_tuples(self):
        d = Digraph(6)  # 30 woodall pair deficits plus NOT_STRONG
        expected = brute.woodall_reference(d).violating_items
        reports = [woodall(Digraph(6)) for _ in range(40)]
        results = []
        lock = threading.Lock()

        def read_all():
            got = [r.violating_items for r in reports]
            with lock:
                results.append(got)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(items == expected for got in results for items in got)
