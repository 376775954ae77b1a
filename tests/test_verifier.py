import dataclasses
import datetime
import itertools
import json
import random
import re
import types
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from brute import bipartite_graphs, digraphs, graphs
from zham import (
    CLAIMS,
    ESTABLISHED_CLAIM_IDS,
    Counterexample,
    CounterexampleStore,
    KINDS,
    Digraph,
    GraphError,
    StoreError,
    build_digraph,
    build_report,
    check_claim,
    enumerate_bipartite,
    enumerate_digraphs,
    enumerate_graphs,
    report_json,
    reverify_record,
    run_suite,
    verifier,
    zmap,
)
from zham.verifier import (
    BUDGET_EXHAUSTED,
    COUNTEREXAMPLE,
    HYPOTHESIS_MISS,
    PASS,
    Claim,
    _instance_degrees,
    arc_universe,
    dumps_indented,
    indented_chunks,
    random_instance,
    render_table,
    requested_claims,
)
from zham._version import __version__
from zham.core import MASK_N, format_bipartite_vertex

C3 = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
ROOT = Path(__file__).resolve().parent.parent


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 64), (4, 4096)])
    def test_digraph_counts(self, n, count):
        assert sum(1 for _ in enumerate_digraphs(n)) == count

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 16), (3, 512)])
    def test_bipartite_counts(self, n, count):
        assert sum(1 for _ in enumerate_bipartite(n)) == count

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_graph_counts(self, n, count):
        assert sum(1 for _ in enumerate_graphs(n)) == count

    def test_every_digraph_appears_exactly_once(self):
        seen = set(enumerate_digraphs(3))
        assert len(seen) == 64

    def test_bitmask_order_is_lexicographic_arc_indexing(self):
        universe = arc_universe(3)
        assert universe == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        third = list(enumerate_digraphs(3))[0b101]
        assert third.arcs == frozenset({(1, 2), (2, 1)})

    def test_rejects_above_cap(self):
        with pytest.raises(GraphError):
            next(enumerate_digraphs(6))
        with pytest.raises(GraphError):
            next(enumerate_graphs(8))

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphError):
            next(enumerate_digraphs(0))

    def test_each_kind_decodes_through_its_table_entry(self):
        # the decoders are bound from one body, one per core.KINDS type
        for kind, cls in KINDS.items():
            universe, from_mask = verifier._KIND_UNIVERSE[kind]
            assert universe is cls.universe
            assert from_mask is getattr(verifier, f"{kind}_from_mask")
            full = from_mask(3, (1 << len(universe(3))) - 1)
            assert type(full) is cls and len(full.arcs if cls is Digraph else full.edges) == len(
                universe(3)
            )

    def test_random_instance_draws_one_mask_of_the_universe_width(self):
        rng = random.Random(8)
        drawn = [random_instance("graph", 4, rng) for _ in range(5)]
        rng = random.Random(8)
        masks = [rng.getrandbits(6) for _ in range(5)]
        assert drawn == [verifier.graph_from_mask(4, m) for m in masks]
        assert random_instance("graph", 1, random.Random(8)) == verifier.graph_from_mask(1, 0)


# the claims whose hypothesis or conclusion calls each solver that
# zham.verifier imports
SOLVER_USERS = {
    "strongly_connected": {"thm-zg"},
    "find_hamiltonian_cycle": {"thm-zg", "thm-gz", "ghouila", "zhu", "woodall"},
    "find_hamiltonian_cycle_bipartite": {"thm-zg", "thm-zg-pullback", "mm-k", "mm-half"},
    "find_hamiltonian_cycle_undirected": {"dirac", "faudree"},
    "find_two_disjoint_hamiltonian_cycles": {"cor1", "cor2"},
    "find_two_disjoint_perfect_matchings": {"cor3b"},
    "max_matching": {"thm-gz", "cor3a"},
    "enumerate_perfect_matchings": {"lv"},
    "extends_to_hamiltonian": {"lv"},
}


class TestCheckClaim:
    def test_thm_gz_passes_on_triangle(self):
        outcome, details = check_claim(CLAIMS["thm-gz"], C3)
        assert outcome == PASS
        assert details["hypothesis"]["cycle"] == [1, 2, 3]

    def test_ghouila_misses_on_triangle(self):
        outcome, details = check_claim(CLAIMS["ghouila"], C3)
        assert outcome == HYPOTHESIS_MISS
        assert details == {}

    def test_budget_exhaustion_is_an_outcome(self):
        k5 = build_digraph(
            5, [(u, v) for u in range(1, 6) for v in range(1, 6) if u != v]
        )
        outcome, details = check_claim(CLAIMS["thm-zg"], k5, budget=3)
        assert outcome == BUDGET_EXHAUSTED
        assert details["stage"] == "hypothesis"

    def test_budget_exhaustion_at_the_conclusion_keeps_the_hypothesis(self):
        # ghouila's hypothesis is a degree test that spends no search nodes
        # and holds on the complete digraph; its conclusion's search needs
        # more than 3
        k4 = build_digraph(4, [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v])
        outcome, details = check_claim(CLAIMS["ghouila"], k4, budget=3)
        assert outcome == BUDGET_EXHAUSTED
        holds, hypothesis = CLAIMS["ghouila"].hypothesis(k4, None)
        assert holds
        assert details == {"stage": "conclusion", "hypothesis": hypothesis}

    def test_zhu_counterexample_reproduces(self):
        # one low-degree vertex hanging off a complete core: hypothesis holds
        # but no Hamiltonian cycle can pass through vertex 1 twice
        arcs = [(1, 2), (2, 1)] + [
            (u, v) for u in (2, 3, 4) for v in (2, 3, 4) if u != v
        ]
        d = build_digraph(4, arcs)
        outcome, details = check_claim(CLAIMS["zhu"], d)
        assert outcome == COUNTEREXAMPLE
        assert details["conclusion"]["hamiltonian"] is False

    @pytest.mark.parametrize("name, users", SOLVER_USERS.items(), ids=list(SOLVER_USERS))
    def test_a_rebuilt_claim_set_sees_a_rebound_solver(self, monkeypatch, name, users):
        # the benchmark tracer rebinds each solver in zham.verifier and then
        # rebuilds CLAIMS; on the complete instance of each kind at n = 4
        # every hypothesis holds, so every solver a claim uses is reached
        complete = {kind: cls(4, frozenset(cls.universe(4))) for kind, cls in KINDS.items()}
        original, callers = getattr(verifier, name), []
        claim_id = None

        def stand_in(*args):
            callers.append(claim_id)
            return original(*args)

        monkeypatch.setattr(verifier, name, stand_in)
        for claim_id, claim in verifier.build_claims().items():
            outcome, _ = check_claim(claim, complete[claim.instance_kind])
            assert outcome == PASS, claim_id
        assert set(callers) == users


def _reference_hypothesis(claim, instance):
    """(holds, details) of ``claim``'s hypothesis, the degree conditions
    decided and explained by the eager reference predicates; a holding
    hypothesis carries the details every hit has always carried."""
    cid = claim.claim_id
    n = instance.n
    if cid == "mm-k":
        holding = [k for k in range(2, n) if brute.moon_moser_k_reference(instance, k).hypothesis_holds]
        return bool(holding), {"holding_k": holding, "n": n}
    reference = {
        "dirac": brute.dirac_reference,
        "ghouila": brute.ghouila_houri_reference,
        "faudree": brute.faudree_reference,
        "zhu": brute.zhu_reference,
        "mm-half": brute.moon_moser_half_reference,
        "cor1": brute.disjoint_hc_degree_reference,
        "lv": brute.las_vergnas_reference,
        "woodall": brute.woodall_reference,
        "cor2": brute.woodall_plus2_reference,
        "cor3a": lambda g: brute.ore_bipartite_reference(g, n),
        "cor3b": lambda g: brute.ore_bipartite_reference(g, n + 2),
    }.get(cid)
    if reference is not None:
        report = reference(instance)
        return report.hypothesis_holds, report.to_dict()
    # thm-zg, thm-gz, thm-zg-pullback: decided by brute force, explained by
    # their own unchanged hypothesis functions
    image_ham = brute.brute_ham_bipartite(zmap(instance))
    holds = {
        "thm-zg": brute.strongly_connected_reference(instance) and image_ham,
        "thm-gz": brute.brute_ham_digraph(instance),
        "thm-zg-pullback": image_ham,
    }[cid]
    if not holds:
        return False, None
    reported_holds, details = claim.hypothesis(instance, None)
    assert reported_holds
    return True, details


def _assert_check_matches_reference(instance):
    for claim in CLAIMS.values():
        if claim.instance_kind != _KIND_OF[type(instance).__name__]:
            continue
        outcome, details = check_claim(claim, instance)
        holds, hyp_details = _reference_hypothesis(claim, instance)
        if not holds:
            assert (outcome, details) == (HYPOTHESIS_MISS, {}), claim.claim_id
            continue
        concluded, concl_details = claim.conclusion(instance, None)
        assert outcome == (PASS if concluded else COUNTEREXAMPLE), claim.claim_id
        assert details == {"hypothesis": hyp_details, "conclusion": concl_details}


_KIND_OF = {"Digraph": "digraph", "BipartiteGraph": "bipartite", "Graph": "graph"}


class TestCheckClaimMatchesReference:
    def test_every_small_instance(self):
        for n in range(1, 4):
            for instance in enumerate_digraphs(n):
                _assert_check_matches_reference(instance)
            for instance in enumerate_bipartite(n):
                _assert_check_matches_reference(instance)
        for n in range(1, 6):
            for instance in enumerate_graphs(n):
                _assert_check_matches_reference(instance)

    @given(digraphs(max_n=5))
    def test_random_digraphs(self, d):
        _assert_check_matches_reference(d)

    @given(bipartite_graphs(max_n=4))
    def test_random_bipartite_graphs(self, g):
        _assert_check_matches_reference(g)

    @given(graphs(max_n=6))
    def test_random_graphs(self, g):
        _assert_check_matches_reference(g)


class TestRunSuite:
    def test_conservation_and_scan_counts(self):
        verdicts = run_suite(["thm-gz", "ghouila"], range(1, 4))
        for v in verdicts:
            assert v.instances_scanned == 1 + 4 + 64
            assert v.hypothesis_hits == v.passes + len(v.counterexamples) + v.exhausted_budget

    def test_established_claims_are_clean_at_small_scale(self):
        verdicts = run_suite(
            ["thm-gz", "ghouila", "woodall"], range(1, 4)
        )
        assert all(not v.counterexamples for v in verdicts)

    def test_exhaustive_runs_are_reproducible(self):
        kwargs = dict(n_values=range(1, 4), mode="exhaustive")
        first = run_suite(["mm-k"], **kwargs)
        second = run_suite(["mm-k"], **kwargs)
        r1 = report_json(build_report(first, mode="exhaustive", n_values=range(1, 4)))
        r2 = report_json(build_report(second, mode="exhaustive", n_values=range(1, 4)))
        assert r1 == r2

    def test_random_mode_is_seed_deterministic(self):
        kwargs = dict(
            n_values=[4], mode="random", samples=200, seed=99
        )
        first = run_suite(["thm-zg", "mm-half"], **kwargs)
        second = run_suite(["thm-zg", "mm-half"], **kwargs)
        assert first == second

    def test_random_mode_draws_each_mask_as_it_is_checked(self, monkeypatch):
        events = []

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                events.append("draw")
                return super().getrandbits(k)

        def counting_check(claim, instance, budget=None):
            events.append("check")
            return check_claim(claim, instance, budget)

        monkeypatch.setattr(verifier, "random", types.SimpleNamespace(Random=CountingRandom))
        monkeypatch.setattr(verifier, "check_claim", counting_check)
        lazy = run_suite(["thm-zg", "zhu"], [3], mode="random", samples=5, seed=3)
        assert events == ["draw", "check", "check"] * 5
        monkeypatch.undo()
        assert lazy == run_suite(["thm-zg", "zhu"], [3], mode="random", samples=5, seed=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_values=range(1, 4), mode="exhaustive"),
            dict(n_values=[5], mode="random", samples=200, seed=7),
        ],
        ids=["exhaustive-n3", "random-n5"],
    )
    def test_claims_sharing_an_instance_report_as_if_alone(self, kwargs):
        # every digraph claim asks the same instance object; its memo must
        # not change any verdict, witness or node count
        digraph_claims = [c for c, claim in CLAIMS.items() if claim.instance_kind == "digraph"]
        assert len(digraph_claims) == 8
        together = run_suite(digraph_claims, **kwargs)
        alone = [v for c in digraph_claims for v in run_suite([c], **kwargs)]
        assert together == alone
        assert report_json(build_report(together, **kwargs)) == report_json(
            build_report(alone, **kwargs)
        )

    def test_unknown_claim_is_rejected(self):
        with pytest.raises(GraphError):
            run_suite(["no-such-claim"], [2])

    def test_every_unknown_claim_id_is_named(self):
        known = ", ".join(CLAIMS)
        message = f"^unknown claim id\\(s\\) foo, bar; known: {re.escape(known)}$"
        with pytest.raises(GraphError, match=message):
            run_suite(["foo", "thm-zg", "bar"], [1])

    @pytest.mark.parametrize("samples", [0, -3, "10", 2.5, True], ids=repr)
    def test_a_bad_random_sample_count_is_refused_before_any_work(self, monkeypatch, samples):
        monkeypatch.setattr(verifier, "check_claim", lambda *args: pytest.fail("swept"))
        message = f"^samples must be a positive integer in random mode, got {re.escape(repr(samples))}$"
        with pytest.raises(GraphError, match=message):
            run_suite(["thm-zg"], [5], mode="random", samples=samples, seed=1)

    def test_exhaustive_mode_reads_no_sample_count(self):
        [verdict] = run_suite(["thm-gz"], [2], samples=0)
        assert verdict.instances_scanned == 4

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_an_empty_size_list_is_refused_before_any_work(self, monkeypatch, mode):
        monkeypatch.setattr(verifier, "check_claim", lambda *args: pytest.fail("swept"))
        with pytest.raises(GraphError, match="^n_values names no instance size$"):
            run_suite(["thm-zg"], [], mode=mode, samples=1, seed=1)

    @pytest.mark.parametrize(
        "claim_ids, n_values, message",
        [
            ("thm-gz", [1], "claim_ids must be an iterable other than str, got 'thm-gz'"),
            (7, [1], "claim_ids must be an iterable other than str, got 7"),
            (["x", ["y"]], [1], f"unknown claim id(s) x, ['y']; known: {', '.join(CLAIMS)}"),
            ([], [1], f"claim_ids names no claim id; known: {', '.join(CLAIMS)}"),
            (["thm-gz"], 5, "n_values must be an iterable other than str, got 5"),
            (["thm-gz"], None, "n_values must be an iterable other than str, got None"),
            (["thm-gz"], "12", "n_values must be an iterable other than str, got '12'"),
        ],
        ids=repr,
    )
    def test_a_malformed_request_is_refused_before_any_work(
        self, monkeypatch, claim_ids, n_values, message
    ):
        monkeypatch.setattr(verifier, "check_claim", lambda *args: pytest.fail("swept"))
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            run_suite(claim_ids, n_values)

    @pytest.mark.parametrize("budget", ["10", -1, 2.5, True])
    def test_a_bad_budget_is_refused_before_any_work(self, monkeypatch, budget):
        # each ran once, and "10" raised a bare TypeError mid-search; the
        # others reported every hit as budget-exhausted
        monkeypatch.setattr(verifier, "check_claim", lambda *args: pytest.fail("swept"))
        message = f"budget must be None or a non-negative integer, got {budget!r}"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            run_suite(["thm-gz"], [3], budget=budget)

    def test_an_ascending_range_is_read_by_its_bounds(self, monkeypatch):
        # a size range is never listed, so the cap refuses an over-long one
        # at its first size over the cap, in constant time and memory
        huge = range(1, 10**18)
        assert requested_claims(["thm-gz"], huge, "exhaustive", 1, None)[1] is huge
        with monkeypatch.context() as m:
            m.setattr(verifier, "check_claim", lambda *args: pytest.fail("swept"))
            with pytest.raises(GraphError, match="^digraph enumeration capped at n=5, got n=6$"):
                run_suite(["thm-gz"], huge)
            with pytest.raises(GraphError, match="^instance size must be a positive integer, got 0$"):
                run_suite(["thm-gz"], range(0, 10**18))
        # a descending range is listed, and swept ascending
        [verdict] = run_suite(["thm-gz"], range(2, 0, -1))
        assert verdict.instances_scanned == 1 + 4

    def test_a_sweep_out_of_budget_reads_incomplete(self):
        [verdict] = run_suite(["ghouila"], [4], budget=1)
        assert verdict.exhausted_budget == verdict.hypothesis_hits > 0
        assert not verdict.counterexamples and verdict.passes == 0
        row = render_table([verdict]).splitlines()[1]
        assert row.endswith("  incomplete (budget)")

    def test_a_repeated_claim_id_is_swept_once(self, tmp_path):
        verdicts = run_suite(["dirac", "thm-gz", "dirac"], range(1, 5))
        assert [(v.claim_id, v.instances_scanned) for v in verdicts] == [
            ("dirac", 1 + 2 + 8 + 64),
            ("thm-gz", 1 + 4 + 64 + 4096),
        ]
        once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
        assert run_suite(["mm-k"], [3], store_path=once) == run_suite(
            ["mm-k", "mm-k"], [3], store_path=twice
        )
        assert twice.read_text() == once.read_text()

    def test_bad_mode_is_rejected(self):
        with pytest.raises(GraphError):
            run_suite(["thm-gz"], [2], mode="guess")

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("n", [2.5, 0, True, "3"])
    def test_a_bad_size_is_refused_before_any_work(self, monkeypatch, mode, n):
        monkeypatch.setattr(verifier, "check_claim", lambda *args: pytest.fail("swept"))
        message = f"^instance size must be a positive integer, got {re.escape(repr(n))}$"
        with pytest.raises(GraphError, match=message):
            run_suite(["thm-gz"], [2, n], mode=mode, samples=1, seed=1)

    def test_a_random_size_above_mask_n_is_refused_before_any_work(self, monkeypatch):
        # each draw would read a universe list of n(n - 1)/2 pairs
        monkeypatch.setattr(verifier, "check_claim", lambda *args: pytest.fail("swept"))
        message = f"^graph enumeration capped at n={MASK_N}, got n={MASK_N + 1}$"
        with pytest.raises(GraphError, match=message):
            run_suite(["dirac"], [MASK_N + 1], mode="random", samples=1)

    def test_the_cap_binds_in_exhaustive_mode_only(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(verifier, "check_claim", lambda *args: pytest.fail("swept"))
            with pytest.raises(GraphError, match="^digraph enumeration capped at n=5, got n=6$"):
                run_suite(["thm-gz"], [2, 6])
        [verdict] = run_suite(["thm-gz"], [6], mode="random", samples=3, seed=1)
        assert verdict.instances_scanned == 3

    @pytest.mark.parametrize(
        "enumerate_kind", [enumerate_digraphs, enumerate_bipartite, enumerate_graphs]
    )
    def test_counterexample_degrees_match_the_per_vertex_form(self, enumerate_kind):
        for n in (1, 2, 3):
            for instance in enumerate_kind(n):
                if isinstance(instance, Digraph):
                    expected = {
                        str(v): [instance.out_degree(v), instance.in_degree(v), instance.degree(v)]
                        for v in instance.vertices()
                    }
                else:
                    expected = {}
                    for v in instance.vertices():
                        label = format_bipartite_vertex(v) if isinstance(v, tuple) else str(v)
                        expected[label] = instance.degree(v)
                assert _instance_degrees(instance) == expected, instance

    def test_counterexamples_stay_sorted(self):
        verdicts = run_suite(["mm-k"], [3])
        ces = verdicts[0].counterexamples
        assert list(ces) == sorted(ces, key=lambda ce: (ce.n, ce.instance))
        assert ces, "the pooled low-degree count claim is false at n=3"


def _store_lines(verdicts, rng_seed=None):
    """``json.dumps(record, sort_keys=True)`` of each store record of
    ``verdicts``, in store order."""
    return [
        json.dumps(
            {
                "claim_id": ce.claim_id,
                "n": ce.n,
                "instance": ce.instance,
                "details": ce.details,
                "tool_version": __version__,
                "rng_seed": rng_seed,
            },
            sort_keys=True,
        )
        for v in sorted(verdicts, key=lambda v: v.claim_id)
        for ce in v.counterexamples
    ]


class TestSharedDetails:
    """A sweep holds one object per distinct counterexample detail: details,
    and their hypothesis, conclusion and degrees parts, that encode equal are
    the same object, and they encode as fresh ones would."""

    PARTS = {
        "details": lambda d: d,
        "hypothesis": lambda d: d["hypothesis"],
        "conclusion": lambda d: d["conclusion"],
        "degrees": lambda d: d["degrees"],
    }

    def test_equal_details_are_one_object(self, tmp_path):
        store = tmp_path / "ce.jsonl"
        verdicts = run_suite(["mm-k", "zhu"], [3], store_path=store)
        ces = [ce for v in verdicts for ce in v.counterexamples]
        for name, part in self.PARTS.items():
            ids = {}
            for ce in ces:
                value = part(ce.details)
                ids.setdefault(json.dumps(value, sort_keys=True), set()).add(id(value))
            assert len(ids) < len(ces), name  # some counterexamples share it
            assert all(len(held) == 1 for held in ids.values()), name
        assert store.read_text(encoding="utf-8").splitlines() == _store_lines(verdicts)
        report = build_report(verdicts, mode="exhaustive", n_values=[3])
        assert report_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_a_detail_orjson_refuses_is_not_shared(self, monkeypatch, tmp_path):
        # an int past 64 bits has no orjson key: each counterexample keeps
        # its own, and the degrees are still shared
        def big(instance, budget):
            return False, {"big": 2**70}

        claim = Claim("big", "bipartite", False, "2**70", lambda g, budget: (True, {"n": g.n}), big)
        monkeypatch.setitem(verifier.CLAIMS, "big", claim)
        store = tmp_path / "ce.jsonl"
        verdicts = run_suite(["big"], [1, 2], store_path=store)
        ces = verdicts[0].counterexamples
        assert len(ces) == 2 + 16
        assert all(ce.details["conclusion"] == {"big": 2**70} for ce in ces)
        assert len({id(ce.details["conclusion"]) for ce in ces}) == len(ces)
        assert len({id(ce.details["hypothesis"]) for ce in ces}) == 2  # one per n
        assert len({id(ce.details["degrees"]) for ce in ces}) < len(ces)
        assert store.read_text(encoding="utf-8").splitlines() == _store_lines(verdicts)

    def test_a_counterexample_is_slotted_and_frozen(self):
        ce = Counterexample("mm-k", 3, "B 3\n", {})
        assert not hasattr(ce, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ce.details = {"hypothesis": None}


# a store line of the storeLine shape
_GOOD_LINE = {
    "claim_id": "mm-k", "n": 3, "instance": "B 3\n", "details": {},
    "tool_version": "0.1.0", "rng_seed": None,
}


class TestStore:
    def test_each_line_is_the_stdlib_encoding_of_its_record(self, tmp_path):
        shared = {"hypothesis": {"holding_k": [2]}, "conclusion": {"hamiltonian": False}}
        refused = {"conclusion": {"big": 2**70}, "note": "\u00e9\x7f"}  # orjson refuses 2**70
        ces = [
            Counterexample("mm-k", 3, "B 3\n1 1\n", shared),
            Counterexample("zhu", 4, "D 4\n1 2\n", refused),
            Counterexample("mm-k", 3, "B 3\n2 2\n", shared),
        ]
        # fresh details per record, each dropped by its maker once written:
        # a text kept per id must not be read for a later record at that id
        fresh = (Counterexample("cor1", 2, f"D 2\n{i}", {"i": [i]}) for i in range(1, 200))
        store = tmp_path / "ce.jsonl"
        CounterexampleStore(store).append(ces, rng_seed=7)
        CounterexampleStore(store).append(fresh)
        records = [(ce, 7) for ce in ces]
        records += [(Counterexample("cor1", 2, f"D 2\n{i}", {"i": [i]}), None) for i in range(1, 200)]
        expected = [
            json.dumps(
                {
                    "claim_id": ce.claim_id,
                    "n": ce.n,
                    "instance": ce.instance,
                    "details": ce.details,
                    "tool_version": __version__,
                    "rng_seed": seed,
                },
                sort_keys=True,
            )
            for ce, seed in records
        ]
        assert store.read_text(encoding="utf-8").splitlines() == expected

    def test_persist_load_reverify(self, tmp_path):
        store_path = tmp_path / "ce.jsonl"
        run_suite(["mm-k"], [3], store_path=store_path)
        records = CounterexampleStore(store_path).load()
        assert records
        line_keys = {
            "claim_id", "n", "instance", "details", "tool_version", "rng_seed"
        }
        for record in records:
            assert set(record) == line_keys
            assert reverify_record(record)

    def test_appends_rather_than_truncates(self, tmp_path):
        store_path = tmp_path / "ce.jsonl"
        run_suite(["mm-k"], [3], store_path=store_path)
        first_count = len(CounterexampleStore(store_path).load())
        run_suite(["mm-k"], [3], store_path=store_path)
        assert len(CounterexampleStore(store_path).load()) == 2 * first_count

    def test_missing_store_is_a_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            CounterexampleStore(tmp_path / "absent.jsonl").load()

    def test_unwritable_store_is_a_store_error(self, tmp_path):
        store = CounterexampleStore(tmp_path)  # a directory, not a file
        with pytest.raises(StoreError):
            store.append([Counterexample("mm-k", 3, "B 3\n", {})])

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=ascii)
    def test_a_raw_unicode_line_separator_in_a_string_loads(self, tmp_path, char):
        # JSON lines end at "\n" only; str.splitlines also splits on these
        records = [{**_GOOD_LINE, "details": {"note": f"a{char}b"}}, _GOOD_LINE]
        path = tmp_path / "ce.jsonl"
        path.write_text(
            "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records),
            encoding="utf-8",
        )
        assert char in path.read_text(encoding="utf-8")
        assert CounterexampleStore(path).load() == records

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e"], ids=ascii)
    def test_a_control_separator_is_refused_on_its_own_line(self, tmp_path, char):
        # the encoder escapes it; held raw in a string it is not JSON, and the
        # error names the line that holds it, not a part of that line
        escaped = {**_GOOD_LINE, "details": {"note": f"a{char}b"}}
        path = tmp_path / "ce.jsonl"
        path.write_text(json.dumps(escaped, ensure_ascii=False) + "\n", encoding="utf-8")
        assert CounterexampleStore(path).load() == [escaped]
        raw = json.dumps(_GOOD_LINE).replace('"B 3\\n"', f'"B 3{char}"')
        path.write_text(json.dumps(_GOOD_LINE) + "\n" + raw + "\n", encoding="utf-8")
        with pytest.raises(StoreError, match="bad store line 2: Invalid control character"):
            CounterexampleStore(path).load()

    def test_a_crlf_store_loads(self, tmp_path):
        records = [_GOOD_LINE, {**_GOOD_LINE, "n": 4}]
        path = tmp_path / "ce.jsonl"
        path.write_bytes(b"".join(json.dumps(r).encode() + b"\r\n" for r in records))
        assert CounterexampleStore(path).load() == records

    def test_non_utf8_store_is_a_store_error(self, tmp_path):
        path = tmp_path / "ce.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(StoreError, match="cannot read store"):
            CounterexampleStore(path).load()

    def test_corrupt_line_is_a_store_error(self, tmp_path):
        path = tmp_path / "ce.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(StoreError):
            CounterexampleStore(path).load()

    @pytest.mark.parametrize(
        "line,problem",
        [
            ("[1, 2]", "expected an object, got list"),
            ('{"claim_id": "mm-k"}', "missing keys"),
        ],
    )
    def test_line_of_the_wrong_shape_is_a_store_error(self, tmp_path, line, problem):
        path = tmp_path / "ce.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(StoreError, match=f"bad store line 1: {problem}"):
            CounterexampleStore(path).load()

    @pytest.mark.parametrize(
        "key,value,problem",
        [
            ("instance", 5, "instance has type int"),
            ("claim_id", None, "claim_id has type NoneType"),
            ("details", [], "details has type list"),
            ("tool_version", 1, "tool_version has type int"),
            ("rng_seed", "7", "rng_seed has type str"),
            ("rng_seed", True, "rng_seed has type bool"),
            ("n", True, "n has type bool"),
            ("n", 3.0, "n has type float"),
            ("n", 0, "n is 0, below 1"),
            ("extra", 1, r"missing keys \[\], unexpected keys \['extra'\]"),
        ],
    )
    def test_field_of_the_wrong_type_is_a_store_error(self, tmp_path, key, value, problem):
        path = tmp_path / "ce.jsonl"
        lines = [_GOOD_LINE, {**_GOOD_LINE, key: value}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(StoreError, match=f"bad store line 2: {problem}"):
            CounterexampleStore(path).load()

    def test_seeded_random_store_loads_and_reverifies(self, tmp_path):
        store_path = tmp_path / "ce.jsonl"
        run_suite(["mm-k"], [3], mode="random", samples=200, seed=7, store_path=store_path)
        records = CounterexampleStore(store_path).load()
        assert records
        assert all(r["rng_seed"] == 7 and reverify_record(r) for r in records)

    def test_lines_come_in_claim_id_then_instance_order(self, tmp_path):
        # requested zhu first, yet mm-k sorts first by claim id
        store_path = tmp_path / "ce.jsonl"
        run_suite(["zhu", "mm-k"], [3, 4], store_path=store_path)
        keys = [(r["claim_id"], r["n"], r["instance"]) for r in CounterexampleStore(store_path).load()]
        assert keys == sorted(keys)
        assert {key[:2] for key in keys} == {("mm-k", 3), ("mm-k", 4), ("zhu", 4)}

    @pytest.mark.parametrize("claim_id, instance", [("zhu", "B 3\n"), ("mm-k", "D 3\n")])
    def test_an_instance_of_another_kind_does_not_reverify(self, claim_id, instance):
        record = {
            "claim_id": claim_id, "n": 3, "instance": instance, "details": {},
            "tool_version": "0.1.0", "rng_seed": None,
        }
        assert reverify_record(record) is False

    def test_an_unknown_claim_id_does_not_reverify(self, tmp_path):
        store_path = tmp_path / "zhu.jsonl"
        run_suite(["zhu"], [4], store_path=store_path)
        record = CounterexampleStore(store_path).load()[0]
        assert reverify_record(record)
        assert reverify_record({**record, "claim_id": "no-such-claim"}) is False

    @pytest.mark.parametrize("instance", ["garbage", "B 3\n1 9\n"])
    def test_an_instance_that_does_not_parse_does_not_reverify(self, instance):
        record = {
            "claim_id": "mm-k", "n": 3, "instance": instance, "details": {},
            "tool_version": "0.1.0", "rng_seed": None,
        }
        assert reverify_record(record) is False

    def test_an_instance_of_another_size_does_not_reverify(self, tmp_path):
        store_path = tmp_path / "zhu.jsonl"
        run_suite(["zhu"], [4], store_path=store_path)
        record = CounterexampleStore(store_path).load()[0]
        assert reverify_record(record)
        assert reverify_record({**record, "n": 7}) is False

    def test_stored_instances_reverify_with_fresh_solvers(self, tmp_path):
        store_path = tmp_path / "zhu.jsonl"
        run_suite(["zhu"], range(1, 5), store_path=store_path)
        records = CounterexampleStore(store_path).load()
        assert records, "the low-degree-count digraph claim is false at n=4"
        assert all(reverify_record(r) for r in records)


class TestReport:
    def test_registry_covers_the_advertised_claims(self):
        assert set(CLAIMS) == {
            "thm-zg", "thm-gz", "thm-zg-pullback", "dirac", "ghouila",
            "faudree", "zhu", "mm-k", "mm-half", "cor1", "lv", "woodall",
            "cor2", "cor3a", "cor3b",
        }
        assert ESTABLISHED_CLAIM_IDS == {
            "thm-gz", "dirac", "ghouila", "mm-half", "lv", "woodall"
        }

    def test_the_readme_claim_table_is_the_registry(self):
        # the README's claim table is rendered from build_claims' rows: one
        # row per claim, in registry order, with its kind and standing
        expected = ["| claim | kind | standing | description |", "|---|---|---|---|"] + [
            f"| `{c.claim_id}` | {c.instance_kind} | "
            f"{'established' if c.established else 'adjudicated'} | {c.description} |"
            for c in verifier.build_claims().values()
        ]
        readme = (ROOT / "README.md").read_text(encoding="utf-8").split("\n")
        table = readme[readme.index(expected[0]):]
        assert list(itertools.takewhile(lambda line: line.startswith("|"), table)) == expected

    def test_report_is_json_clean_and_sorted(self):
        verdicts = run_suite(["thm-gz", "ghouila"], [2, 3])
        report = build_report(verdicts, mode="exhaustive", n_values=[2, 3])
        parsed = json.loads(report_json(report))
        assert [c["claim_id"] for c in parsed["claims"]] == ["ghouila", "thm-gz"]
        assert parsed["n_values"] == [2, 3]

    def test_table_mentions_every_claim(self):
        verdicts = run_suite(["thm-gz", "mm-k"], [3])
        table = render_table(verdicts)
        assert "thm-gz" in table and "mm-k" in table
        assert "FALSIFIED" in table  # mm-k fails at n=3


def _stdlib_indented(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


# text drawn from all of Unicode, lone surrogates included, with the
# characters whose escapes differ between encoders drawn more often; ASCII
# text (DEL included) keeps the C path busy, since any other character sends
# a payload to the stdlib
_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from("\x00\x1f\x7f\u2028\u2029\U000103ff\ud800\"\\/"),
    )
) | st.text(st.characters(max_codepoint=0x7F))
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _TEXT,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(_TEXT, children)
    ),
    max_leaves=40,
)


def _nested(depth, wrap):
    payload = 0
    for _ in range(depth):
        payload = wrap(payload)
    return payload


class TestDumpsIndented:
    @given(_PAYLOADS)
    def test_matches_the_stdlib_byte_for_byte(self, payload):
        assert dumps_indented(payload).decode() == _stdlib_indented(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(2**64, id="2**64"),
            pytest.param(-(2**63) - 1, id="-2**63-1"),
            pytest.param({"budget": 10**30}, id="budget-10**30"),
            pytest.param({1: "a", 2: ["b"]}, id="int-keys"),
            pytest.param(_nested(300, lambda p: [p]), id="300-nested-lists"),
            pytest.param(_nested(300, lambda p: {"k": p}), id="300-nested-dicts"),
            pytest.param("é", id="e-acute"),
            pytest.param({"é": 1}, id="e-acute-key"),
            pytest.param("\x7f", id="DEL"),
            pytest.param("\ud800", id="lone-surrogate"),
            pytest.param({"a": {}, "b": [], "c": [[]]}, id="empty-containers"),
        ],
    )
    def test_matches_the_stdlib_on_pinned_cases(self, payload):
        assert dumps_indented(payload).decode() == _stdlib_indented(payload)

    @pytest.mark.parametrize(
        "payload",
        [Counterexample("mm-k", 3, "B 3\n", {}), {1, 2}, datetime.datetime(2000, 1, 1)],
        ids=lambda p: type(p).__name__,
    )
    def test_unsupported_values_raise_type_error_like_the_stdlib(self, payload):
        with pytest.raises(TypeError):
            _stdlib_indented(payload)
        with pytest.raises(TypeError):
            dumps_indented({"value": payload})

    def test_the_report_never_reaches_the_stdlib_encoder(self, monkeypatch):
        verdicts = run_suite(["mm-k", "thm-gz"], [3])
        report = build_report(verdicts, mode="exhaustive", n_values=[3])
        expected = _stdlib_indented(report) + "\n"

        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib encoder ran")

        monkeypatch.setattr(json, "dumps", refuse)
        assert report_json(report) == expected


def _report_shaped(details, descriptions, picks):
    """A report-shaped payload whose counterexample entries share the
    ``details`` objects, each entry holding ``details[i]`` for i in
    ``picks``; its claims are described by ``descriptions``."""
    claims = [
        {
            "claim_id": f"c{c}",
            "description": description,
            "counterexamples": [
                {"details": details[i % len(details)], "instance": f"D {i}\n", "n": i}
                for i in picks
            ],
        }
        for c, description in enumerate(descriptions)
    ]
    return {"budget": 2**64, "claims": claims, "mode": "exhaustive", "n_values": []}


class TestIndentedChunks:
    """The joined chunks of ``indented_chunks`` are ``dumps_indented``'s bytes."""

    @given(_PAYLOADS, st.integers(0, 7), st.booleans())
    def test_joined_chunks_match_the_whole_encoding(self, payload, depth, in_dicts):
        # the payload nested at each depth around the chunk depth
        for _ in range(depth):
            payload = {"k": payload} if in_dicts else [payload]
        assert b"".join(indented_chunks(payload)) == dumps_indented(payload)

    @given(
        st.lists(_PAYLOADS, min_size=1, max_size=3),
        st.lists(_TEXT | st.just('says "counterexamples": [] here'), max_size=3),
        st.lists(st.integers(0, 5), max_size=6),
    )
    def test_shared_details_in_a_report_shape(self, details, descriptions, picks):
        payload = _report_shaped(details, descriptions, picks)
        assert b"".join(indented_chunks(payload)) == dumps_indented(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(2**64, id="2**64"),
            pytest.param([[[[[{"big": 2**70}]]]]], id="2**70-inside-a-chunk"),
            pytest.param({1: "a", 2: ["b"]}, id="int-keys"),
            pytest.param([[[{1: [{"x": 1}]}]]], id="int-keys-above-the-chunk-depth"),
            pytest.param(_nested(300, lambda p: [p]), id="300-nested-lists"),
            pytest.param(_nested(300, lambda p: {"k": p}), id="300-nested-dicts"),
            pytest.param([[[["é", {"é": "\x7f"}]]]], id="non-ascii-and-DEL"),
            pytest.param({"a": {}, "b": [], "c": [[]], "d": [[[[[]]]]]}, id="empty-containers"),
            pytest.param(
                _report_shaped([{"k": [1]}], ['"counterexamples": []'], [0, 1]),
                id="marker-in-description",
            ),
        ],
    )
    def test_pinned_cases(self, payload):
        assert b"".join(indented_chunks(payload)) == dumps_indented(payload)

    @pytest.mark.parametrize("shared", [{"k": [1, {"deep": "x"}]}, {1: [2, 3]}], ids=repr)
    def test_one_object_at_two_depths(self, shared):
        # above, at and inside the chunk depth; an int-keyed dict is never split
        payload = [shared, [[[{"in": shared}, {"in": shared}]]], [[[[shared]]]]]
        assert b"".join(indented_chunks(payload)) == dumps_indented(payload)

    def test_the_report_is_one_chunk_per_counterexample(self):
        verdicts = run_suite(["mm-k", "zhu"], [3])
        report = build_report(verdicts, mode="exhaustive", n_values=[3])
        chunks = list(indented_chunks(report))
        assert b"".join(chunks) + b"\n" == report_json(report).encode()
        # each entry is one chunk: its bracket or comma, the indent of depth
        # 4 and the entry's own encoding re-indented to that depth
        lead = b"\n" + b" " * 8
        expected = [
            (b"," if i else b"[") + lead + dumps_indented(entry).replace(b"\n", lead)
            for claim in report["claims"]
            for i, entry in enumerate(claim["counterexamples"])
        ]
        assert len(expected) == sum(len(v.counterexamples) for v in verdicts) > 0
        assert [c for c in chunks if c.startswith((b"[" + lead, b"," + lead))] == expected


def thm_zg_family(n):
    """The permutations (sigma1, sigma2) of 1..n, as dicts, whose union is a
    counterexample to thm-zg for every n >= 5: sigma2 = (1 3)(2 4 5 ... n)
    for odd n and (1 4)(2 3 5 6 ... n) for even n, and sigma1(i) =
    sigma2(i mod n + 1)."""
    tail = tuple(range(5, n + 1))
    cycles = [(1, 3), (2, 4) + tail] if n % 2 else [(1, 4), (2, 3) + tail]
    sigma2 = {a: b for cycle in cycles for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    sigma1 = {i: sigma2[i % n + 1] for i in range(1, n + 1)}
    return sigma1, sigma2


def cycle_lengths(perm):
    """The sorted cycle lengths of the permutation ``perm`` (a dict)."""
    seen, lengths = set(), []
    for start in perm:
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v, length = perm[v], length + 1
        if length:
            lengths.append(length)
    return sorted(lengths)


class TestThmZgFamily:
    """thm-zg (D strong and zmap(D) Hamiltonian => D Hamiltonian) fails for
    every n >= 5 on sigma1 u sigma2.  A Hamiltonian cycle of zmap(D) is two
    disjoint perfect matchings of it, that is two derangements sigma1 and
    sigma2 of D with sigma2^-1 sigma1 an n-cycle; their union is strong,
    since the group they generate is transitive.  A Hamiltonian cycle of
    sigma1 u sigma2 picks sigma1(u) or sigma2(u) at each u; a pick of
    sigma1 at u forces sigma1 at sigma2^-1 sigma1(u), the other in-neighbour
    of sigma1(u) (Rankin's arc forcing), so the pick is one permutation
    throughout, and the union is Hamiltonian iff sigma1 or sigma2 is an
    n-cycle."""

    @pytest.mark.parametrize("n", range(5, 17))
    def test_the_union_is_a_counterexample(self, n):
        sigma1, sigma2 = thm_zg_family(n)
        d = Digraph(n, frozenset(sigma1.items()) | frozenset(sigma2.items()))
        assert len(d.arcs) == 2 * n
        outcome, _ = check_claim(CLAIMS["thm-zg"], d)
        assert outcome == COUNTEREXAMPLE

    def test_the_cycle_types_hold_up_to_200(self):
        for n in range(5, 201):
            sigma1, sigma2 = thm_zg_family(n)
            inverse2 = {b: a for a, b in sigma2.items()}
            for sigma in (sigma1, sigma2):
                assert sorted(sigma.values()) == list(range(1, n + 1)), n
                assert all(sigma[i] != i for i in sigma), n  # a derangement
                assert cycle_lengths(sigma) != [n], n  # not an n-cycle
            assert cycle_lengths({u: inverse2[sigma1[u]] for u in sigma1}) == [n], n
