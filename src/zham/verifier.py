"""Claim verification engine: enumerate desk-scale instances, test every
registered hypothesis -> conclusion implication against the exact solvers,
and persist counterexamples to an append-only JSON-lines store.

Established claims (classical results) must show zero counterexamples at any
tested scale — one appearing means the artifact itself is broken.  The other
claims are *adjudicated*: the sweep reports whatever it finds, and their
counterexamples are first-class outputs, not failures.  Enumeration is over
labeled instances in increasing bitmask order, so exhaustive runs are fully
deterministic; random mode draws masks from a seeded generator in a fixed
kind/size order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ._version import __version__
from .conditions import (
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
from .core import (
    BipartiteGraph,
    Digraph,
    Graph,
    GraphError,
    format_bipartite_vertex,
    pairs_json,
    witness_json,
)
from .fileio import parse_graph_text, serialize_graph
from .solvers import (
    DEFAULT_NODE_BUDGET,
    BudgetExhausted,
    enumerate_perfect_matchings,
    extends_to_hamiltonian,
    find_hamiltonian_cycle,
    find_hamiltonian_cycle_bipartite,
    find_hamiltonian_cycle_undirected,
    find_two_disjoint_hamiltonian_cycles,
    find_two_disjoint_perfect_matchings,
    max_matching,
    strongly_connected,
)
from .zmapping import ham_cycle_pullback, zmap

HYPOTHESIS_MISS = "hypothesis-miss"
PASS = "pass"
COUNTEREXAMPLE = "counterexample"
BUDGET_EXHAUSTED = "budget-exhausted"

MAX_DIGRAPH_N = 5
MAX_BIPARTITE_N = 5
MAX_GRAPH_N = 7


# ---------------------------------------------------------------------------
# Labeled enumeration


def arc_universe(n):
    """All possible loopless arcs on 1..n in lexicographic order."""
    return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]


def bipartite_edge_universe(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def graph_edge_universe(n):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def _mask_select(universe, mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(universe[low.bit_length() - 1])
        mask ^= low
    return out


def digraph_from_mask(n, mask, _universe=None):
    universe = arc_universe(n) if _universe is None else _universe
    return Digraph(n, frozenset(_mask_select(universe, mask)))


def bipartite_from_mask(n, mask, _universe=None):
    universe = bipartite_edge_universe(n) if _universe is None else _universe
    return BipartiteGraph(n, frozenset(_mask_select(universe, mask)))


def graph_from_mask(n, mask, _universe=None):
    universe = graph_edge_universe(n) if _universe is None else _universe
    return Graph(n, frozenset(_mask_select(universe, mask)))


def _check_enum_bounds(n, max_n, what):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphError(f"{what} size must be a positive integer, got {n!r}")
    if n > max_n:
        raise GraphError(f"{what} enumeration capped at n={max_n}, got n={n}")


_KIND_UNIVERSE = {
    "digraph": (arc_universe, digraph_from_mask),
    "bipartite": (bipartite_edge_universe, bipartite_from_mask),
    "graph": (graph_edge_universe, graph_from_mask),
}

# largest n each kind is enumerated exhaustively at (2^20, 2^25, 2^21 instances)
_KIND_MAX_N = {"digraph": MAX_DIGRAPH_N, "bipartite": MAX_BIPARTITE_N, "graph": MAX_GRAPH_N}


def _enumerate(kind, n, max_n):
    _check_enum_bounds(n, _KIND_MAX_N[kind] if max_n is None else max_n, kind)
    universe_fn, from_mask = _KIND_UNIVERSE[kind]
    universe = universe_fn(n)
    for mask in range(1 << len(universe)):
        yield from_mask(n, mask, universe)


def enumerate_digraphs(n, max_n=None):
    """All 2^(n(n-1)) labeled loopless digraphs, in increasing bitmask order
    (bit i toggles the i-th arc of the lexicographic arc universe).  ``max_n``
    defaults to ``MAX_DIGRAPH_N``."""
    return _enumerate("digraph", n, max_n)


def enumerate_bipartite(n, max_n=None):
    """All 2^(n^2) labeled balanced bipartite graphs, in bitmask order.
    ``max_n`` defaults to ``MAX_BIPARTITE_N``."""
    return _enumerate("bipartite", n, max_n)


def enumerate_graphs(n, max_n=None):
    """All 2^(n(n-1)/2) labeled undirected graphs, in bitmask order.
    ``max_n`` defaults to ``MAX_GRAPH_N``."""
    return _enumerate("graph", n, max_n)


def random_instance(kind, n, rng):
    universe_fn, from_mask = _KIND_UNIVERSE[kind]
    universe = universe_fn(n)
    mask = rng.getrandbits(len(universe)) if universe else 0
    return from_mask(n, mask, universe)


# ---------------------------------------------------------------------------
# Claims


@dataclass(frozen=True)
class Claim:
    """One hypothesis -> conclusion implication to test per instance.

    ``hypothesis`` and ``conclusion`` take (instance, budget) and return
    (bool, json-ready details); either may raise BudgetExhausted.
    """

    claim_id: str
    instance_kind: str
    established: bool
    description: str
    hypothesis: object
    conclusion: object


@dataclass(frozen=True)
class Counterexample:
    claim_id: str
    n: int
    instance: str
    details: dict = field(compare=False)


@dataclass(frozen=True)
class ClaimVerdict:
    claim_id: str
    instances_scanned: int
    hypothesis_hits: int
    passes: int
    counterexamples: tuple
    exhausted_budget: int

    def __post_init__(self):
        conserved = self.passes + len(self.counterexamples) + self.exhausted_budget
        if self.hypothesis_hits != conserved:
            raise GraphError("verdict counters do not conserve hypothesis hits")


def _decided(result):
    if result.exhausted:
        raise BudgetExhausted
    return result


def _condition_hypothesis(fn):
    def hypothesis(instance, budget):
        report = fn(instance)
        return report.hypothesis_holds, report.to_dict()

    return hypothesis


def _ham_conclusion(solver):
    """Conclusion "the instance is Hamiltonian", decided by ``solver``."""

    def conclusion(instance, budget):
        result = _decided(solver(instance, budget))
        return result.found, {
            "hamiltonian": result.found,
            "cycle": witness_json(result.witness),
            "nodes_explored": result.nodes_explored,
        }

    return conclusion


def _thm_zg_hypothesis(d, budget):
    if not strongly_connected(d):
        return False, {"strongly_connected": False}
    result = _decided(find_hamiltonian_cycle_bipartite(zmap(d), budget))
    return result.found, {
        "strongly_connected": True,
        "zmap_hamiltonian": result.found,
        "zmap_cycle": witness_json(result.witness),
    }


def _thm_gz_hypothesis(d, budget):
    result = _decided(find_hamiltonian_cycle(d, budget))
    return result.found, {
        "hamiltonian": result.found,
        "cycle": witness_json(result.witness),
    }


def _thm_gz_conclusion(d, budget):
    matching = max_matching(zmap(d))
    return len(matching) == d.n, {
        "max_matching_size": len(matching),
        "part_size": d.n,
        "matching": witness_json(matching),
    }


def _pullback_hypothesis(d, budget):
    result = _decided(find_hamiltonian_cycle_bipartite(zmap(d), budget))
    return result.found, {
        "zmap_hamiltonian": result.found,
        "zmap_cycle": witness_json(result.witness),
    }


def is_spanning_cycle_factor(n, arcs) -> bool:
    """Every vertex of 1..n has out-degree 1 and in-degree 1 and no arc is a
    loop — i.e. the arc set is a fixed-point-free permutation."""
    outs = [0] * (n + 1)
    ins = [0] * (n + 1)
    for u, v in arcs:
        if u == v:
            return False
        outs[u] += 1
        ins[v] += 1
    return all(outs[v] == 1 and ins[v] == 1 for v in range(1, n + 1))


def _pullback_conclusion(d, budget):
    z = zmap(d)
    result = _decided(find_hamiltonian_cycle_bipartite(z, budget))
    if not result.found:  # unreachable under the hypothesis; stay total
        return True, {"zmap_hamiltonian": False}
    first, second = ham_cycle_pullback(z, result.witness)
    first_ok = is_spanning_cycle_factor(d.n, first)
    second_ok = is_spanning_cycle_factor(d.n, second)
    return first_ok and second_ok, {
        "first_half": pairs_json(first),
        "first_half_is_cycle_factor": first_ok,
        "second_half": pairs_json(second),
        "second_half_is_cycle_factor": second_ok,
    }


def _mm_k_hypothesis(g, budget):
    holding = [k for k in range(2, g.n) if moon_moser_k(g, k).hypothesis_holds]
    return bool(holding), {"holding_k": holding, "n": g.n}


def _disjoint_pair_conclusion(solver):
    """Conclusion "two disjoint cycles (or matchings) exist", by ``solver``."""

    def conclusion(instance, budget):
        result = _decided(solver(instance, budget))
        return result.found, {
            "found": result.found,
            "first": witness_json(result.first),
            "second": witness_json(result.second),
            "nodes_explored": result.nodes_explored,
        }

    return conclusion


def _perfect_matching_conclusion(g, budget):
    matching = max_matching(g)
    return len(matching) == g.n, {
        "max_matching_size": len(matching),
        "part_size": g.n,
    }


def _lv_conclusion(g, budget):
    checked = 0
    for matching in enumerate_perfect_matchings(g, budget):
        checked += 1
        if not extends_to_hamiltonian(g, matching, budget):
            return False, {
                "perfect_matchings_checked": checked,
                "non_extending_matching": witness_json(matching),
            }
    return True, {"perfect_matchings_checked": checked}


def build_claims() -> dict:
    """The claim registry, keyed and ordered by claim id.

    The conclusions bind the solvers this module names when it runs, so a
    rebuilt registry picks up any solver rebound since import.
    """
    digraph_ham = _ham_conclusion(find_hamiltonian_cycle)
    bipartite_ham = _ham_conclusion(find_hamiltonian_cycle_bipartite)
    graph_ham = _ham_conclusion(find_hamiltonian_cycle_undirected)
    two_cycles = _disjoint_pair_conclusion(find_two_disjoint_hamiltonian_cycles)
    claims = [
        Claim(
            "thm-zg",
            "digraph",
            False,
            "strong and bipartite image Hamiltonian => digraph Hamiltonian",
            _thm_zg_hypothesis,
            digraph_ham,
        ),
        Claim(
            "thm-gz",
            "digraph",
            True,
            "digraph Hamiltonian => bipartite image has a perfect matching",
            _thm_gz_hypothesis,
            _thm_gz_conclusion,
        ),
        Claim(
            "thm-zg-pullback",
            "digraph",
            False,
            "bipartite image Hamiltonian => both pullback halves are spanning cycle factors",
            _pullback_hypothesis,
            _pullback_conclusion,
        ),
        Claim(
            "dirac",
            "graph",
            True,
            "dirac degree bound => graph Hamiltonian",
            _condition_hypothesis(dirac),
            graph_ham,
        ),
        Claim(
            "ghouila",
            "digraph",
            True,
            "ghouila-houri degree bound => digraph Hamiltonian",
            _condition_hypothesis(ghouila_houri),
            digraph_ham,
        ),
        Claim(
            "faudree",
            "graph",
            False,
            "faudree low-degree count => graph Hamiltonian",
            _condition_hypothesis(faudree),
            graph_ham,
        ),
        Claim(
            "zhu",
            "digraph",
            False,
            "digraph low-degree count => digraph Hamiltonian",
            _condition_hypothesis(zhu_digraph),
            digraph_ham,
        ),
        Claim(
            "mm-k",
            "bipartite",
            False,
            "some admissible k passes the moon-moser-k count => bipartite Hamiltonian",
            _mm_k_hypothesis,
            bipartite_ham,
        ),
        Claim(
            "mm-half",
            "bipartite",
            True,
            "moon-moser half-degree bound => bipartite Hamiltonian",
            _condition_hypothesis(moon_moser_half),
            bipartite_ham,
        ),
        Claim(
            "cor1",
            "digraph",
            False,
            "half-degree in/out bounds => two arc-disjoint Hamiltonian cycles",
            _condition_hypothesis(disjoint_hc_degree),
            two_cycles,
        ),
        Claim(
            "lv",
            "bipartite",
            True,
            "las-vergnas pair bound => every perfect matching extends to a Hamiltonian cycle",
            _condition_hypothesis(las_vergnas),
            _lv_conclusion,
        ),
        Claim(
            "woodall",
            "digraph",
            True,
            "woodall pair bound => digraph Hamiltonian",
            _condition_hypothesis(woodall),
            digraph_ham,
        ),
        Claim(
            "cor2",
            "digraph",
            False,
            "woodall pair bound plus two => two arc-disjoint Hamiltonian cycles",
            _condition_hypothesis(woodall_plus2),
            two_cycles,
        ),
        Claim(
            "cor3a",
            "bipartite",
            False,
            "ore pair bound (n) => perfect matching exists",
            _condition_hypothesis(lambda g: ore_bipartite(g, g.n)),
            _perfect_matching_conclusion,
        ),
        Claim(
            "cor3b",
            "bipartite",
            False,
            "ore pair bound (n+2) => two edge-disjoint perfect matchings",
            _condition_hypothesis(lambda g: ore_bipartite(g, g.n + 2)),
            _disjoint_pair_conclusion(find_two_disjoint_perfect_matchings),
        ),
    ]
    return {c.claim_id: c for c in claims}

CLAIMS = build_claims()
ESTABLISHED_CLAIM_IDS = frozenset(c.claim_id for c in CLAIMS.values() if c.established)


def check_claim(claim: Claim, instance, budget=None):
    """Outcome of one claim on one instance.

    Returns (outcome, details) with outcome one of hypothesis-miss, pass,
    counterexample, budget-exhausted.  Budget exhaustion at either stage is
    an outcome, never an error.
    """
    try:
        holds, hyp_details = claim.hypothesis(instance, budget)
    except BudgetExhausted:
        return BUDGET_EXHAUSTED, {"stage": "hypothesis"}
    if not holds:
        return HYPOTHESIS_MISS, {"hypothesis": hyp_details}
    try:
        concluded, concl_details = claim.conclusion(instance, budget)
    except BudgetExhausted:
        return BUDGET_EXHAUSTED, {"stage": "conclusion", "hypothesis": hyp_details}
    details = {"hypothesis": hyp_details, "conclusion": concl_details}
    return (PASS if concluded else COUNTEREXAMPLE), details


def _instance_degrees(instance):
    if isinstance(instance, Digraph):
        return {
            str(v): [instance.out_degree(v), instance.in_degree(v), instance.degree(v)]
            for v in instance.vertices()
        }
    if isinstance(instance, BipartiteGraph):
        return {
            format_bipartite_vertex(v): instance.degree(v) for v in instance.vertices()
        }
    return {str(v): instance.degree(v) for v in instance.vertices()}


def _resolve_claims(claim_ids):
    if claim_ids is None:
        return list(CLAIMS.values())
    out = []
    for cid in claim_ids:
        if cid not in CLAIMS:
            raise GraphError(f"unknown claim id {cid!r}; known: {', '.join(CLAIMS)}")
        out.append(CLAIMS[cid])
    return out


class _Tally:
    __slots__ = ("scanned", "hits", "passes", "counterexamples", "exhausted")

    def __init__(self):
        self.scanned = 0
        self.hits = 0
        self.passes = 0
        self.counterexamples = []
        self.exhausted = 0


def run_suite(
    claim_ids=None,
    n_values=(1, 2, 3, 4),
    *,
    mode="exhaustive",
    samples=1000,
    seed=None,
    store_path=None,
    budget=None,
):
    """Sweep every requested claim over every instance size in ``n_values``.

    Exhaustive mode enumerates all labeled instances; random mode draws
    ``samples`` instances per size from a generator seeded with ``seed``
    (kinds are processed digraph, bipartite, graph and sizes ascending, so
    the draw order is reproducible).  Exhaustive mode raises GraphError
    before any work when a requested size exceeds its kind's cap
    (``MAX_DIGRAPH_N``, ``MAX_BIPARTITE_N``, ``MAX_GRAPH_N``); random mode
    has no cap.  Counterexamples are appended to ``store_path`` when given.
    Returns ClaimVerdicts in request order.
    """
    if mode not in ("exhaustive", "random"):
        raise GraphError(f"mode must be 'exhaustive' or 'random', got {mode!r}")
    claims = _resolve_claims(claim_ids)
    sizes = sorted(set(n_values))
    if mode == "exhaustive":  # one size past a cap is 2^28 instances or more
        for kind, max_n in _KIND_MAX_N.items():
            if any(c.instance_kind == kind for c in claims):
                for n in sizes:
                    _check_enum_bounds(n, max_n, kind)
    rng = random.Random(seed)
    tallies = {c.claim_id: _Tally() for c in claims}

    for kind in ("digraph", "bipartite", "graph"):
        kind_claims = [c for c in claims if c.instance_kind == kind]
        if not kind_claims:
            continue
        universe_fn, from_mask = _KIND_UNIVERSE[kind]
        for n in sizes:
            universe = universe_fn(n)
            if mode == "exhaustive":
                masks = range(1 << len(universe))
            else:
                bits = len(universe)
                masks = [rng.getrandbits(bits) if bits else 0 for _ in range(samples)]
            for mask in masks:
                instance = from_mask(n, mask, universe)
                for claim in kind_claims:
                    outcome, details = check_claim(claim, instance, budget)
                    tally = tallies[claim.claim_id]
                    tally.scanned += 1
                    if outcome == HYPOTHESIS_MISS:
                        continue
                    tally.hits += 1
                    if outcome == PASS:
                        tally.passes += 1
                    elif outcome == BUDGET_EXHAUSTED:
                        tally.exhausted += 1
                    else:
                        details = dict(details)
                        details["degrees"] = _instance_degrees(instance)
                        tally.counterexamples.append(
                            Counterexample(
                                claim.claim_id, n, serialize_graph(instance), details
                            )
                        )

    verdicts = []
    for claim in claims:
        tally = tallies[claim.claim_id]
        ces = tuple(
            sorted(tally.counterexamples, key=lambda ce: (ce.n, ce.instance))
        )
        verdicts.append(
            ClaimVerdict(
                claim.claim_id,
                tally.scanned,
                tally.hits,
                tally.passes,
                ces,
                tally.exhausted,
            )
        )

    if store_path is not None:
        store = CounterexampleStore(store_path)
        all_ces = [ce for v in verdicts for ce in v.counterexamples]
        all_ces.sort(key=lambda ce: (ce.claim_id, ce.n, ce.instance))
        store.append(all_ces, rng_seed=seed if mode == "random" else None)
    return verdicts


def established_failures(verdicts):
    """Claim ids of established claims that produced counterexamples."""
    return [
        v.claim_id
        for v in verdicts
        if v.claim_id in ESTABLISHED_CLAIM_IDS and v.counterexamples
    ]


def build_report(verdicts, *, mode, seed=None, samples=None, n_values=(), budget=None):
    """JSON-ready report document; byte-stable for identical runs."""
    return {
        "tool_version": __version__,
        "mode": mode,
        "seed": seed,
        "samples": samples if mode == "random" else None,
        "n_values": sorted(set(n_values)),
        "budget": DEFAULT_NODE_BUDGET if budget is None else budget,
        "claims": [
            {
                "claim_id": v.claim_id,
                "instance_kind": CLAIMS[v.claim_id].instance_kind,
                "established": CLAIMS[v.claim_id].established,
                "description": CLAIMS[v.claim_id].description,
                "instances_scanned": v.instances_scanned,
                "hypothesis_hits": v.hypothesis_hits,
                "passes": v.passes,
                "counterexample_count": len(v.counterexamples),
                "exhausted_budget": v.exhausted_budget,
                "counterexamples": [
                    {"n": ce.n, "instance": ce.instance, "details": ce.details}
                    for ce in v.counterexamples
                ],
            }
            for v in sorted(verdicts, key=lambda v: v.claim_id)
        ],
    }


def report_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_table(verdicts) -> str:
    """Aligned per-claim summary for humans."""
    header = ("claim", "kind", "scanned", "hits", "passes", "counterex", "exhausted", "status")
    rows = [header]
    for v in sorted(verdicts, key=lambda v: v.claim_id):
        claim = CLAIMS[v.claim_id]
        if v.counterexamples:
            status = "FALSIFIED" if not claim.established else "BUG: established claim falsified"
        elif v.exhausted_budget:
            status = "incomplete (budget)"
        else:
            status = "ok"
        rows.append(
            (
                v.claim_id,
                claim.instance_kind,
                str(v.instances_scanned),
                str(v.hypothesis_hits),
                str(v.passes),
                str(len(v.counterexamples)),
                str(v.exhausted_budget),
                status,
            )
        )
    return align_columns(rows)


def align_columns(rows) -> str:
    """Rows of string cells as text lines, columns padded to a common width."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Counterexample store


class StoreError(Exception):
    """The JSON-lines counterexample store could not be read or written."""


class CounterexampleStore:
    """Append-only JSON-lines store, one counterexample object per line."""

    def __init__(self, path):
        self.path = Path(path)

    def append(self, counterexamples, rng_seed=None):
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                for ce in counterexamples:
                    record = {
                        "claim_id": ce.claim_id,
                        "n": ce.n,
                        "instance": ce.instance,
                        "details": ce.details,
                        "tool_version": __version__,
                        "rng_seed": rng_seed,
                    }
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError as exc:
            raise StoreError(f"cannot append to store {self.path}: {exc}") from exc

    def load(self):
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise StoreError(f"cannot read store {self.path}: {exc}") from exc
        records = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise StoreError(f"bad store line {line_no}: {exc}") from exc
        return records


def reverify_record(record, budget=None) -> bool:
    """Re-run hypothesis and conclusion on a stored counterexample with fresh
    solver calls; True when the failure reproduces."""
    claim = CLAIMS.get(record["claim_id"])
    if claim is None:
        return False
    instance = parse_graph_text(record["instance"])
    outcome, _ = check_claim(claim, instance, budget)
    return outcome == COUNTEREXAMPLE
