"""Claim verification engine: enumerate desk-scale instances, test every
registered hypothesis -> conclusion implication against the exact solvers,
and persist counterexamples to an append-only JSON-lines store.

``build_claims`` declares the claims, one row per claim: its id, whether it
is established, hypothesis, conclusion and description.  ``CLAIMS``,
``ESTABLISHED_CLAIM_IDS`` and the README's claim table are derived from it.

Established claims (classical results) must show zero counterexamples at any
tested scale — one appearing means the artifact itself is broken.  The other
claims are *adjudicated*: the sweep reports whatever it finds, and their
counterexamples are first-class outputs, not failures.  Enumeration is over
labeled instances in increasing bitmask order, so exhaustive runs are fully
deterministic; random mode draws masks from a seeded generator in a fixed
kind/size order.

The store checks each line against the schema's store-line shape when it
loads.  Every indented JSON output (the report here, each payload of the
CLI) is written by ``dumps_indented`` as bytes, byte-identical to the
stdlib's ``json.dumps(..., sort_keys=True, indent=2)`` encoded as ASCII.
``indented_chunks`` yields the same bytes in chunks, one per counterexample
entry of a report, so ``zham verify`` never holds its report whole; the
store encodes each distinct details object once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ._version import __version__
from .conditions import build_registry
from .core import (
    KINDS,
    MASK_N,
    GraphError,
    arc_universe,  # the three universes are re-exported
    bipartite_edge_universe,
    graph_edge_universe,
    is_int,
    mask_select,
    pairs_json,
    witness_json,
)
from .fileio import ParseError, parse_graph_text, serialize_graph
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

# ---------------------------------------------------------------------------
# Labeled enumeration
#
# Each kind's universe (its possible arcs or edges, bit i of a mask selecting
# the i-th) and its exhaustive cap are those of its value type in
# ``core.KINDS``.


def _decoder(cls):
    """The one mask decoder body, bound to value type ``cls``."""

    def from_mask(n, mask, _universe=None):
        universe = cls.universe(n) if _universe is None else _universe
        return cls(n, frozenset(mask_select(universe, mask)))

    return from_mask


def _check_enum_bounds(n, max_n, what):
    if not is_int(n) or n < 1:
        raise GraphError(f"{what} size must be a positive integer, got {n!r}")
    if n > max_n:
        raise GraphError(f"{what} enumeration capped at n={max_n}, got n={n}")


# kind -> (universe, decoder), read at call time
_KIND_UNIVERSE = {kind: (cls.universe, _decoder(cls)) for kind, cls in KINDS.items()}
digraph_from_mask = _KIND_UNIVERSE["digraph"][1]
bipartite_from_mask = _KIND_UNIVERSE["bipartite"][1]
graph_from_mask = _KIND_UNIVERSE["graph"][1]


def _instances(kind, n, rng=None, samples=1):
    """The instances of ``kind`` on n a sweep checks: every labeled one in
    increasing mask order, or with ``rng`` ``samples`` seeded draws.  Each
    mask is drawn and decoded as its instance is read."""
    universe_fn, from_mask = _KIND_UNIVERSE[kind]
    universe = universe_fn(n)
    bits = len(universe)
    if rng is None:
        masks = range(1 << bits)
    else:
        masks = (rng.getrandbits(bits) if bits else 0 for _ in range(samples))
    for mask in masks:
        yield from_mask(n, mask, universe)


def _enumerate(kind, n):
    _check_enum_bounds(n, KINDS[kind].max_n, kind)
    yield from _instances(kind, n)


def enumerate_digraphs(n):
    """All 2^(n(n-1)) labeled loopless digraphs, in increasing bitmask order
    (bit i toggles the i-th arc of the lexicographic arc universe), for n up
    to ``Digraph.max_n``."""
    return _enumerate("digraph", n)


def enumerate_bipartite(n):
    """All 2^(n^2) labeled balanced bipartite graphs, in bitmask order, for
    n up to ``BipartiteGraph.max_n``."""
    return _enumerate("bipartite", n)


def enumerate_graphs(n):
    """All 2^(n(n-1)/2) labeled undirected graphs, in bitmask order, for n
    up to ``Graph.max_n``."""
    return _enumerate("graph", n)


def random_instance(kind, n, rng):
    return next(_instances(kind, n, rng))


# ---------------------------------------------------------------------------
# Claims


@dataclass(frozen=True)
class Claim:
    """One hypothesis -> conclusion implication to test per instance.

    ``hypothesis`` and ``conclusion`` take (instance, budget) and return
    (bool, json-ready details); either may raise BudgetExhausted.  Only a
    hypothesis that holds is explained: the details of a miss are never
    read, so a hypothesis may return ``None`` for them, and the condition
    hypotheses do, without listing the condition's violators.
    """

    claim_id: str
    instance_kind: str
    established: bool
    description: str
    hypothesis: object
    conclusion: object


@dataclass(frozen=True, slots=True)
class Counterexample:
    """A claim's hypothesis holding on ``instance`` where its conclusion
    fails.  The counterexamples of one ``run_suite`` sweep share their
    details: each equal ``degrees`` dict, hypothesis or conclusion value and
    details dict is one object, so ``details`` is read-only."""

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
    """Hypothesis "condition ``fn`` holds"; only a hit is explained."""

    def hypothesis(instance, budget):
        report = fn(instance)
        if not report.hypothesis_holds:
            return False, None
        return True, report.to_dict()

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
        return False, None
    holds, details = _pullback_hypothesis(d, budget)
    return holds, {"strongly_connected": True, **details}


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


def pullback_halves(g, witness):
    """JSON form of the two pullback halves of a Hamiltonian cycle
    ``witness`` of the bipartite graph ``g``: each half's sorted arc list and
    whether it is a spanning cycle factor of the preimage on 1..n.  The
    ``thm-zg-pullback`` conclusion and ``zham pullback`` both use it."""
    first, second = ham_cycle_pullback(g, witness)
    return {
        "first_half": pairs_json(first),
        "first_half_is_cycle_factor": is_spanning_cycle_factor(g.n, first),
        "second_half": pairs_json(second),
        "second_half_is_cycle_factor": is_spanning_cycle_factor(g.n, second),
    }


def _pullback_conclusion(d, budget):
    z = zmap(d)
    result = _decided(find_hamiltonian_cycle_bipartite(z, budget))
    if not result.found:  # unreachable under the hypothesis; stay total
        return True, {"zmap_hamiltonian": False}
    halves = pullback_halves(z, result.witness)
    factors = halves["first_half_is_cycle_factor"] and halves["second_half_is_cycle_factor"]
    return factors, halves


def _mm_k_hypothesis(moon_moser_k):
    """Hypothesis "``moon_moser_k`` holds for some admissible k"."""

    def hypothesis(g, budget):
        holding = [k for k in range(2, g.n) if moon_moser_k(g, k).hypothesis_holds]
        return bool(holding), {"holding_k": holding, "n": g.n}

    return hypothesis


def disjoint_pair_json(result):
    """JSON form of a ``DisjointPair``: ``found``, both witnesses and
    ``nodes_explored``.  The disjoint-pair conclusions and ``zham pm2`` both
    use it."""
    return {
        "found": result.found,
        "first": witness_json(result.first),
        "second": witness_json(result.second),
        "nodes_explored": result.nodes_explored,
    }


def _disjoint_pair_conclusion(solver):
    """Conclusion "two disjoint cycles (or matchings) exist", by ``solver``."""

    def conclusion(instance, budget):
        result = _decided(solver(instance, budget))
        return result.found, disjoint_pair_json(result)

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
    """The claim registry, keyed and ordered by claim id, built from one row
    per claim: its id, whether it is established, hypothesis, conclusion and
    description.

    A hypothesis is a condition id or a digraph hypothesis function.  A
    condition claim takes its instance kind and predicate from
    ``conditions.build_registry`` and tests the predicate with
    ``_condition_hypothesis``, or with the wrapper paired with its id.  A
    row with no conclusion concludes "the instance is Hamiltonian", decided
    by its kind's solver.  The predicates and solvers are bound when this
    runs, so a rebuilt registry picks up any rebound since import.
    """
    registry = build_registry()
    ham = {
        "digraph": _ham_conclusion(find_hamiltonian_cycle),
        "bipartite": _ham_conclusion(find_hamiltonian_cycle_bipartite),
        "graph": _ham_conclusion(find_hamiltonian_cycle_undirected),
    }
    two_cycles = _disjoint_pair_conclusion(find_two_disjoint_hamiltonian_cycles)
    rows = (
        ("thm-zg", False, _thm_zg_hypothesis, None,
         "strong and bipartite image Hamiltonian => digraph Hamiltonian"),
        ("thm-gz", True, _thm_gz_hypothesis, _thm_gz_conclusion,
         "digraph Hamiltonian => bipartite image has a perfect matching"),
        ("thm-zg-pullback", False, _pullback_hypothesis, _pullback_conclusion,
         "bipartite image Hamiltonian => both pullback halves are spanning cycle factors"),
        ("dirac", True, "dirac", None, "dirac degree bound => graph Hamiltonian"),
        ("ghouila", True, "ghouila-houri", None,
         "ghouila-houri degree bound => digraph Hamiltonian"),
        ("faudree", False, "faudree", None, "faudree low-degree count => graph Hamiltonian"),
        ("zhu", False, "zhu", None, "digraph low-degree count => digraph Hamiltonian"),
        ("mm-k", False, ("moon-moser-k", _mm_k_hypothesis), None,
         "some admissible k passes the moon-moser-k count => bipartite Hamiltonian"),
        ("mm-half", True, "moon-moser-half", None,
         "moon-moser half-degree bound => bipartite Hamiltonian"),
        ("cor1", False, "cor1-disjoint-hc", two_cycles,
         "half-degree in/out bounds => two arc-disjoint Hamiltonian cycles"),
        ("lv", True, "las-vergnas", _lv_conclusion,
         "las-vergnas pair bound => every perfect matching extends to a Hamiltonian cycle"),
        ("woodall", True, "woodall", None, "woodall pair bound => digraph Hamiltonian"),
        ("cor2", False, "cor2-woodall-plus2", two_cycles,
         "woodall pair bound plus two => two arc-disjoint Hamiltonian cycles"),
        ("cor3a", False, "cor3-ore-pm", _perfect_matching_conclusion,
         "ore pair bound (n) => perfect matching exists"),
        ("cor3b", False, "cor3-ore-2pm",
         _disjoint_pair_conclusion(find_two_disjoint_perfect_matchings),
         "ore pair bound (n+2) => two edge-disjoint perfect matchings"),
    )
    claims = {}
    for claim_id, established, hypothesis, conclusion, description in rows:
        if callable(hypothesis):
            kind = "digraph"
        else:
            condition_id, wrap = (
                hypothesis if type(hypothesis) is tuple else (hypothesis, _condition_hypothesis)
            )
            kind, predicate = registry[condition_id]
            hypothesis = wrap(predicate)
        claims[claim_id] = Claim(
            claim_id, kind, established, description, hypothesis, conclusion or ham[kind]
        )
    return claims


CLAIMS = build_claims()
ESTABLISHED_CLAIM_IDS = frozenset(c.claim_id for c in CLAIMS.values() if c.established)


def check_claim(claim: Claim, instance, budget=None):
    """Outcome of one claim on one instance.

    Returns (outcome, details) with outcome one of hypothesis-miss, pass,
    counterexample, budget-exhausted.  A hypothesis miss carries no details
    (``{}``): the hypothesis is decided, not explained.  Budget exhaustion at
    either stage is an outcome, never an error.
    """
    try:
        holds, hyp_details = claim.hypothesis(instance, budget)
    except BudgetExhausted:
        return BUDGET_EXHAUSTED, {"stage": "hypothesis"}
    if not holds:
        return HYPOTHESIS_MISS, {}
    try:
        concluded, concl_details = claim.conclusion(instance, budget)
    except BudgetExhausted:
        return BUDGET_EXHAUSTED, {"stage": "conclusion", "hypothesis": hyp_details}
    details = {"hypothesis": hyp_details, "conclusion": concl_details}
    return (PASS if concluded else COUNTEREXAMPLE), details


def _instance_degrees(instance):
    """Counterexample details' degrees, read from its ``degree_table``: a
    digraph's [out, in, total] per vertex, otherwise the degree per label."""
    labels, totals, *directed = instance.degree_table
    if directed:
        return {str(v): [out, in_, total] for v, total, out, in_ in zip(labels, totals, *directed)}
    return {str(v): total for v, total in zip(labels, totals)}


def requested_claims(claim_ids=None, mode="exhaustive", samples=1000):
    """The claims ``claim_ids`` names, each once, in first-named order (all
    claims for None), after the one check of a sweep request's claim ids,
    mode and samples: GraphError naming every unknown claim id, a mode that
    is neither "exhaustive" nor "random", or, in random mode, a ``samples``
    that is not a positive integer."""
    claim_ids = CLAIMS if claim_ids is None else claim_ids
    unknown = [cid for cid in claim_ids if cid not in CLAIMS]
    if unknown:
        named = ", ".join(map(str, unknown))
        raise GraphError(f"unknown claim id(s) {named}; known: {', '.join(CLAIMS)}")
    if mode not in ("exhaustive", "random"):
        raise GraphError(f"mode must be 'exhaustive' or 'random', got {mode!r}")
    if mode == "random" and not (is_int(samples) and samples > 0):
        raise GraphError(f"samples must be a positive integer in random mode, got {samples!r}")
    return [CLAIMS[cid] for cid in dict.fromkeys(claim_ids)]


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
    ``samples`` instances per size from a generator seeded with ``seed``,
    each mask as its instance is checked (kinds are processed digraph,
    bipartite, graph and sizes ascending, so the draw order is
    reproducible).  Every field is checked before any work, the claim ids,
    mode and samples by ``requested_claims``.  ``n_values`` must name at
    least one size, and each must be a positive integer and at most its
    kind's cap in exhaustive mode (the ``max_n`` of its type in
    ``core.KINDS``), or at most ``core.MASK_N`` in random mode; GraphError
    otherwise.  A claim id named twice is swept once.  Counterexamples are
    appended to ``store_path`` when given, in (claim id, n, instance)
    order; equal details are one object (see ``Counterexample``).  Returns
    ClaimVerdicts in request order.
    """
    claims = requested_claims(claim_ids, mode, samples)
    sizes = dict.fromkeys(n_values)  # checked before sorting: "3" and 2 do not order
    if not sizes:
        raise GraphError("n_values names no instance size")
    swept = [(kind, [c for c in claims if c.instance_kind == kind]) for kind in KINDS]
    swept = [(kind, kind_claims) for kind, kind_claims in swept if kind_claims]
    # one exhaustive size past its cap is 2^28 instances or more; a random
    # draw reads a universe list of n(n - 1)/2 to n^2 pairs, quadratic in n
    for kind, _ in swept:
        cap = KINDS[kind].max_n if mode == "exhaustive" else MASK_N
        for n in sizes:
            _check_enum_bounds(n, cap, kind)
    sizes = sorted(sizes)
    rng = random.Random(seed) if mode == "random" else None
    outcomes = (HYPOTHESIS_MISS, PASS, COUNTEREXAMPLE, BUDGET_EXHAUSTED)
    counts = {c.claim_id: dict.fromkeys(outcomes, 0) for c in claims}
    found = {c.claim_id: [] for c in claims}
    import orjson  # loaded on first use, as in dumps_indented

    # key -> the sweep's one object: a hypothesis or conclusion value per its
    # sort-keyed encoding, degrees per degree table, and details per (ids of
    # those two, degree table), each id that of an object the sweep holds
    shared = {}

    def share(value):
        """The one object JSON-equal to ``value``; a value orjson refuses
        (an int past 64 bits, say) is not shared.  Details hold no floats,
        the one JSON value orjson writes unlike the stdlib (NaN as null)."""
        try:
            key = orjson.dumps(value, option=orjson.OPT_SORT_KEYS)
        except TypeError:
            return value
        return shared.setdefault(key, value)

    def shared_details(details, instance):
        """The details of a counterexample on ``instance``, with its degrees."""
        hyp, concl = share(details["hypothesis"]), share(details["conclusion"])
        table = instance.degree_table
        if table not in shared:
            shared[table] = _instance_degrees(instance)
        made = {"hypothesis": hyp, "conclusion": concl, "degrees": shared[table]}
        return shared.setdefault((id(hyp), id(concl), table), made)

    for kind, kind_claims in swept:
        for n in sizes:
            for instance in _instances(kind, n, rng, samples):
                for claim in kind_claims:
                    outcome, details = check_claim(claim, instance, budget)
                    counts[claim.claim_id][outcome] += 1
                    if outcome == COUNTEREXAMPLE:
                        details = shared_details(details, instance)
                        found[claim.claim_id].append(
                            Counterexample(claim.claim_id, n, serialize_graph(instance), details)
                        )

    verdicts = []
    for claim in claims:
        count = counts[claim.claim_id]
        scanned = sum(count.values())
        ces = tuple(sorted(found[claim.claim_id], key=lambda ce: (ce.n, ce.instance)))
        hits = scanned - count[HYPOTHESIS_MISS]
        verdicts.append(
            ClaimVerdict(claim.claim_id, scanned, hits, count[PASS], ces, count[BUDGET_EXHAUSTED])
        )

    if store_path is not None:
        ces = (ce for v in sorted(verdicts, key=lambda v: v.claim_id) for ce in v.counterexamples)
        CounterexampleStore(store_path).append(ces, rng_seed=seed if mode == "random" else None)
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


def dumps_indented(payload) -> bytes:
    """``json.dumps(payload, sort_keys=True, indent=2)`` encoded as ASCII,
    byte for byte, written by orjson's C encoder (the stdlib's indenting
    encoder is pure Python).  A caller that needs text decodes it; the CLI
    writes the bytes to a report file as they are, so a large report is
    never held as text too.

    The stdlib call runs instead when orjson refuses the payload (an int
    past 64 bits, a non-str key, a lone surrogate, nesting past 254 levels,
    a dataclass, datetime or subclass) or writes bytes that ``ensure_ascii``
    would escape (non-ASCII text, DEL).  orjson differs from the stdlib
    without refusing only on floats, which the schema keeps out of every
    output, and on enum members and UUIDs, which no output holds.  It is
    imported on first use, keeping it and the modules it loads out of
    ``import zham``.
    """
    import orjson

    options = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS
    options |= orjson.OPT_PASSTHROUGH_DATETIME | orjson.OPT_PASSTHROUGH_SUBCLASS
    try:
        out = orjson.dumps(payload, option=options)
    except TypeError:
        out = None
    if out is None or not out.isascii() or b"\x7f" in out:
        return json.dumps(payload, sort_keys=True, indent=2).encode("ascii")
    return out


# the depth of the values ``indented_chunks`` writes one chunk each: in a
# report, one counterexample entry (report, claims, claim, counterexamples)
_CHUNK_DEPTH = 4


def indented_chunks(payload):
    """``dumps_indented(payload)`` as an iterator of byte chunks, whose join
    is that encoding.  Lists and str-keyed dicts above ``_CHUNK_DEPTH`` are
    split around their members.  Each value at that depth (a report's
    counterexample entry) is one ``dumps_indented`` call, re-indented to its
    depth and yielded in one chunk with the bracket or comma and indent
    before it.  JSON text holds a raw newline only between values, so the
    pieces match the whole encoding byte for byte, and the report is never
    held whole."""

    def pieces(value, depth):
        """``value``'s text at ``depth`` in pieces, each member of a split
        list or str-keyed dict above the chunk depth as (member, depth)."""
        is_list = type(value) is list
        if not (is_list or type(value) is dict and all(type(k) is str for k in value)) or not value:
            yield dumps_indented(value).replace(b"\n", b"\n" + b"  " * depth)
            return
        lead = b"\n" + b"  " * (depth + 1)  # before each member and a chunk's lines
        for i, key in enumerate(range(len(value)) if is_list else sorted(value)):
            named = b"" if is_list else dumps_indented(key) + b": "
            head = (b"," if i else b"[" if is_list else b"{") + lead + named
            if depth + 1 < _CHUNK_DEPTH:
                yield head
                yield value[key], depth + 1
            else:
                yield head + dumps_indented(value[key]).replace(b"\n", lead)
        yield lead[:-2] + (b"]" if is_list else b"}")

    stack = [pieces(payload, 0)]  # the pieces of each list or dict being split
    while stack:
        piece = next(stack[-1], None)
        if piece is None:
            stack.pop()
        elif type(piece) is bytes:
            yield piece
        else:
            stack.append(pieces(*piece))


def report_json(report) -> str:
    return dumps_indented(report).decode() + "\n"


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
        counts = [v.instances_scanned, v.hypothesis_hits, v.passes, len(v.counterexamples)]
        counts.append(v.exhausted_budget)
        rows.append((v.claim_id, claim.instance_kind, *map(str, counts), status))
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
        """Append a line per counterexample: ``json.dumps(record,
        sort_keys=True)`` of its record, whose keys are those of
        ``_STORE_LINE`` in sorted order.  Each details object is encoded once
        and its text written into every line that holds it."""
        encode, texts = json.JSONEncoder(sort_keys=True).encode, {}  # id -> (details, text)
        tail = f', "rng_seed": {encode(rng_seed)}, "tool_version": {encode(__version__)}}}\n'
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                for ce in counterexamples:
                    d = ce.details  # held in ``texts``, so its id stays its own
                    held = texts.get(id(d)) or texts.setdefault(id(d), (d, encode(d)))
                    fh.write(f'{{"claim_id": {encode(ce.claim_id)}, "details": {held[1]}, '
                             f'"instance": {encode(ce.instance)}, "n": {encode(ce.n)}{tail}')
        except OSError as exc:
            raise StoreError(f"cannot append to store {self.path}: {exc}") from exc

    def load(self):
        try:
            text = self.path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise StoreError(f"cannot read store {self.path}: {exc}") from exc
        records = []
        # JSON lines end at "\n" only: a string may hold a raw U+2028 or
        # U+0085, which ``str.splitlines`` would also split on
        for line_no, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StoreError(f"bad store line {line_no}: {exc}") from exc
            problem = _store_line_problem(record)
            if problem is not None:
                raise StoreError(f"bad store line {line_no}: {problem}")
            records.append(record)
        return records


# the storeLine shape of schemas/cli-output.schema.json: key -> accepted types
_STORE_LINE = {
    "claim_id": str,
    "n": int,
    "instance": str,
    "details": dict,
    "tool_version": str,
    "rng_seed": (int, type(None)),
}


def _store_line_problem(record):
    """Why a decoded line is not a store line, or None when it is one."""
    if not isinstance(record, dict):
        return f"expected an object, got {type(record).__name__}"
    if record.keys() != _STORE_LINE.keys():
        missing = sorted(_STORE_LINE.keys() - record.keys())
        extra = sorted(record.keys() - _STORE_LINE.keys())
        return f"missing keys {missing}, unexpected keys {extra}"
    for key, kinds in _STORE_LINE.items():
        value = record[key]
        if isinstance(value, bool) or not isinstance(value, kinds):
            return f"{key} has type {type(value).__name__}"
    if record["n"] < 1:
        return f"n is {record['n']}, below 1"
    return None


def reverify_record(record, budget=None) -> bool:
    """Re-run hypothesis and conclusion on a stored counterexample with fresh
    solver calls; True when the failure reproduces (never for an unknown
    claim id, an instance text that does not parse, or an instance not of
    its claim's kind or not of the record's n)."""
    claim = CLAIMS.get(record["claim_id"])
    if claim is None:
        return False
    try:
        instance = parse_graph_text(record["instance"])
    except (ParseError, GraphError):
        return False
    if instance.kind != claim.instance_kind or instance.n != record["n"]:
        return False
    outcome, _ = check_claim(claim, instance, budget)
    return outcome == COUNTEREXAMPLE
