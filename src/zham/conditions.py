"""Degree-threshold predicates: the hypothesis side of each sufficient
Hamiltonicity/matching condition.

Each predicate checks ONLY its hypothesis and reports every violator; whether
the advertised conclusion actually follows is the verifier's business, since
several of the restated conditions may be false as written.  All comparisons
are exact integer arithmetic — fractional bounds like n/2 are evaluated as
``2*d`` against ``n`` so odd n never touches floating point.  Statements that
require a minimum size (n > 2 for most digraph/graph forms, part size >= 2
for the bipartite forms) report ``hypothesis_holds=False`` with note
"n too small" below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import BipartiteGraph, Digraph, Graph, GraphError, format_bipartite_vertex
from .solvers import strongly_connected

CONDITION_IDS = (
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

NOT_STRONG = {"reason": "not strongly connected"}


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one hypothesis check.

    ``violating_items`` holds JSON-ready dicts describing every witness
    against the hypothesis; it is empty exactly when the hypothesis holds.
    """

    condition_id: str
    hypothesis_holds: bool
    violating_items: tuple = ()
    parameters: dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "violating_items", tuple(self.violating_items))
        if self.hypothesis_holds != (len(self.violating_items) == 0):
            raise GraphError("hypothesis_holds must match emptiness of violating_items")

    def to_dict(self):
        return {
            "condition_id": self.condition_id,
            "hypothesis_holds": self.hypothesis_holds,
            "violating_items": list(self.violating_items),
            "parameters": dict(self.parameters),
            "note": self.note,
        }


def _report(condition_id, items, parameters, note=""):
    items = tuple(items)
    return ConditionReport(condition_id, not items, items, parameters, note)


def _too_small(condition_id, n, minimum):
    return ConditionReport(
        condition_id,
        False,
        ({"reason": "n too small", "n": n, "minimum": minimum},),
        {"n": n},
        note="n too small",
    )


def dirac(g: Graph) -> ConditionReport:
    """Every vertex satisfies 2*d(u) >= n (graphs with n > 2)."""
    if g.n <= 2:
        return _too_small("dirac", g.n, 3)
    bad = [
        {"vertex": v, "degree": g.degree(v)} for v in g.vertices() if 2 * g.degree(v) < g.n
    ]
    return _report("dirac", bad, {"n": g.n})


def ghouila_houri(d: Digraph) -> ConditionReport:
    """Strongly connected and every vertex satisfies d(u) >= n (n > 2)."""
    if d.n <= 2:
        return _too_small("ghouila-houri", d.n, 3)
    bad = []
    if not strongly_connected(d):
        bad.append(NOT_STRONG)
    bad += [{"vertex": v, "degree": d.degree(v)} for v in d.vertices() if d.degree(v) < d.n]
    return _report("ghouila-houri", bad, {"n": d.n})


def faudree(g: Graph) -> ConditionReport:
    """At most k-1 vertices of degree strictly below n/2, k the minimum degree."""
    if g.n <= 2:
        return _too_small("faudree", g.n, 3)
    k = min(g.degree(v) for v in g.vertices())
    small = [v for v in g.vertices() if 2 * g.degree(v) < g.n]
    params = {"n": g.n, "k": k, "s_size": len(small)}
    if len(small) <= k - 1:
        return _report("faudree", (), params)
    bad = [{"vertex": v, "degree": g.degree(v)} for v in small]
    return _report("faudree", bad, params)


def zhu_digraph(d: Digraph) -> ConditionReport:
    """Digraph analogue of the low-degree-count test: strongly connected and
    at most k-1 vertices of total degree below n, k the minimum total degree."""
    if d.n <= 2:
        return _too_small("zhu", d.n, 3)
    k = min(d.degree(v) for v in d.vertices())
    small = [v for v in d.vertices() if d.degree(v) < d.n]
    params = {"n": d.n, "k": k, "s_size": len(small)}
    bad = []
    if not strongly_connected(d):
        bad.append(NOT_STRONG)
    if len(small) > k - 1:
        bad += [{"vertex": v, "degree": d.degree(v)} for v in small]
    return _report("zhu", bad, params)


def moon_moser_k(g: BipartiteGraph, k: int) -> ConditionReport:
    """Fewer than n vertices (both parts pooled) of degree below k, 1 < k < n."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 < k < g.n:
        raise GraphError(f"k must satisfy 1 < k < n, got k={k!r} with n={g.n}")
    small = [v for v in g.vertices() if g.degree(v) < k]
    params = {"n": g.n, "k": k, "s_size": len(small)}
    note = "low-degree set drawn from both parts"
    if len(small) < g.n:
        return _report("moon-moser-k", (), params, note)
    bad = [
        {"vertex": format_bipartite_vertex(v), "degree": g.degree(v)} for v in small
    ]
    return _report("moon-moser-k", bad, params, note)


def moon_moser_half(g: BipartiteGraph) -> ConditionReport:
    """Every vertex of both parts satisfies 2*d(u) > n (part size >= 2)."""
    if g.n < 2:
        return _too_small("moon-moser-half", g.n, 2)
    bad = [
        {"vertex": format_bipartite_vertex(v), "degree": g.degree(v)}
        for v in g.vertices()
        if 2 * g.degree(v) <= g.n
    ]
    return _report("moon-moser-half", bad, {"n": g.n})


def disjoint_hc_degree(d: Digraph) -> ConditionReport:
    """Strongly connected and 2*d+(u) > n and 2*d-(u) > n for every vertex."""
    if d.n <= 2:
        return _too_small("cor1-disjoint-hc", d.n, 3)
    bad = []
    if not strongly_connected(d):
        bad.append(NOT_STRONG)
    bad += [
        {"vertex": v, "out_degree": d.out_degree(v), "in_degree": d.in_degree(v)}
        for v in d.vertices()
        if 2 * d.out_degree(v) <= d.n or 2 * d.in_degree(v) <= d.n
    ]
    return _report("cor1-disjoint-hc", bad, {"n": d.n}, note="disjoint = arc-disjoint")


def las_vergnas(g: BipartiteGraph) -> ConditionReport:
    """Every non-adjacent cross pair satisfies d(u) + d(v) >= n + 2.

    Vacuously true for complete bipartite graphs (part size >= 2 required).
    """
    if g.n < 2:
        return _too_small("las-vergnas", g.n, 2)
    bad = _cross_pair_deficits(g, g.n + 2)
    return _report("las-vergnas", bad, {"n": g.n})


def woodall(d: Digraph) -> ConditionReport:
    """Strongly connected and d+(u) + d-(v) >= n for every ordered non-arc
    pair u != v.  Vacuously true for the complete digraph."""
    if d.n <= 2:
        return _too_small("woodall", d.n, 3)
    bad = []
    if not strongly_connected(d):
        bad.append(NOT_STRONG)
    bad += _pair_deficits(d, d.n)
    return _report("woodall", bad, {"n": d.n})


def woodall_plus2(d: Digraph) -> ConditionReport:
    """Like ``woodall`` with threshold n + 2, but with no connectivity clause
    (the strengthened statement has none)."""
    if d.n <= 2:
        return _too_small("cor2-woodall-plus2", d.n, 3)
    bad = _pair_deficits(d, d.n + 2)
    return _report(
        "cor2-woodall-plus2", bad, {"n": d.n}, note="disjoint = arc-disjoint"
    )


def _pair_deficits(d, threshold):
    """Ordered non-arc pairs u != v with d+(u) + d-(v) below ``threshold``."""
    vertices = d.vertices()
    in_degree = [0] + [d.in_degree(v) for v in vertices]
    out = []
    for u in vertices:
        du = d.out_degree(u)
        succ = d.successors(u)
        for v in vertices:
            total = du + in_degree[v]
            if total < threshold and u != v and v not in succ:
                out.append({"pair": [u, v], "degree_sum": total})
    return out


def ore_bipartite(g: BipartiteGraph, threshold: int) -> ConditionReport:
    """Every non-adjacent cross pair satisfies d(u) + d(v) >= threshold.

    ``threshold`` must be n (perfect-matching form, id cor3-ore-pm) or n + 2
    (two-disjoint-matchings form, id cor3-ore-2pm).
    """
    if threshold == g.n:
        condition_id = "cor3-ore-pm"
        note = ""
    elif threshold == g.n + 2:
        condition_id = "cor3-ore-2pm"
        note = "disjoint = edge-disjoint"
    else:
        raise GraphError(f"threshold must be n or n+2, got {threshold!r} with n={g.n}")
    if g.n < 2:
        return _too_small(condition_id, g.n, 2)
    bad = _cross_pair_deficits(g, threshold)
    return _report(condition_id, bad, {"n": g.n, "threshold": threshold}, note)


def _cross_pair_deficits(g, threshold):
    """Non-adjacent cross pairs (x_i, y_j) with d(x_i) + d(y_j) below ``threshold``."""
    parts = range(1, g.n + 1)
    y_degree = [0] + [g.degree_y(j) for j in parts]
    out = []
    for i in parts:
        di = g.degree_x(i)
        neighbors = g.neighbors_x(i)
        for j in parts:
            total = di + y_degree[j]
            if total < threshold and j not in neighbors:
                out.append({"pair": [f"x{i}", f"y{j}"], "degree_sum": total})
    return out
