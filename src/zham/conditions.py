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

A hypothesis is decided before it is explained.  Each predicate describes
its violators as one sequence in a fixed order, decides
``hypothesis_holds`` from the sequence's first item alone, and lists the
whole sequence only when ``violating_items`` is first read.  Degrees come
from ``core.degree_table``, one table per instance, memoised on it like
strong connectivity.

``build_registry`` is the one place that binds a condition id to its
instance kind and predicate; the CLI's condition tables and the verifier's
condition claims are read from it.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter

from .core import BipartiteGraph, Digraph, Graph, GraphError, degree_table
from .solvers import strongly_connected

NOT_STRONG = {"reason": "not strongly connected"}


class ConditionReport:
    """Outcome of one hypothesis check.

    ``violating_items`` holds JSON-ready dicts describing every witness
    against the hypothesis, in a fixed order; it is empty exactly when the
    hypothesis holds.  A report built by a predicate lists its violators
    only when ``violating_items`` is first read, directly or through
    ``to_dict()``, ``==`` or ``repr``: the listing re-runs the predicate's
    violator sequence from the start, so reading twice, or from two threads
    at once, gives equal tuples.  Reports are immutable: every public field
    is a read-only property.
    """

    __slots__ = ("_condition_id", "_holds", "_parameters", "_note", "_items", "_violators")

    condition_id = property(attrgetter("_condition_id"))
    hypothesis_holds = property(attrgetter("_holds"))
    parameters = property(attrgetter("_parameters"))
    note = property(attrgetter("_note"))

    def __init__(self, condition_id, hypothesis_holds, violating_items=(), parameters=None, note=""):
        items = tuple(violating_items)
        if hypothesis_holds != (len(items) == 0):
            raise GraphError("hypothesis_holds must match emptiness of violating_items")
        self._condition_id, self._holds, self._note = condition_id, hypothesis_holds, note
        self._parameters = {} if parameters is None else parameters
        self._items, self._violators = items, None

    @classmethod
    def _decide(cls, condition_id, violators, parameters, note=""):
        """The report whose hypothesis holds when ``violators()``, a fresh
        iterator over the violators in order, yields nothing."""
        holds = next(violators(), None) is None
        report = cls.__new__(cls)
        report._condition_id, report._holds, report._note = condition_id, holds, note
        report._parameters = parameters
        report._items = () if holds else None  # None: not listed yet
        report._violators = violators
        return report

    @property
    def violating_items(self):
        items = self._items
        if items is None:
            items = tuple(self._violators())
            self._items = items
        return items

    def _fields(self):
        return (
            self.condition_id,
            self.hypothesis_holds,
            self.violating_items,
            self.parameters,
            self.note,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # parameters is a dict

    def __repr__(self):
        return (
            f"ConditionReport(condition_id={self.condition_id!r}, "
            f"hypothesis_holds={self.hypothesis_holds!r}, "
            f"violating_items={self.violating_items!r}, "
            f"parameters={self.parameters!r}, note={self.note!r})"
        )

    def __reduce__(self):
        return ConditionReport, self._fields()

    def to_dict(self):
        return {
            "condition_id": self.condition_id,
            "hypothesis_holds": self.hypothesis_holds,
            "violating_items": list(self.violating_items),
            "parameters": dict(self.parameters),
            "note": self.note,
        }


def _low_vertices(labels, degrees, scale, bound):
    """Violator sequence: ``{"vertex", "degree"}`` items of the vertices with
    ``scale * degree < bound``."""
    for v, d in zip(labels, degrees):
        if scale * d < bound:
            yield {"vertex": v, "degree": d}


def _no_violators():
    return iter(())


def _strong_then(strong, violators):
    """Violator sequence: ``NOT_STRONG`` unless ``strong``, then ``violators()``."""

    def chained():
        if not strong:
            yield NOT_STRONG
        yield from violators()

    return chained


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
    n = g.n
    if n <= 2:
        return _too_small("dirac", n, 3)
    labels, degrees = degree_table(g)
    return ConditionReport._decide("dirac", partial(_low_vertices, labels, degrees, 2, n), {"n": n})


def ghouila_houri(d: Digraph) -> ConditionReport:
    """Strongly connected and every vertex satisfies d(u) >= n (n > 2)."""
    n = d.n
    if n <= 2:
        return _too_small("ghouila-houri", n, 3)
    labels, degrees, _, _ = degree_table(d)
    violators = _strong_then(strongly_connected(d), partial(_low_vertices, labels, degrees, 1, n))
    return ConditionReport._decide("ghouila-houri", violators, {"n": n})


def faudree(g: Graph) -> ConditionReport:
    """At most k-1 vertices of degree strictly below n/2, k the minimum degree."""
    n = g.n
    if n <= 2:
        return _too_small("faudree", n, 3)
    labels, degrees = degree_table(g)
    k = min(degrees)
    s_size = len([d for d in degrees if 2 * d < n])
    violators = _no_violators
    if s_size > k - 1:
        violators = partial(_low_vertices, labels, degrees, 2, n)
    return ConditionReport._decide("faudree", violators, {"n": n, "k": k, "s_size": s_size})


def zhu_digraph(d: Digraph) -> ConditionReport:
    """Digraph analogue of the low-degree-count test: strongly connected and
    at most k-1 vertices of total degree below n, k the minimum total degree."""
    n = d.n
    if n <= 2:
        return _too_small("zhu", n, 3)
    labels, degrees, _, _ = degree_table(d)
    k = min(degrees)
    s_size = len([t for t in degrees if t < n])
    small = _no_violators
    if s_size > k - 1:
        small = partial(_low_vertices, labels, degrees, 1, n)
    violators = _strong_then(strongly_connected(d), small)
    return ConditionReport._decide("zhu", violators, {"n": n, "k": k, "s_size": s_size})


def moon_moser_k(g: BipartiteGraph, k: int) -> ConditionReport:
    """Fewer than n vertices (both parts pooled) of degree below k, 1 < k < n."""
    n = g.n
    if not isinstance(k, int) or isinstance(k, bool) or not 1 < k < n:
        raise GraphError(f"k must satisfy 1 < k < n, got k={k!r} with n={n}")
    labels, degrees = degree_table(g)
    s_size = len([d for d in degrees if d < k])
    violators = _no_violators
    if s_size >= n:
        violators = partial(_low_vertices, labels, degrees, 1, k)
    return ConditionReport._decide(
        "moon-moser-k",
        violators,
        {"n": n, "k": k, "s_size": s_size},
        "low-degree set drawn from both parts",
    )


def moon_moser_half(g: BipartiteGraph) -> ConditionReport:
    """Every vertex of both parts satisfies 2*d(u) > n (part size >= 2)."""
    n = g.n
    if n < 2:
        return _too_small("moon-moser-half", n, 2)
    labels, degrees = degree_table(g)
    violators = partial(_low_vertices, labels, degrees, 2, n + 1)
    return ConditionReport._decide("moon-moser-half", violators, {"n": n})


def disjoint_hc_degree(d: Digraph) -> ConditionReport:
    """Strongly connected and 2*d+(u) > n and 2*d-(u) > n for every vertex."""
    n = d.n
    if n <= 2:
        return _too_small("cor1-disjoint-hc", n, 3)
    labels, _, outs, ins = degree_table(d)

    def low_vertices():
        for v, out, in_ in zip(labels, outs, ins):
            if 2 * out <= n or 2 * in_ <= n:
                yield {"vertex": v, "out_degree": out, "in_degree": in_}

    return ConditionReport._decide(
        "cor1-disjoint-hc",
        _strong_then(strongly_connected(d), low_vertices),
        {"n": n},
        note="disjoint = arc-disjoint",
    )


def las_vergnas(g: BipartiteGraph) -> ConditionReport:
    """Every non-adjacent cross pair satisfies d(u) + d(v) >= n + 2.

    Vacuously true for complete bipartite graphs (part size >= 2 required).
    """
    if g.n < 2:
        return _too_small("las-vergnas", g.n, 2)
    return ConditionReport._decide(
        "las-vergnas", _cross_pair_deficits(g, g.n + 2), {"n": g.n}
    )


def woodall(d: Digraph) -> ConditionReport:
    """Strongly connected and d+(u) + d-(v) >= n for every ordered non-arc
    pair u != v.  Vacuously true for the complete digraph."""
    if d.n <= 2:
        return _too_small("woodall", d.n, 3)
    violators = _strong_then(strongly_connected(d), _pair_deficits(d, d.n))
    return ConditionReport._decide("woodall", violators, {"n": d.n})


def woodall_plus2(d: Digraph) -> ConditionReport:
    """Like ``woodall`` with threshold n + 2, but with no connectivity clause
    (the strengthened statement has none)."""
    if d.n <= 2:
        return _too_small("cor2-woodall-plus2", d.n, 3)
    return ConditionReport._decide(
        "cor2-woodall-plus2",
        _pair_deficits(d, d.n + 2),
        {"n": d.n},
        note="disjoint = arc-disjoint",
    )


def _pair_deficits(d, threshold):
    """Violator sequence: ordered non-arc pairs u != v with d+(u) + d-(v)
    below ``threshold``."""
    vertices, _, outs, ins = degree_table(d)

    def violators():
        for u, out in zip(vertices, outs):
            successors = d.successors(u)
            for v, in_ in zip(vertices, ins):
                total = out + in_
                if total < threshold and u != v and v not in successors:
                    yield {"pair": [u, v], "degree_sum": total}

    return violators


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
    return ConditionReport._decide(
        condition_id,
        _cross_pair_deficits(g, threshold),
        {"n": g.n, "threshold": threshold},
        note,
    )


def _cross_pair_deficits(g, threshold):
    """Violator sequence: non-adjacent cross pairs (x_i, y_j) with
    d(x_i) + d(y_j) below ``threshold``."""
    n = g.n
    labels, degrees = degree_table(g)

    def violators():
        for i, x_degree in enumerate(degrees[:n], 1):
            neighbors = g.neighbors_x(i)
            for j, y_degree in enumerate(degrees[n:], 1):
                total = x_degree + y_degree
                if total < threshold and j not in neighbors:
                    yield {"pair": [labels[i - 1], labels[n + j - 1]], "degree_sum": total}

    return violators


def build_registry() -> dict:
    """The condition registry: condition id -> (instance kind, predicate),
    in ``CONDITION_IDS`` order.  The kinds are "digraph", "bipartite" and
    "graph"; each predicate takes one instance, except ``moon_moser_k``,
    which also takes k.

    The predicates are looked up by their names in this module when the
    registry is built (the two ore thresholds when they run), so a rebuilt
    registry picks up any predicate rebound since import.
    """
    return {
        "dirac": ("graph", dirac),
        "ghouila-houri": ("digraph", ghouila_houri),
        "faudree": ("graph", faudree),
        "zhu": ("digraph", zhu_digraph),
        "moon-moser-k": ("bipartite", moon_moser_k),
        "moon-moser-half": ("bipartite", moon_moser_half),
        "cor1-disjoint-hc": ("digraph", disjoint_hc_degree),
        "las-vergnas": ("bipartite", las_vergnas),
        "woodall": ("digraph", woodall),
        "cor2-woodall-plus2": ("digraph", woodall_plus2),
        "cor3-ore-pm": ("bipartite", lambda g: ore_bipartite(g, g.n)),
        "cor3-ore-2pm": ("bipartite", lambda g: ore_bipartite(g, g.n + 2)),
    }


CONDITION_IDS = tuple(build_registry())
