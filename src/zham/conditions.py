"""Degree-threshold predicates: the hypothesis side of each sufficient
Hamiltonicity/matching condition.

Each predicate checks ONLY its hypothesis and reports every violator; whether
the advertised conclusion actually follows is the verifier's business, since
several of the restated conditions may be false as written.  All comparisons
are exact integer arithmetic — fractional bounds like n/2 are evaluated as
``2*d`` against ``n`` so odd n never touches floating point.  Statements that
require a minimum size (n > 2 for most digraph/graph forms, part size >= 2
for the bipartite forms) report ``hypothesis_holds=False`` with note
"n too small" below it.  Each condition's id, minimum size, note and
strong-connectivity clause are stated once, in the ``_condition``
declaration above its predicate; the one gate there gives the "n too
small" report and decides every other report, with the note, from the
violators and parameters the predicate's body returns.  The two predicates
that take an extra argument, ``moon_moser_k`` and ``ore_bipartite``, check
it before they pass the gate.

A hypothesis is decided before it is explained.  Each predicate describes
its violators as one sequence in a fixed order and lists the whole
sequence only when ``violating_items`` is first read.  A single-bound
hypothesis is decided by one comparison: the minimum degree against the
bound, or the low-degree count against its allowance.  A pair-deficit
hypothesis is decided from its sequence's first item alone, and the five
pair-deficit conditions share one scan, ``_pair_deficits``: a digraph's
out-degrees against its in-degrees over its arcs, the diagonal u = v
skipped, or a bipartite graph's x degrees against its y degrees over its
edges, the diagonal (x_u, y_u) kept.  Under the Z-mapping a digraph's
ordered non-arc pair (u, v), u != v, is its image's cross non-edge
(x_u, y_v), with the same degree sum, so the two differ only on that
diagonal.  Degrees come
from each instance's ``degree_table``, filled by its constructor beside its
adjacency index.

``build_registry`` is the one place that binds a condition id to its
instance kind and predicate; the CLI's condition tables and the verifier's
condition claims are read from it.
"""

from __future__ import annotations

from functools import partial, wraps
from operator import attrgetter

from .core import BipartiteGraph, Digraph, Graph, GraphError, is_int
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
    def _decide(cls, condition_id, holds, violators, parameters, note=""):
        """The report on the violators ``violators()``, a fresh iterator over
        them in order, whose hypothesis ``holds`` exactly when that iterator
        would yield nothing."""
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


def _condition(condition_id, minimum, note="", strong=False):
    """Declare the decorated body as the predicate of ``condition_id``.

    The one size gate: an instance with ``n`` below ``minimum`` (vertices,
    or part size for a bipartite graph) gets the "n too small" report.  Any
    other gets the report from ``body(instance, *extra)``, which returns the
    decision, the violator sequence and the parameters, with ``note``.
    When ``strong``, ``NOT_STRONG`` leads the violators of a digraph that is
    not strongly connected, whose hypothesis then fails.  The predicate
    keeps the body's name, signature and docstring, and takes its arguments
    by position.
    """

    def declare(body):
        @wraps(body)
        def predicate(*args):  # the instance, then any extra argument
            n = args[0].n
            if n < minimum:
                return ConditionReport(
                    condition_id,
                    False,
                    ({"reason": "n too small", "n": n, "minimum": minimum},),
                    {"n": n},
                    note="n too small",
                )
            # body(*args) passes the tuple on as it is; body(instance, *args)
            # would build a second one on every call
            holds, violators, parameters = body(*args)
            if strong and not strongly_connected(args[0]):
                holds, violators = False, partial(_not_strong_then, violators)
            return ConditionReport._decide(condition_id, holds, violators, parameters, note)

        return predicate

    return declare


def _not_strong_then(violators):
    """Violator sequence: ``NOT_STRONG``, then ``violators()``."""
    yield NOT_STRONG
    yield from violators()


def _low_vertices(labels, degrees, scale, bound):
    """Violator sequence: ``{"vertex", "degree"}`` items of the vertices with
    ``scale * degree < bound``."""
    for v, d in zip(labels, degrees):
        if scale * d < bound:
            yield {"vertex": v, "degree": d}


def _min_degree(labels, degrees, scale, bound, parameters):
    """The minimum-degree test: every vertex has ``scale * degree >=
    bound``.  Returns its decision, on the minimum degree alone, the
    violator sequence and ``parameters``."""
    violators = partial(_low_vertices, labels, degrees, scale, bound)
    return scale * min(degrees) >= bound, violators, parameters


def _low_count(labels, degrees, scale, bound, allowance, parameters):
    """The low-degree count test: the vertices with ``scale * degree <
    bound`` violate it, every one of them, when there are more than
    ``allowance``.  Returns its decision, their violator sequence (empty
    within the allowance) and ``parameters`` with their count added as
    ``s_size``."""
    s_size = len([d for d in degrees if scale * d < bound])
    parameters["s_size"] = s_size
    if s_size <= allowance:
        return True, partial(iter, ()), parameters
    return False, partial(_low_vertices, labels, degrees, scale, bound), parameters


@_condition("dirac", 3)
def dirac(g: Graph) -> ConditionReport:
    """Every vertex satisfies 2*d(u) >= n (graphs with n > 2)."""
    labels, degrees = g.degree_table
    return _min_degree(labels, degrees, 2, g.n, {"n": g.n})


@_condition("ghouila-houri", 3, strong=True)
def ghouila_houri(d: Digraph) -> ConditionReport:
    """Strongly connected and every vertex satisfies d(u) >= n (n > 2)."""
    labels, degrees, _, _ = d.degree_table
    return _min_degree(labels, degrees, 1, d.n, {"n": d.n})


@_condition("faudree", 3)
def faudree(g: Graph) -> ConditionReport:
    """At most k-1 vertices of degree strictly below n/2, k the minimum degree."""
    labels, degrees = g.degree_table
    k = min(degrees)
    return _low_count(labels, degrees, 2, g.n, k - 1, {"n": g.n, "k": k})


@_condition("zhu", 3, strong=True)
def zhu_digraph(d: Digraph) -> ConditionReport:
    """Digraph analogue of the low-degree-count test: strongly connected and
    at most k-1 vertices of total degree below n, k the minimum total degree."""
    labels, degrees, _, _ = d.degree_table
    k = min(degrees)
    return _low_count(labels, degrees, 1, d.n, k - 1, {"n": d.n, "k": k})


def moon_moser_k(g: BipartiteGraph, k: int) -> ConditionReport:
    """Fewer than n vertices (both parts pooled) of degree below k, 1 < k < n."""
    if not is_int(k) or not 1 < k < g.n:
        raise GraphError(f"k must satisfy 1 < k < n, got k={k!r} with n={g.n}")
    return _moon_moser_k(g, k)


# reached only when 1 < k < n, so never below the minimum
@_condition("moon-moser-k", 3, "low-degree set drawn from both parts")
def _moon_moser_k(g, k):
    labels, degrees = g.degree_table
    return _low_count(labels, degrees, 1, k, g.n - 1, {"n": g.n, "k": k})


@_condition("moon-moser-half", 2)
def moon_moser_half(g: BipartiteGraph) -> ConditionReport:
    """Every vertex of both parts satisfies 2*d(u) > n (part size >= 2)."""
    labels, degrees = g.degree_table
    return _min_degree(labels, degrees, 2, g.n + 1, {"n": g.n})


@_condition("cor1-disjoint-hc", 3, "disjoint = arc-disjoint", strong=True)
def disjoint_hc_degree(d: Digraph) -> ConditionReport:
    """Strongly connected and 2*d+(u) > n and 2*d-(u) > n for every vertex."""
    n = d.n
    labels, _, outs, ins = d.degree_table

    def low_vertices():
        for v, out, in_ in zip(labels, outs, ins):
            if 2 * out <= n or 2 * in_ <= n:
                yield {"vertex": v, "out_degree": out, "in_degree": in_}

    return 2 * min(outs) > n and 2 * min(ins) > n, low_vertices, {"n": n}


@_condition("las-vergnas", 2)
def las_vergnas(g: BipartiteGraph) -> ConditionReport:
    """Every non-adjacent cross pair satisfies d(u) + d(v) >= n + 2.

    Vacuously true for complete bipartite graphs (part size >= 2 required).
    """
    return (*_cross_pair_deficits(g, g.n + 2), {"n": g.n})


@_condition("woodall", 3, strong=True)
def woodall(d: Digraph) -> ConditionReport:
    """Strongly connected and d+(u) + d-(v) >= n for every ordered non-arc
    pair u != v.  Vacuously true for the complete digraph."""
    return (*_arc_pair_deficits(d, d.n), {"n": d.n})


@_condition("cor2-woodall-plus2", 3, "disjoint = arc-disjoint")
def woodall_plus2(d: Digraph) -> ConditionReport:
    """Like ``woodall`` with threshold n + 2, but with no connectivity clause
    (the strengthened statement has none)."""
    return (*_arc_pair_deficits(d, d.n + 2), {"n": d.n})


def ore_bipartite(g: BipartiteGraph, threshold: int) -> ConditionReport:
    """Every non-adjacent cross pair satisfies d(u) + d(v) >= threshold.

    ``threshold`` must be n (perfect-matching form, id cor3-ore-pm) or n + 2
    (two-disjoint-matchings form, id cor3-ore-2pm).
    """
    if not is_int(threshold) or threshold not in (g.n, g.n + 2):
        raise GraphError(f"threshold must be n or n+2, got {threshold!r} with n={g.n}")
    return (_ore_pm if threshold == g.n else _ore_2pm)(g, threshold)


def _ore(g, threshold):
    return (*_cross_pair_deficits(g, threshold), {"n": g.n, "threshold": threshold})


_ore_pm = _condition("cor3-ore-pm", 2)(_ore)
_ore_2pm = _condition("cor3-ore-2pm", 2, "disjoint = edge-disjoint")(_ore)


def _arc_pair_deficits(d, threshold):
    """``_pair_deficits`` of the ordered vertex pairs (u, v): out-degrees
    against in-degrees, over the arcs, the diagonal u = v skipped."""
    vertices, _, outs, ins = d.degree_table
    labels = tuple(vertices)  # the scan reads a label by index, slow on a range
    return _pair_deficits(labels, outs, labels, ins, d.arcs, threshold, True)


def _cross_pair_deficits(g, threshold):
    """``_pair_deficits`` of the cross pairs (x_i, y_j): the x half of the
    degree table against its y half, over the edges, diagonal kept."""
    n, (labels, degrees) = g.n, g.degree_table
    return _pair_deficits(labels[:n], degrees[:n], labels[n:], degrees[n:], g.edges, threshold)


def _pair_deficits(
    row_labels, row_degrees, column_labels, column_degrees, pairs, threshold, skip_diagonal=False
):
    """The one pair-deficit test.  The pair of the i-th row and the j-th
    column, counting from 1, is ``(i, j)`` in ``pairs`` and their two labels
    in a violator.  Its violators are the pairs not in ``pairs`` (nor on the
    diagonal i == j, when ``skip_diagonal``) whose degree sum is below
    ``threshold``, row by row.  Returns the decision, from the first
    violator alone, and the violator sequence."""

    def violators():
        for i, row_degree in enumerate(row_degrees, 1):
            for j, column_degree in enumerate(column_degrees, 1):
                total = row_degree + column_degree
                if total < threshold and (i, j) not in pairs and (i != j or not skip_diagonal):
                    yield {"pair": [row_labels[i - 1], column_labels[j - 1]], "degree_sum": total}

    return next(violators(), None) is None, violators


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
