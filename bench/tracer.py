"""Spans around zham's layers, recorded from outside the program.

``Tracer.installed()`` wraps each public function at every module attribute
that a caller looks it up from (``zham.verifier.find_hamiltonian_cycle``,
``zham.conditions.strongly_connected``, ...), plus the value types'
``__post_init__``, the store's ``append`` and the tables that captured
functions at import time.  The claim registry is rebuilt after wrapping
because it captures the predicates when it is built.  Every attribute is
restored when the block ends.

Each call records a span.  Spans are aggregated in memory by (name, parent);
a span's self time is its duration minus that of its child spans.
``zham.incidence`` is not wrapped: only ``zmapping.f_matrix`` calls it, and no
workload reaches it.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from zham import cli, conditions, core, fileio, solvers, verifier, zmapping

CONDITIONS = (
    "dirac", "ghouila_houri", "faudree", "zhu_digraph", "moon_moser_k",
    "moon_moser_half", "disjoint_hc_degree", "las_vergnas", "woodall",
    "woodall_plus2", "ore_bipartite",
)
SOLVERS = (
    "strongly_connected", "find_hamiltonian_cycle", "find_hamiltonian_cycle_bipartite",
    "find_hamiltonian_cycle_undirected", "max_matching",
    "find_two_disjoint_hamiltonian_cycles", "find_two_disjoint_perfect_matchings",
    "enumerate_perfect_matchings", "extends_to_hamiltonian",
)
# the solvers whose results carry nodes_explored
NODE_SOLVERS = (
    "find_hamiltonian_cycle", "find_hamiltonian_cycle_bipartite",
    "find_hamiltonian_cycle_undirected", "find_two_disjoint_hamiltonian_cycles",
    "find_two_disjoint_perfect_matchings",
)
GENERATORS = ("enumerate_perfect_matchings",)

# (defining module, function, span name)
FUNCTIONS = (
    [(conditions, f, f"conditions.{f}") for f in CONDITIONS]
    + [(solvers, f, f"solvers.{f}") for f in SOLVERS]
    + [
        (zmapping, "zmap", "zmapping.zmap"),
        (zmapping, "ham_cycle_pullback", "zmapping.ham_cycle_pullback"),
        (fileio, "parse_graph_file", "fileio.parse_graph_file"),
        (fileio, "serialize_graph", "fileio.serialize_graph"),
        (verifier, "digraph_from_mask", "verifier.decode"),
        (verifier, "bipartite_from_mask", "verifier.decode"),
        (verifier, "graph_from_mask", "verifier.decode"),
        (verifier, "check_claim", "verifier.check_claim"),
        (verifier, "build_report", "verifier.report"),
        (verifier, "report_json", "verifier.report"),
        (cli, "main", "cli.main"),
    ]
)
CALLERS = (cli, conditions, fileio, solvers, verifier, zmapping)
VALUE_TYPES = (core.Digraph, core.Graph, core.BipartiteGraph, core.Matching)
CLI_TABLES = ("_DIGRAPH_CONDITIONS", "_BIPARTITE_CONDITIONS", "_GRAPH_CONDITIONS")

# span names whose calls and self time are reported
TIMED_LAYERS = (
    ["core.validate", "verifier.decode", "verifier.check_claim", "fileio.serialize_graph"]
    + [f"conditions.{f}" for f in CONDITIONS]
    + [f"solvers.{f}" for f in SOLVERS]
    + ["zmapping.zmap", "zmapping.ham_cycle_pullback", "fileio.parse_graph_file", "cli.main"]
)


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "verifier.hit_ratio": "ratio",
        "verifier.report.self_s": "s",
        "verifier.report.bytes": "bytes",
        "verifier.store.self_s": "s",
        "verifier.store.bytes": "bytes",
        "solvers.nodes": "count",
        "solvers.nodes_per_s": "1/s",
        "solvers.duplicate_solve_ratio": "ratio",
        "layers_self_s": "s",
        "traced_wall_s": "s",
        "trace_overhead_ratio": "ratio",
    })
    return units


class Tracer:
    def __init__(self):
        self.spans = {}  # (name, parent name) -> [calls, total_s, self_s]
        self._stack = []  # open spans: [name, start, child time]
        self._patches = []  # (owner, attribute, original)
        self.checks = self.hits = 0
        self.nodes = 0
        self.solver_calls = self.duplicate_solves = 0
        self.report_bytes = self.store_bytes = 0
        self._solved = set()  # (solver, *args) already solved for the current instance
        self._instance = None

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self, counted=True):
        name, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += elapsed
        key = (name, parent[0] if parent is not None else None)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += counted
        agg[1] += elapsed
        agg[2] += elapsed - child

    # -- per-layer counters -------------------------------------------------

    def _new_instance(self, instance):
        if instance is not self._instance:
            self._instance = instance
            self._solved.clear()

    def _solve(self, name, args):
        self.solver_calls += 1
        key = (name,) + args
        if key in self._solved:
            self.duplicate_solves += 1
        else:
            self._solved.add(key)

    def _count_check(self, result):
        self.checks += 1
        self.hits += result[0] != verifier.HYPOTHESIS_MISS

    def _count_nodes(self, result):
        self.nodes += result.nodes_explored

    def _count_report(self, text):
        self.report_bytes += len(text.encode())

    def _hooks(self, fname):
        """What to record before a call (from its arguments) and after it
        (from its result), decided once per wrapped function."""
        before = after = None
        if fname in SOLVERS:
            before = lambda args: self._solve(fname, args)  # noqa: E731
        elif fname == "check_claim":
            before = lambda args: self._new_instance(args[1])  # noqa: E731
        elif fname == "main":
            before = lambda args: self._new_instance(None)  # noqa: E731
        if fname in NODE_SOLVERS:
            after = self._count_nodes
        elif fname == "check_claim":
            after = self._count_check
        elif fname == "report_json":
            after = self._count_report
        return before, after

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, span, fn):
        before, after = self._hooks(fn.__name__)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_generator(self, span, fn):
        """Time each resumption of the generator; count one call per generator."""
        before, _ = self._hooks(fn.__name__)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            inner = fn(*args, **kwargs)

            def resume():
                first = True
                while True:
                    self._enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(counted=first)
                        first = False
                    yield item

            return resume()

        return traced

    def _wrap_append(self, append):
        def traced(store, *args, **kwargs):
            before = store.path.stat().st_size if store.path.exists() else 0
            self._enter("verifier.store")
            try:
                result = append(store, *args, **kwargs)
            finally:
                self._exit()
            self.store_bytes += store.path.stat().st_size - before
            return result

        return traced

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    @contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        try:
            wrapped = {}
            for module, fname, span in FUNCTIONS:
                original = getattr(module, fname)
                wrap = self._wrap_generator if fname in GENERATORS else self._wrap
                wrapped[original] = wrap(span, original)
                for caller in CALLERS:
                    if vars(caller).get(fname) is original:
                        self._patch(caller, fname, wrapped[original])
            for cls in VALUE_TYPES:
                self._patch(cls, "__post_init__", self._wrap("core.validate", cls.__post_init__))
            store_cls = verifier.CounterexampleStore
            self._patch(store_cls, "append", self._wrap_append(store_cls.append))
            self._patch(verifier, "_KIND_UNIVERSE", {
                kind: (universe, wrapped[from_mask])
                for kind, (universe, from_mask) in verifier._KIND_UNIVERSE.items()
            })
            for table in CLI_TABLES:
                self._patch(cli, table, {
                    cid: wrapped.get(fn, fn) for cid, fn in getattr(cli, table).items()
                })
            self._patch(verifier, "CLAIMS", verifier.build_claims())
            yield self
        finally:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                setattr(owner, attribute, original)

    # -- results ------------------------------------------------------------

    def span_records(self):
        return [
            {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
            for (name, parent), (calls, total, own) in sorted(
                self.spans.items(), key=lambda item: (item[0][0], str(item[0][1]))
            )
        ]

    def metrics(self, traced_wall_s, untraced_wall_s):
        """Per-layer metrics, name -> (value, unit)."""
        calls, own = {}, {}
        for (name, _), (n, _, self_s) in self.spans.items():
            calls[name] = calls.get(name, 0) + n
            own[name] = own.get(name, 0.0) + self_s
        values = {}
        for layer in TIMED_LAYERS:
            values[f"{layer}.calls"] = calls.get(layer, 0)
            values[f"{layer}.self_s"] = own.get(layer, 0.0)
        search_s = sum(own.get(f"solvers.{f}", 0.0) for f in NODE_SOLVERS)
        values.update({
            "verifier.hit_ratio": self.hits / self.checks if self.checks else 0.0,
            "verifier.report.self_s": own.get("verifier.report", 0.0),
            "verifier.report.bytes": self.report_bytes,
            "verifier.store.self_s": own.get("verifier.store", 0.0),
            "verifier.store.bytes": self.store_bytes,
            "solvers.nodes": self.nodes,
            "solvers.nodes_per_s": self.nodes / search_s if search_s else 0.0,
            "solvers.duplicate_solve_ratio": (
                self.duplicate_solves / self.solver_calls if self.solver_calls else 0.0
            ),
            "layers_self_s": sum(own.values()),
            "traced_wall_s": traced_wall_s,
            "trace_overhead_ratio": traced_wall_s / untraced_wall_s,
        })
        units = metric_units()
        return {name: (values[name], unit) for name, unit in units.items()}
