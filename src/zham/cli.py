"""Command-line front end.

Subcommands: zmap, unzmap, ham, bipham, gham, match, pm2, conditions,
pullback, pushforward, verify.  Machine output is JSON with sorted keys,
written by ``verifier.dumps_indented``; exit codes carry the pass/fail
semantics:

    0  decided (regardless of the boolean outcome)
    2  parse error (a file that is not UTF-8 included) or bad flags
    3  validation error (a header size above ``fileio.MAX_HEADER_N`` included)
    4  search budget exhausted
    5  an established claim produced a counterexample (verify only)
    6  store or output I/O failure

The ``ZHAM_BUDGET`` environment variable overrides the default node budget
wherever ``--budget`` is not given; a budget below 0 from either is a parse
error.  ``python -m zham`` and ``python -m zham.cli`` run the same command
line as ``zham``.

``main`` builds the argparse parser on its first call and reuses it for every
later call in the process, so an in-process caller pays for argparse once, not
per request.  The parser therefore binds no solver or transform: a
subcommand's handler names its function, and the request looks that name up in
this module when it runs, so a function rebound here after the first call (a
test's stand-in, the benchmark tracer's wrapper) is the one the request uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from pathlib import Path

# build_parser names the solvers and transforms imported here by string; each
# request looks its function up in this module when it runs
from .conditions import CONDITION_IDS, build_registry
from .core import KINDS, GraphError, pairs_json, witness_json
from .fileio import ParseError, parse_graph_file, serialize_graph, to_dot
from .solvers import (
    find_hamiltonian_cycle,
    find_hamiltonian_cycle_bipartite,
    find_hamiltonian_cycle_undirected,
    find_two_disjoint_perfect_matchings,
    max_matching,
)
from .verifier import (
    CLAIMS,
    StoreError,
    align_columns,
    build_report,
    disjoint_pair_json,
    dumps_indented,
    established_failures,
    pullback_halves,
    render_table,
    report_json,
    run_suite,
)
from .zmapping import matching_pushforward, unzmap, zmap

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_ESTABLISHED = 5
EXIT_STORE = 6


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit_json(payload):
    print(dumps_indented(payload))


def _resolve_budget(flag_value):
    """The node budget: ``--budget``, else ``ZHAM_BUDGET``, else None (the
    solvers' default); either given below 0 is a ``ParseError``."""
    source, budget = "--budget", flag_value
    if budget is None and "ZHAM_BUDGET" in os.environ:
        source, env = "ZHAM_BUDGET", os.environ["ZHAM_BUDGET"]
        try:
            budget = int(env)
        except ValueError:
            raise ParseError(f"ZHAM_BUDGET must be an integer, got {env!r}") from None
    if budget is not None and budget < 0:
        raise ParseError(f"{source} must be at least 0, got {budget}")
    return budget


def _load(path, kind):
    """The graph in ``path``, which must be of the ``core.KINDS`` kind ``kind``."""
    obj = parse_graph_file(path)
    if obj.kind != kind:
        raise GraphError(f"{path}: expected {KINDS[kind].label} input")
    return obj


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _cmd_transform(kind, transform, args):
    """Load one ``kind`` of graph and write its image under the transform this
    module binds to the name ``transform``."""
    image = globals()[transform](_load(args.input, kind))
    _write_text(args.output, serialize_graph(image))
    if args.dot:
        _write_text(args.dot, to_dot(image))
    return EXIT_OK


def _cmd_cycle(kind, solver, args, extend=None):
    """Load one ``kind`` of graph and search it with the solver this module
    binds to the name ``solver``; a found cycle's payload gains the fields
    that the function named ``extend`` returns for (graph, witness)."""
    obj = _load(args.input, kind)
    result = globals()[solver](obj, _resolve_budget(args.budget))
    extra = globals()[extend](obj, result.witness) if extend and result.found else {}
    _emit_json(
        {
            "found": result.found,
            "cycle": witness_json(result.witness),
            "nodes_explored": result.nodes_explored,
            "exhausted": result.exhausted,
            **extra,
        }
    )
    return EXIT_BUDGET if result.exhausted else EXIT_OK


def _cmd_match(args):
    g = _load(args.input, "bipartite")
    matching = max_matching(g)
    _emit_json(
        {
            "size": len(matching),
            "pairs": pairs_json(matching.pairs),
            "perfect": matching.is_perfect(g),
        }
    )
    return EXIT_OK


def _cmd_pm2(args):
    g = _load(args.input, "bipartite")
    result = find_two_disjoint_perfect_matchings(g, _resolve_budget(args.budget))
    _emit_json({**disjoint_pair_json(result), "exhausted": result.exhausted})
    return EXIT_BUDGET if result.exhausted else EXIT_OK


def _registry_table(kind):
    """The registry's conditions on ``kind`` input, moon-moser-k aside (it
    also takes k), in registry order."""
    return {
        cid: predicate
        for cid, (of_kind, predicate) in build_registry().items()
        if of_kind == kind and cid != "moon-moser-k"
    }


_DIGRAPH_CONDITIONS = _registry_table("digraph")
_BIPARTITE_CONDITIONS = _registry_table("bipartite")
_GRAPH_CONDITIONS = _registry_table("graph")


def _conditions_for(obj, condition_id, k):
    # the tables are read here, when a request runs, so a rebound table is seen
    table = {
        "digraph": _DIGRAPH_CONDITIONS,
        "bipartite": _BIPARTITE_CONDITIONS,
        "graph": _GRAPH_CONDITIONS,
    }[obj.kind]
    mmk_kind, moon_moser_k = build_registry()["moon-moser-k"]
    has_mmk = obj.kind == mmk_kind

    if condition_id not in table and condition_id not in (None, "moon-moser-k"):
        raise GraphError(
            f"condition {condition_id!r} does not apply to this input kind"
        )
    if condition_id == "moon-moser-k" and not has_mmk:
        raise GraphError("moon-moser-k applies to bipartite input only")
    if k is not None and (condition_id in table or not has_mmk):
        raise GraphError(
            "--k is read by moon-moser-k only; this request runs no moon-moser-k report"
        )
    if condition_id in table:
        return [table[condition_id](obj)]
    reports = [fn(obj) for fn in table.values()] if condition_id is None else []
    if has_mmk:
        ks = range(2, obj.n) if k is None else (k,)
        reports += [moon_moser_k(obj, kk) for kk in ks]
        if condition_id is not None and not reports:
            raise GraphError(f"no admissible k for part size {obj.n} (need 1 < k < n)")
    return reports


def _cmd_conditions(args):
    obj = parse_graph_file(args.input)
    reports = _conditions_for(obj, args.id, args.k)
    if args.format == "json":
        _emit_json({"reports": [r.to_dict() for r in reports]})
    else:
        rows = [("condition", "holds", "violations", "note")]
        for r in reports:
            rows.append(
                (r.condition_id, str(r.hypothesis_holds), str(len(r.violating_items)), r.note)
            )
        sys.stdout.write(align_columns(rows))
    return EXIT_OK


def _pushforward_matching(d, witness):
    matching = matching_pushforward(d, witness)
    return {
        "matching": pairs_json(matching.pairs),
        "perfect": matching.is_perfect(zmap(d)),
    }


def _cmd_verify(args):
    if args.claims in (None, "", "all"):
        claim_ids = None
    else:
        claim_ids = [c.strip() for c in args.claims.split(",") if c.strip()]
        unknown = [c for c in claim_ids if c not in CLAIMS]
        if unknown or not claim_ids:
            named = f"unknown claim id(s) {', '.join(unknown)}" if unknown else (
                f"--claims {args.claims!r} names no claim id"
            )
            return _fail(f"{named}; known: {', '.join(CLAIMS)}", EXIT_PARSE)
    if args.n_min < 1 or args.n_max < args.n_min:
        return _fail("need 1 <= --n-min <= --n-max", EXIT_PARSE)
    if args.mode == "random" and args.samples < 1:
        return _fail("--samples must be positive in random mode", EXIT_PARSE)
    budget = _resolve_budget(args.budget)
    n_values = range(args.n_min, args.n_max + 1)

    verdicts = run_suite(
        claim_ids,
        n_values,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        store_path=args.store,
        budget=budget,
    )
    report = build_report(
        verdicts,
        mode=args.mode,
        seed=args.seed,
        samples=args.samples,
        n_values=n_values,
        budget=budget,
    )
    text = report_json(report) if args.report or args.format == "json" else None
    if args.report:
        _write_text(args.report, text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        sys.stdout.write(render_table(verdicts))
    if established_failures(verdicts):
        return EXIT_ESTABLISHED
    return EXIT_OK


def _add_io(sub, output=False, dot=False, budget=False):
    sub.add_argument("input", help="edge-list file (D/B/G header)")
    if output:
        sub.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    if dot:
        sub.add_argument("--dot", default=None, help="also write a DOT rendering here")
    if budget:
        sub.add_argument("--budget", type=int, default=None, help="search node budget")


def build_parser():
    """The ``zham`` parser; each subcommand's ``func`` names, and does not
    hold, the solver or transform it runs (see the module docstring)."""
    parser = argparse.ArgumentParser(
        prog="zham",
        description="Vertex-split transform between digraphs and balanced bipartite "
        "graphs, with exact Hamiltonicity/matching solvers and a claim verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, kind, transform in (
        ("zmap", "digraph file -> bipartite image file", "digraph", "zmap"),
        ("unzmap", "bipartite file -> digraph preimage file", "bipartite", "unzmap"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_io(p, output=True, dot=True)
        p.set_defaults(func=partial(_cmd_transform, kind, transform))

    for name, what, kind, solver in (
        ("ham", "directed", "digraph", "find_hamiltonian_cycle"),
        ("bipham", "bipartite", "bipartite", "find_hamiltonian_cycle_bipartite"),
        ("gham", "undirected", "graph", "find_hamiltonian_cycle_undirected"),
    ):
        p = sub.add_parser(name, help=f"{what} Hamiltonian cycle search")
        _add_io(p, budget=True)
        p.set_defaults(func=partial(_cmd_cycle, kind, solver))

    p = sub.add_parser("match", help="maximum bipartite matching")
    _add_io(p)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("pm2", help="two edge-disjoint perfect matchings")
    _add_io(p, budget=True)
    p.set_defaults(func=_cmd_pm2)

    p = sub.add_parser("conditions", help="evaluate degree-condition hypotheses")
    _add_io(p)
    p.add_argument(
        "--id",
        default=None,
        choices=CONDITION_IDS,
        help="single condition id (default: all applicable)",
    )
    p.add_argument("--k", type=int, default=None, help="k for moon-moser-k")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_conditions)

    p = sub.add_parser(
        "pullback", help="solve bipartite Hamiltonian cycle, split into arc-set halves"
    )
    _add_io(p, budget=True)
    p.set_defaults(
        func=partial(
            _cmd_cycle, "bipartite", "find_hamiltonian_cycle_bipartite", extend="pullback_halves"
        )
    )

    p = sub.add_parser(
        "pushforward", help="solve digraph Hamiltonian cycle, map to a perfect matching"
    )
    _add_io(p, budget=True)
    p.set_defaults(
        func=partial(
            _cmd_cycle, "digraph", "find_hamiltonian_cycle", extend="_pushforward_matching"
        )
    )

    p = sub.add_parser("verify", help="sweep claims over enumerated instances")
    p.add_argument("--claims", default="all", help="comma-separated claim ids or 'all'")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=1000, help="instances per size (random mode)")
    p.add_argument("--seed", type=int, default=None, help="rng seed (random mode)")
    p.add_argument("--store", default=None, help="append counterexamples to this JSON-lines file")
    p.add_argument("--budget", type=int, default=None, help="per-solve node budget")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_verify)

    return parser


# built on main's first call, not at import, so ``import zham.cli`` stays cheap
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except GraphError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except (StoreError, OSError) as exc:
        return _fail(str(exc), EXIT_STORE)


def run():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
