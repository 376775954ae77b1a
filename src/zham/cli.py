"""Command-line front end.

Subcommands: zmap, unzmap, ham, bipham, gham, match, pm2, conditions,
pullback, pushforward, verify.  Machine output is JSON with sorted keys;
exit codes carry the pass/fail semantics:

    0  decided (regardless of the boolean outcome)
    2  parse error or bad flags
    3  validation error
    4  search budget exhausted
    5  an established claim produced a counterexample (verify only)
    6  store or output I/O failure

The ``ZHAM_BUDGET`` environment variable overrides the default node budget
wherever ``--budget`` is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from .conditions import (
    CONDITION_IDS,
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
from .core import BipartiteGraph, Digraph, Graph, GraphError, pairs_json, witness_json
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
    established_failures,
    is_spanning_cycle_factor,
    render_table,
    report_json,
    run_suite,
)
from .zmapping import ham_cycle_pullback, matching_pushforward, unzmap, zmap

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
    print(json.dumps(payload, sort_keys=True, indent=2))


def _resolve_budget(flag_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get("ZHAM_BUDGET")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ParseError(f"ZHAM_BUDGET must be an integer, got {env!r}") from None


def _load(path, expect, what):
    obj = parse_graph_file(path)
    if not isinstance(obj, expect):
        raise GraphError(f"{path}: expected {what} input")
    return obj


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _cmd_zmap(args):
    d = _load(args.input, Digraph, "digraph (D header)")
    g = zmap(d)
    _write_text(args.output, serialize_graph(g))
    if args.dot:
        _write_text(args.dot, to_dot(g))
    return EXIT_OK


def _cmd_unzmap(args):
    g = _load(args.input, BipartiteGraph, "bipartite (B header)")
    d = unzmap(g)
    _write_text(args.output, serialize_graph(d))
    if args.dot:
        _write_text(args.dot, to_dot(d))
    return EXIT_OK


def _solver_payload(result, extra=None):
    payload = {
        "found": result.found,
        "cycle": witness_json(result.witness),
        "nodes_explored": result.nodes_explored,
        "exhausted": result.exhausted,
    }
    if extra:
        payload.update(extra)
    return payload


def _cmd_cycle(kind, label, solver, args, extend=None):
    """Load one ``kind`` of graph and search it with ``solver``; a found
    cycle's payload gains the fields ``extend(graph, witness)`` returns."""
    obj = _load(args.input, kind, label)
    result = solver(obj, _resolve_budget(args.budget))
    extra = extend(obj, result.witness) if extend is not None and result.found else None
    _emit_json(_solver_payload(result, extra))
    return EXIT_BUDGET if result.exhausted else EXIT_OK


def _cmd_match(args):
    g = _load(args.input, BipartiteGraph, "bipartite (B header)")
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
    g = _load(args.input, BipartiteGraph, "bipartite (B header)")
    result = find_two_disjoint_perfect_matchings(g, _resolve_budget(args.budget))
    _emit_json(
        {
            "found": result.found,
            "first": witness_json(result.first),
            "second": witness_json(result.second),
            "nodes_explored": result.nodes_explored,
            "exhausted": result.exhausted,
        }
    )
    return EXIT_BUDGET if result.exhausted else EXIT_OK


_DIGRAPH_CONDITIONS = {
    "ghouila-houri": ghouila_houri,
    "zhu": zhu_digraph,
    "cor1-disjoint-hc": disjoint_hc_degree,
    "woodall": woodall,
    "cor2-woodall-plus2": woodall_plus2,
}
_BIPARTITE_CONDITIONS = {
    "moon-moser-half": moon_moser_half,
    "las-vergnas": las_vergnas,
    "cor3-ore-pm": lambda g: ore_bipartite(g, g.n),
    "cor3-ore-2pm": lambda g: ore_bipartite(g, g.n + 2),
}
_GRAPH_CONDITIONS = {"dirac": dirac, "faudree": faudree}


def _conditions_for(obj, condition_id, k):
    if isinstance(obj, Digraph):
        table, has_mmk = _DIGRAPH_CONDITIONS, False
    elif isinstance(obj, BipartiteGraph):
        table, has_mmk = _BIPARTITE_CONDITIONS, True
    else:
        table, has_mmk = _GRAPH_CONDITIONS, False

    if condition_id in table:
        return [table[condition_id](obj)]
    if condition_id not in (None, "moon-moser-k"):
        raise GraphError(
            f"condition {condition_id!r} does not apply to this input kind"
        )
    if condition_id is not None and not has_mmk:
        raise GraphError("moon-moser-k applies to bipartite input only")
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


def _pullback_halves(g, witness):
    first, second = ham_cycle_pullback(g, witness)
    return {
        "first_half": pairs_json(first),
        "second_half": pairs_json(second),
        "first_half_is_cycle_factor": is_spanning_cycle_factor(g.n, first),
        "second_half_is_cycle_factor": is_spanning_cycle_factor(g.n, second),
    }


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
        if unknown:
            return _fail(
                f"unknown claim id(s) {', '.join(unknown)}; known: {', '.join(CLAIMS)}",
                EXIT_PARSE,
            )
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
    if args.report:
        _write_text(args.report, report_json(report))
    if args.format == "json":
        sys.stdout.write(report_json(report))
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
    parser = argparse.ArgumentParser(
        prog="zham",
        description="Vertex-split transform between digraphs and balanced bipartite "
        "graphs, with exact Hamiltonicity/matching solvers and a claim verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zmap", help="digraph file -> bipartite image file")
    _add_io(p, output=True, dot=True)
    p.set_defaults(func=_cmd_zmap)

    p = sub.add_parser("unzmap", help="bipartite file -> digraph preimage file")
    _add_io(p, output=True, dot=True)
    p.set_defaults(func=_cmd_unzmap)

    for name, what, kind, label, solver in (
        ("ham", "directed", Digraph, "digraph (D header)", find_hamiltonian_cycle),
        ("bipham", "bipartite", BipartiteGraph, "bipartite (B header)",
         find_hamiltonian_cycle_bipartite),
        ("gham", "undirected", Graph, "undirected (G header)", find_hamiltonian_cycle_undirected),
    ):
        p = sub.add_parser(name, help=f"{what} Hamiltonian cycle search")
        _add_io(p, budget=True)
        p.set_defaults(func=partial(_cmd_cycle, kind, label, solver))

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
            _cmd_cycle, BipartiteGraph, "bipartite (B header)", find_hamiltonian_cycle_bipartite,
            extend=_pullback_halves,
        )
    )

    p = sub.add_parser(
        "pushforward", help="solve digraph Hamiltonian cycle, map to a perfect matching"
    )
    _add_io(p, budget=True)
    p.set_defaults(
        func=partial(
            _cmd_cycle, Digraph, "digraph (D header)", find_hamiltonian_cycle,
            extend=_pushforward_matching,
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
