"""The benchmark's four workloads.

Each workload makes its inputs from a seed, runs a body that the runner times,
digests the body's outputs and checks them outside the timed region.  All four
are closed loops with a single caller in one process: the next call starts
only when the previous one has returned.  NOTES.md says why each was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from zham import cli, verifier
from zham.core import DIGRAPH_CYCLE, GRAPH_CYCLE, CycleWitness, check_cycle
from zham.fileio import parse_graph_file

DIGRAPH_CLAIMS = (
    "thm-zg", "thm-gz", "thm-zg-pullback", "ghouila", "zhu", "cor1", "woodall", "cor2",
)

# sha256 of the report that `zham verify` writes at its defaults, recorded at
# the commit that introduced this benchmark.  A change that alters the report
# on purpose records the new value here in a benchmark-only change.
VERIFY_DEFAULT_REPORT_SHA256 = (
    "216c15eadd00bad5b912d1329c89b6f94c23c6ba94d7742c9fc1d7bca7deddcc"
)


@dataclass
class Pass:
    """One run of a workload body.

    ``outputs`` holds one digest per checked output: one for a sweep, one per
    request for ``solve-requests``.  A failing output counts ``ops /
    len(outputs)`` failed operations.  ``latencies`` holds the request times
    of a pass that is a stream of requests, and is None otherwise.
    """

    wall_s: float
    ops: int
    outputs: list
    kept: dict = field(default_factory=dict)
    latencies: list | None = None


def _instances(kind, n):
    bits = {"digraph": n * (n - 1), "bipartite": n * n, "graph": n * (n - 1) // 2}[kind]
    return 1 << bits


def _file_sha256(path, h=None):
    h = hashlib.sha256() if h is None else h
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h


def _digest(*parts):
    """One sha256 over text parts and file contents, each part delimited."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            _file_sha256(part, h)
        else:
            h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _reverify_store(path, expected_records):
    records = verifier.CounterexampleStore(path).load()
    if len(records) != expected_records:
        return f"store holds {len(records)} records, expected {expected_records}"
    bad = sum(not verifier.reverify_record(r) for r in records)
    return f"{bad} stored records do not reverify" if bad else None


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, small: bool = False):
        self.work = Path(work)
        self.seed = seed
        self.small = small

    def reset(self):
        """Untimed housekeeping before each pass."""

    def body(self):
        """The timed region; returns what ``finish`` digests."""
        raise NotImplementedError

    def finish(self, raw, wall_s, keep) -> Pass:
        """Digest one pass's outputs; with ``keep`` hold them for ``check``."""
        raise NotImplementedError

    def check(self, first: Pass):
        """Indices of the first pass's outputs that fail, and the reasons."""
        raise NotImplementedError


class VerifyDefault(Workload):
    """`zham verify --report R --store S` at its defaults."""

    name = "verify-default"

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        self.report = self.work / "report.json"
        self.store = self.work / "store.jsonl"
        self.stdout = self.work / "stdout.txt"
        n_max = 2 if small else 4
        self.argv = ["verify", "--report", str(self.report), "--store", str(self.store)]
        if small:
            self.argv += ["--n-max", str(n_max)]
        self.ops = sum(
            _instances(c.instance_kind, n)
            for c in verifier.CLAIMS.values()
            for n in range(1, n_max + 1)
        )

    def reset(self):
        self.store.unlink(missing_ok=True)

    def body(self):
        with open(self.stdout, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            return cli.main(self.argv)

    def finish(self, rc, wall_s, keep):
        kept = {}
        if keep:
            kept["rc"] = rc
            kept["report"] = self.report.replace(self.work / "first-report.json")
            kept["store"] = self.store.replace(self.work / "first-store.jsonl")
            digest = _digest(rc, self.stdout, kept["report"], kept["store"])
        else:
            digest = _digest(rc, self.stdout, self.report, self.store)
        return Pass(wall_s, self.ops, [digest], kept)

    def check(self, first):
        kept = first.kept
        problems = []
        if kept["rc"] != 0:
            problems.append(f"exit code {kept['rc']}")
        sha = _file_sha256(kept["report"]).hexdigest()
        if not self.small and sha != VERIFY_DEFAULT_REPORT_SHA256:
            problems.append(f"report sha256 {sha} is not the recorded one")
        report = json.loads(kept["report"].read_text(encoding="utf-8"))
        expected = sum(c["counterexample_count"] for c in report["claims"])
        del report
        problem = _reverify_store(kept["store"], expected)
        if problem:
            problems.append(problem)
        return ({0} if problems else set()), problems


class _Sweep(Workload):
    """A `run_suite` call whose report is digested after the timed region."""

    store = None  # the counterexample store, for sweeps that write one

    def sweep_report(self, verdicts):
        raise NotImplementedError

    def finish(self, verdicts, wall_s, keep):
        kept = {
            "scanned": {v.claim_id: v.instances_scanned for v in verdicts},
            "exhausted": sum(v.exhausted_budget for v in verdicts),
            "counterexamples": {v.claim_id: len(v.counterexamples) for v in verdicts},
        }
        parts = [verifier.report_json(self.sweep_report(verdicts))]
        if self.store is not None:
            store = self.store
            if keep:
                store = kept["store"] = store.replace(self.work / "first-store.jsonl")
            parts.append(store)
        return Pass(wall_s, self.ops, [_digest(*parts)], kept)


class GraphSweep(_Sweep):
    """`run_suite(["dirac"], range(1, 7))`: every labeled graph with n <= 6."""

    name = "graph-sweep"

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        self.n_values = range(1, 5 if small else 7)
        self.ops = sum(_instances("graph", n) for n in self.n_values)

    def body(self):
        return verifier.run_suite(["dirac"], self.n_values)

    def sweep_report(self, verdicts):
        return verifier.build_report(verdicts, mode="exhaustive", n_values=self.n_values)

    def check(self, first):
        kept = first.kept
        problems = []
        if kept["scanned"]["dirac"] != self.ops:
            problems.append(f"scanned {kept['scanned']['dirac']} graphs, expected {self.ops}")
        if kept["counterexamples"]["dirac"] or kept["exhausted"]:
            problems.append("dirac sweep found counterexamples or ran out of budget")
        return ({0} if problems else set()), problems


class DigraphRandom(_Sweep):
    """The eight digraph claims on seeded random digraphs with n = 5."""

    name = "digraph-random"

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        self.samples = 200 if small else 10_000
        self.ops = len(DIGRAPH_CLAIMS) * self.samples
        self.store = self.work / "store.jsonl"

    def reset(self):
        self.store.unlink(missing_ok=True)

    def body(self):
        return verifier.run_suite(
            DIGRAPH_CLAIMS,
            [5],
            mode="random",
            samples=self.samples,
            seed=self.seed,
            store_path=self.store,
        )

    def sweep_report(self, verdicts):
        return verifier.build_report(
            verdicts, mode="random", seed=self.seed, samples=self.samples, n_values=[5]
        )

    def check(self, first):
        kept = first.kept
        problems = []
        if any(s != self.samples for s in kept["scanned"].values()):
            problems.append(f"a claim scanned other than {self.samples} digraphs")
        if kept["exhausted"]:
            problems.append(f"{kept['exhausted']} checks ran out of budget")
        broken = [c for c, k in kept["counterexamples"].items()
                  if k and c in verifier.ESTABLISHED_CLAIM_IDS]
        if broken:
            problems.append(f"established claims with counterexamples: {broken}")
        problem = _reverify_store(kept["store"], sum(kept["counterexamples"].values()))
        if problem:
            problems.append(problem)
        return ({0} if problems else set()), problems


# ---------------------------------------------------------------------------
# solve-requests: instance families


def _square_cycle(rng, n):
    """Family (a): a planted Hamiltonian cycle plus its square (each vertex
    also points two steps ahead), under a seeded labelling.  The bipartite
    image is one 2n-cycle, so `bipham` and `pm2` always succeed on it."""
    order = rng.sample(range(1, n + 1), n)
    return {(order[i], order[(i + step) % n]) for i in range(n) for step in (1, 2)}


def _two_blocks(rng, n):
    """Family (b): complete digraphs on 1..c and c..n sharing the cut vertex
    c = n // 2.  Strong, every degree prune passes, never Hamiltonian.  The
    labelling is seeded but keeps vertex 1 a non-cut vertex of the first
    block, so the exhaustive search tree has the same size on every seed."""
    c = n // 2
    label = [0, 1] + rng.sample(range(2, n + 1), n - 1)
    blocks = (range(1, c + 1), range(c, n + 1))
    return {(label[u], label[v]) for b in blocks for u in b for v in b if u != v}


def _sparse_cycle(rng, n):
    """Family (d): the directed cycle 1 -> 2 -> ... -> n -> 1 plus n random
    chords.  The search follows the planted cycle, so `ham` is decided in n
    steps, while `conditions` scans all n^2 vertex pairs."""
    arcs = {(v, v % n + 1) for v in range(1, n + 1)}
    while len(arcs) < 2 * n:
        u, v = rng.sample(range(1, n + 1), 2)
        arcs.add((u, v))
    return arcs


def _edge_list(header, n, pairs):
    return f"{header} {n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(pairs))


# (family, generator, sizes); family (c) is the bipartite images of (a) and (b).
FULL_FAMILIES = (
    ("a", _square_cycle, (12, 13, 14, 15, 16) * 3 + (12,)),
    ("b", _two_blocks, (12,) * 32),
    ("d", _sparse_cycle, (150, 170)),
)
SMALL_FAMILIES = (
    ("a", _square_cycle, (6, 7)),
    ("b", _two_blocks, (7, 8)),
    ("d", _sparse_cycle, (30,)),
)
# which commands run on an instance of each family, and on its bipartite image
COMMANDS = {"a": (("ham",), ("bipham", "match", "pm2")),
            "b": (("ham",), ("match", "pm2")),
            "d": (("ham", "conditions"), ())}
SCHEMA_DEFS = {"ham": "solve", "bipham": "solve", "match": "match", "pm2": "pm2",
               "conditions": "conditions"}


class SolveRequests(Workload):
    """One `zham <command> FILE` request at a time, in a seeded order."""

    name = "solve-requests"

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        rng = random.Random(seed)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.requests = []  # (family, command, input path)
        for family, make, sizes in SMALL_FAMILIES if small else FULL_FAMILIES:
            digraph_cmds, image_cmds = COMMANDS[family]
            for i, n in enumerate(sizes):
                arcs = make(rng, n)
                d_path = inputs / f"{family}{i}.d.txt"
                d_path.write_text(_edge_list("D", n, arcs), encoding="utf-8")
                self.requests += [(family, cmd, d_path) for cmd in digraph_cmds]
                if image_cmds:
                    b_path = inputs / f"{family}{i}.b.txt"
                    b_path.write_text(_edge_list("B", n, arcs), encoding="utf-8")
                    self.requests += [("c", cmd, b_path) for cmd in image_cmds]
        rng.shuffle(self.requests)
        self.ops = len(self.requests)
        self.out = self.work / "out"
        self.first = self.work / "first-out"

    def reset(self):
        self.out.mkdir(exist_ok=True)

    def body(self):
        latencies, codes = [], []
        main = cli.main
        for i, (_, cmd, path) in enumerate(self.requests):
            with open(self.out / f"{i}.json", "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out):
                start = perf_counter()
                codes.append(main([cmd, str(path)]))
                latencies.append(perf_counter() - start)
        return latencies, codes

    def finish(self, raw, wall_s, keep):
        latencies, codes = raw
        outputs = [_digest(rc, self.out / f"{i}.json") for i, rc in enumerate(codes)]
        kept = {}
        if keep:
            shutil.rmtree(self.first, ignore_errors=True)
            self.out.replace(self.first)
            kept["codes"] = codes
        return Pass(sum(latencies), len(codes), outputs, kept, latencies)

    def check(self, first):
        validators = _schema_validators()
        failing, problems = set(), []
        for i, ((family, cmd, path), rc) in enumerate(zip(self.requests, first.kept["codes"])):
            problem = _check_request(family, cmd, path, rc, self.first / f"{i}.json", validators)
            if problem:
                failing.add(i)
                problems.append(f"request {i} ({family}: {cmd} {path.name}): {problem}")
        return failing, problems


def _schema_validators():
    """One validator per subcommand, or None when jsonschema is missing."""
    try:
        import jsonschema
    except ImportError:
        print("warning: jsonschema is missing; outputs are not validated", file=sys.stderr)
        return None
    root = Path(cli.__file__).resolve().parents[2]
    schema = json.loads((root / "schemas" / "cli-output.schema.json").read_text())
    return {
        cmd: jsonschema.Draft202012Validator({"$ref": f"#/$defs/{d}", "$defs": schema["$defs"]})
        for cmd, d in SCHEMA_DEFS.items()
    }


def _witness(cycle):
    if cycle and isinstance(cycle[0], str):
        return CycleWitness(GRAPH_CYCLE, tuple((v[0], int(v[1:])) for v in cycle))
    return CycleWitness(DIGRAPH_CYCLE, tuple(cycle))


def _check_request(family, cmd, path, rc, out_path, validators):
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    if validators is not None:
        error = next(validators[cmd].iter_errors(payload), None)
        if error is not None:
            return f"schema: {error.message[:200]}"
    if cmd in ("ham", "bipham"):
        if payload["exhausted"]:
            return "budget exhausted"
        if payload["found"]:
            host = parse_graph_file(path)
            witness = _witness(payload["cycle"])
            if not (check_cycle(host, witness) and witness.is_hamiltonian(host)):
                return "returned cycle is not a Hamiltonian cycle of the input"
        if family == "a" and not payload["found"]:
            return "planted Hamiltonian cycle not found"
        if family == "b" and payload["found"]:
            return "cut-vertex digraph reported Hamiltonian"
    return None


WORKLOADS = {w.name: w for w in (VerifyDefault, GraphSweep, DigraphRandom, SolveRequests)}
