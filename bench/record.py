"""Run every workload over several seeds and summarise each metric.

    python3 bench/record.py [--seeds 1-10] [--seconds S] [--traced]
                            [--out bench/results/FILE.json]

Every workload in BENCHMARK.json runs once per seed, each (workload, seed)
as one `bench/run.py` process with tracing off.  For every reported metric
the table gives the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the bound in BENCHMARK.json.  ``failed_ratio`` is failed
over attempted operations.  ``--traced`` adds one traced run per workload
(first seed) for the per-layer metrics.  ``--out`` writes everything, with
the environment, as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    """One run.py process; returns its JSON line and the record it wrote."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    record = BENCH / "_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in names:
        runs = []
        for seed in args.seeds:
            line, record = run(workload, seed, args.seconds, 0)
            runs.append(record)
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed {line['failed']}/{line['attempted']}", flush=True)
        result["environment"] = {k: v for k, v in record["environment"].items() if k != "seed"}
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": {},
        }
        print(f"\n{workload}: failed_ratio = {entry['failed_ratio']:.6g} ratio")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, m in runs[0]["metrics"].items():
            if name == "failed_ratio":
                continue
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = m["unit"]
            entry["metrics"][name] = stats
            print(f"  {name:<16} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
                  f"{stats['q3']:>12.6g} {stats['spread']:>7.4f} "
                  f"{bounds.get(name, '-'):>6} {stats['unit']}")
        if args.traced:
            line, _ = run(workload, args.seeds[0], args.seconds, 1)
            entry["traced"] = {"seed": args.seeds[0], "correct": line["correct"],
                               "metrics": line["metrics"]}
        result["workloads"][workload] = entry
        print(flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
