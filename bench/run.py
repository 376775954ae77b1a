"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; zham is imported from ./src, so nothing
needs installing.  With ``--trace 0`` the workload body runs in a closed loop
until S seconds have passed (at least once) and the metrics are the
end-to-end ones.  With ``--trace 1`` the body runs once untraced and once
traced, and the metrics are the per-layer ones.  Either way the outputs are
checked after the timed region, the result and the environment are written to
``bench/_out/``, and the last line of stdout is one JSON object::

    {"correct": true, "attempted": 3000, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# the metrics in BENCHMARK.json; request_p50_ms, request_p90_ms and
# failed_ratio are printed and recorded but not gated (NOTES.md says why)
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 11
SETUP_CODE = "import time\nt = time.perf_counter()\nimport zham\nprint(time.perf_counter() - t)\n"


def measure_setup(samples=SETUP_SAMPLES):
    """Median time for a fresh interpreter to import zham, which builds the
    claim registry."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def run_pass(workload, keep, tracer=None):
    workload.reset()
    if tracer is None:
        start = perf_counter()
        raw = workload.body()
        wall = perf_counter() - start
    else:
        with tracer.installed():
            start = perf_counter()
            raw = workload.body()
            wall = perf_counter() - start
    return workload.finish(raw, wall, keep)


def count_failed(workload, passes):
    """Failed operations over all passes: outputs failing their check in the
    first pass, and outputs of later passes that differ from the first's."""
    failing, problems = workload.check(passes[0])
    first = passes[0].outputs
    failed = 0
    for p in passes:
        if len(p.outputs) != len(first):
            failed += p.ops
            continue
        bad = sum(i in failing or d != first[i] for i, d in enumerate(p.outputs))
        failed += p.ops // len(p.outputs) * bad
    if failed and not problems:
        problems.append("outputs differ between passes")
    return failed, problems


def measure(workload, seconds):
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(workload, keep=not passes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = count_failed(workload, passes)
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "ops_per_s": (statistics.median(p.ops / p.wall_s for p in passes), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"passes": len(passes)}
    if passes[0].latencies is not None:
        latencies = [t for p in passes for t in p.latencies]
        metrics["request_p50_ms"] = (percentile(latencies, 0.5) * 1e3, "ms")
        metrics["request_p90_ms"] = (percentile(latencies, 0.9) * 1e3, "ms")
        extra["requests"] = len(latencies)
    return passes, failed, problems, metrics, extra


def measure_traced(workload):
    from tracer import Tracer

    base = run_pass(workload, keep=True)
    tracer = Tracer()
    traced = run_pass(workload, keep=False, tracer=tracer)
    passes = [base, traced]
    failed, problems = count_failed(workload, passes)
    extra = {"spans": tracer.span_records()}
    return passes, failed, problems, tracer.metrics(traced.wall_s, base.wall_s), extra


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed):
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    if not (SRC / "zham" / "__init__.py").is_file():
        print(f"error: no zham sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # ZHAM_BUDGET would change the CLI's node budget; requests run at the default
    os.environ.pop("ZHAM_BUDGET", None)
    from tracer import metric_units
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    env = environment(args.seed)
    if not args.trace:
        setup_s = measure_setup()
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        workload = WORKLOADS[args.workload](Path(work), args.seed)
        try:
            if args.trace:
                passes, failed, problems, values, extra = measure_traced(workload)
            else:
                passes, failed, problems, values, extra = measure(workload, args.seconds)
        except Exception:  # the program raised: count the run as one failed pass
            traceback.print_exc()
            passes, values, extra = [], {}, {}
            failed, problems = workload.ops, ["the workload raised"]
    attempted = sum(p.ops for p in passes) or workload.ops
    if not args.trace:
        values["setup_s"] = (setup_s, "s")
    values["failed_ratio"] = (failed / attempted, "ratio")
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    gated = metric_units() if args.trace else END_TO_END
    metrics = {name: reported[name] for name in gated if name in reported}
    correct = not problems and failed == 0 and len(metrics) == len(gated)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    for name, m in reported.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {failed} of {attempted} ops failed")
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": reported, **extra,
    }
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
