"""Self-tests for the benchmark, on small seeded configurations.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced_and_untraced(name, work):
    workload = WORKLOADS[name](work, seed=7, small=True)
    base = run.run_pass(workload, keep=True)
    trace = tracer.Tracer()
    traced = run.run_pass(workload, keep=False, tracer=trace)
    return workload, base, traced, trace


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_gives_identical_outputs(name, tmp_path):
    workload, base, traced, trace = _traced_and_untraced(name, tmp_path)
    assert traced.outputs == base.outputs
    assert run.count_failed(workload, [base, traced]) == (0, [])
    metrics = trace.metrics(traced.wall_s, base.wall_s)
    assert metrics["layers_self_s"][0] <= metrics["traced_wall_s"][0]
    assert set(metrics) == set(tracer.metric_units())


def _traced_attributes():
    owners = list(tracer.CALLERS) + list(tracer.VALUE_TYPES) + [tracer.verifier.CounterexampleStore]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _traced_attributes()
    _, _, _, trace = _traced_and_untraced("verify-default", tmp_path)
    after = _traced_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert trace.spans, "the traced pass recorded no spans"


def test_graph_sweep_spans_count_every_instance(tmp_path):
    workload, _, traced, trace = _traced_and_untraced("graph-sweep", tmp_path)
    metrics = trace.metrics(traced.wall_s, traced.wall_s)
    for layer in ("verifier.decode", "core.validate", "verifier.check_claim", "conditions.dirac"):
        assert metrics[f"{layer}.calls"][0] == workload.ops


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
