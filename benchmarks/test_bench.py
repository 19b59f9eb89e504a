"""Tests of the benchmark itself, on its toy-size smoke mode.

Run from the repository root:

    python3 -m pytest benchmarks
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("instance", "constraints", "ds", "lp", "rerouting", "flow", "oracle",
          "pipeline")


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, str(cwd / HERE.name / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return details, result


def expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_spec(workload):
    details, result = parse(run_bench(workload, trace=0))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == expected("end_to_end")
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert len(details["setup_samples"]) >= 3
    assert details["nproc"] >= 1 and details["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_spec_and_self_times_sum(workload):
    details, result = parse(run_bench(workload, trace=1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected("per_layer")
    assert details["probes_missing"] == []
    assert details["traced_passes"] >= 2
    self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert math.isclose(self_total, metrics["pipeline.solve_s"], rel_tol=1e-9)
    for name, count in details["counters"].items():
        assert metrics[name] == count


def test_same_seed_repeats_outputs_and_counters():
    first, _ = parse(run_bench("desk-oracle", trace=1))
    second, _ = parse(run_bench("desk-oracle", trace=1))
    assert first["outputs_sha256"] == second["outputs_sha256"]
    assert first["counters"] == second["counters"]
    assert first["counters"]["oracle.calls"] > 0


def test_fails_without_the_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
