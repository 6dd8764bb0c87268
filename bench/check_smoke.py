"""Smoke test of the benchmark: every workload at tiny size.

    python3 -m pytest -q bench/check_smoke.py

The file name keeps it out of the repository's default test run, since it
starts a dozen benchmark processes (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_metrics(workload: str, trace: int) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_named_with_units(metrics: dict, declared: list[dict]) -> None:
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    for value in metrics.values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = result_metrics(workload, 0)
    assert_named_with_units(metrics, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_print_every_layer_metric_and_repeat_counts(workload):
    first = result_metrics(workload, 1)
    second = result_metrics(workload, 1)
    assert_named_with_units(first, SPEC["per_layer"])
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
