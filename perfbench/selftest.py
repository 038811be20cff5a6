"""Self-tests of the benchmark: smoke runs, determinism, the bare-tree exit.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

Each test starts ``perfbench/run.py`` as a subprocess with a short
``--seconds`` budget, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return completed


def result_of(completed) -> tuple[dict, list[str]]:
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    document, _ = result_of(run_bench(workload, seed=7, seconds=1, trace=0))
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True
    assert document["attempted"] >= 1 and document["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: value["unit"] for name, value in document["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in document["metrics"].values())


@pytest.mark.parametrize("workload", ["serve_mix", "grid_validate"])
def test_same_seed_repeats_counts_and_manifest(workload):
    first, first_lines = result_of(run_bench(workload, seed=3, seconds=2, trace=1))
    second, second_lines = result_of(run_bench(workload, seed=3, seconds=2, trace=1))
    assert first["correct"] and second["correct"]
    expected = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(first["metrics"]) == expected
    counts = [
        name for name, value in first["metrics"].items()
        if value["unit"] == "count" or name == "tile.autotune.kept_ratio"
    ]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    def manifest(lines):
        return [line for line in lines if line.strip().startswith("manifest ")]

    assert manifest(first_lines) and manifest(first_lines) == manifest(second_lines)


def test_same_seed_repeats_served_gflops():
    first, _ = result_of(run_bench("cold_tune", seed=5, seconds=1, trace=0))
    second, _ = result_of(run_bench("cold_tune", seed=5, seconds=1, trace=0))
    assert first["metrics"]["served_gflops"] == second["metrics"]["served_gflops"]


def test_bare_tree_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(WORKLOADS[0], seed=1, seconds=1, trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
