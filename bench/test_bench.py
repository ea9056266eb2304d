"""Smoke tests of the benchmark: tiny workloads, results schema, failure gate."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_the_listed_metrics(tmp_path, workload, trace):
    proc = run_bench(
        ROOT, "--smoke", "--workload", workload, "--seed", "3",
        "--trace", str(trace), "--results-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in listed}
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}-smoke.json").read_text())
    assert record["metrics"] == result["metrics"]
    assert (record["seed"], record["runs"], record["fail_ratio"]) == (3, 1, 0.0)
    # a reference run opens and closes the pass, and every time is divided by one
    assert len(record["reference"]["wall_s"]) >= 2
    for entry in record["operations"]:
        assert len(entry["ref_wall_s_per_pass"]) == 1 and entry["normalised_wall_s"] > 0


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "paper-table", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


def test_changed_output_counts_as_failure(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    expected_path = tmp_path / "bench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["cli table --n 30,60"]["sha256"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    proc = run_bench(tmp_path, "--smoke", "--workload", "paper-table", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
