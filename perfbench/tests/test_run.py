"""End to end: the walk workload through run.py, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "3",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_match_benchmark_json(trace, group):
    proc = run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        selfs = [m[f"{layer}.self_s"] for layer in
                 ("cli", "solver", "geometry", "walk", "correlations")]
        assert min(selfs) >= 0.0
        assert abs(sum(selfs) - m["trace.wall_s"]) <= 1e-9 * m["trace.wall_s"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
