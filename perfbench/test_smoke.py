"""Smoke test of the benchmark itself: `python3 -m pytest perfbench`.

Every workload runs shrunk (`--smoke`) through both launchers; the result
line must be well formed and carry exactly the metrics BENCHMARK.json names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke(workload):
    info, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["program_seed"] == 5

    info, result = _run(workload, 1)
    assert result["correct"] and info["outputs_identical_across_children"]
    assert [c["mode"] for c in info["children"]] == ["plain", "trace"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
