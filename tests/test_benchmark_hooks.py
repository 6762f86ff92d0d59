"""The benchmark's traced children run on this package.

`perfbench/launch.py` traces a run by replacing package functions at the
names their callers look them up under, so renaming, moving or aliasing one
of them breaks the benchmark.  Each benchmark workload runs here shrunk, as
the benchmark's own smoke test shrinks it, through the launcher in `trace`
mode: the run must exit 0 and record the spans of its route.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               PERFBENCH / "run.py")
perfbench_run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_run)    # its dataclass needs sys.modules
WORKLOADS = perfbench_run.WORKLOADS

# experiment -> spans a traced run of it must record
ROUTE_SPANS = {
    "success-prob": {"diagnostics.success_probability", "consensus.point",
                     "particle.cbo_step"},
    "mfl-scaling": {"particle.run_coupling", "consensus.point",
                    "particle.cbo_step"},
    "pde-run": {"galerkin.evolve", "galerkin.rhs"},
}


def _experiment(workload):
    return json.loads((ROOT / workload.config).read_text())["experiment"]


def test_every_workload_has_a_route():
    assert {_experiment(w) for w in WORKLOADS.values()} <= set(ROUTE_SPANS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_launcher_records_the_route(tmp_path, name):
    workload = WORKLOADS[name]
    timing = tmp_path / "timing.json"
    cmd = [sys.executable, str(PERFBENCH / "launch.py"), str(timing), "trace",
           "run", "--config", workload.config, "--output", str(tmp_path / "out")]
    for item in workload.sets + workload.smoke:
        cmd += ["--set", item]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(timing.read_text())["spans"]
    missing = ROUTE_SPANS[_experiment(workload)] - set(spans)
    assert not missing, f"no span for {sorted(missing)}"
