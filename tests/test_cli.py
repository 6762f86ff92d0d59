import errno
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cbolab
from cbolab.cli import main
from cbolab.config import default_config, manifest_text, resolve_config
from cbolab.objectives import ConfigurationError

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
OPTIMIZE = str(CONFIGS / "optimize.json")
OPTIMIZE_CFG = json.loads((CONFIGS / "optimize.json").read_text())


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_experiment_lists_agree():
    from cbolab.config import EXPERIMENTS
    from cbolab.experiments import DRIVERS
    shipped = {json.loads(path.read_text())["experiment"]
               for path in CONFIGS.glob("*.json")}
    assert set(EXPERIMENTS) == set(DRIVERS) == shipped
    assert len(EXPERIMENTS) == len(set(EXPERIMENTS))


def test_optimize_deterministic_contraction(tmp_path):
    out = str(tmp_path / "run")
    assert main(["run", "--config", OPTIMIZE, "--output", out, "--check"]) == 0
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "PASS" in summary


def test_trajectory_schema(tmp_path):
    out = str(tmp_path / "run")
    main(["run", "--config", OPTIMIZE, "--output", out])
    header = open(os.path.join(out, "trajectory.csv")).readline().strip()
    assert header == ("step,time,valpha_1,valpha_2,w2_sq_to_vstar,variance,"
                      "ess,log_normalizer")


def test_manifest_replay_is_byte_identical(tmp_path, capsys):
    # the output directory is no input of the run: a replay into another
    # directory writes the same manifest and CSVs, without a warning
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", OPTIMIZE, "--output", str(out1)])
    manifest = str(out1 / "manifest.json")
    assert main(["run", "--config", manifest, "--output", str(out2)]) == 0
    assert capsys.readouterr().err == ""
    names = sorted(p.name for p in out1.iterdir() if p.name != "summary.txt")
    assert names == ["manifest.json", "trajectory.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_of_another_version_warns_and_runs(tmp_path, capsys):
    main(["run", "--config", OPTIMIZE, "--output", str(tmp_path / "a")])
    doc = json.loads((tmp_path / "a" / "manifest.json").read_text())
    doc["package_version"] = "0.0.1"
    old = _write_cfg(tmp_path, doc, "old-manifest.json")
    capsys.readouterr()
    assert main(["run", "--config", old, "--output", str(tmp_path / "b")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ")
    assert "0.0.1" in err[0] and cbolab.__version__ in err[0]
    assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
            == (tmp_path / "b" / "trajectory.csv").read_bytes())


def test_unknown_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {**OPTIMIZE_CFG, "cbo": {"sigmaa": 1.0}})
    assert main(["run", "--config", cfg, "--output", str(tmp_path / "x")]) == 1
    cfg2 = _write_cfg(tmp_path, {**OPTIMIZE_CFG, "experiment": "nope"}, "c2.json")
    assert main(["run", "--config", cfg2, "--output", str(tmp_path / "y")]) == 1


def test_override_rejects_unknown_and_applies_known(tmp_path):
    out = str(tmp_path / "run")
    assert main(["run", "--config", OPTIMIZE, "--output", out,
                 "--set", "cbx.sigma=0.1"]) == 1
    assert main(["run", "--config", OPTIMIZE, "--output", out,
                 "--set", "cbo.horizon=1.0"]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["cbo"]["horizon"] == 1.0


def test_dict_override_reads_as_the_config_file_object():
    # an object value merges into its section key by key, as in a file
    cbo = {"dt": 0.05, "horizon": 1.0}
    in_file = resolve_config({**OPTIMIZE_CFG,
                              "cbo": {**OPTIMIZE_CFG["cbo"], **cbo}})
    assert resolve_config(OPTIMIZE_CFG, [f"cbo={json.dumps(cbo)}"]) == in_file
    assert resolve_config(OPTIMIZE_CFG, ["cbo.dt=0.05",
                                         "cbo.horizon=1.0"]) == in_file
    with pytest.raises(ConfigurationError, match="^cbo.dt: expected number"):
        resolve_config(OPTIMIZE_CFG, ['cbo={"dt": "a"}'])


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", "--config", OPTIMIZE, "--output", out1])
    main(["run", "--config", OPTIMIZE, "--output", out2])
    a = open(os.path.join(out1, "trajectory.csv"), "rb").read()
    b = open(os.path.join(out2, "trajectory.csv"), "rb").read()
    assert a == b


def test_check_mode_failure_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, {**OPTIMIZE_CFG, "check": {"final_w2_max": 1e-30}})
    assert main(["run", "--config", cfg, "--output", str(tmp_path / "r"),
                 "--check"]) == 2


def test_assumptions_check_quartic(tmp_path):
    # |J| / sqrt(G) = 1/|v| is unbounded at the origin: its sampled sup
    # keeps rising as the cloud is refined
    payload = {
        "experiment": "cutoff-check",
        "seed": 1,
        "cutoff": {"field": "quartic", "valpha_const": [0.0, 0.0],
                   "samples": 2000, "box": 3.0},
        "check": {"stability_max": 0.05},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out, "--check"]) == 2
    rows = open(os.path.join(out, "inequalities.csv")).read().splitlines()
    assert rows[0] == "quantity,sup,sample_count"
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["2000"] * 4 + ["4000"] * 4
    lines = _check_lines(out)
    assert len(lines) == 1
    assert lines[0].startswith("  stability_max: FAIL (worst_rel_change = ")


def test_lemma_check_end_to_end(tmp_path):
    payload = {
        "experiment": "cutoff-check",
        "seed": 2,
        "cutoff": {"R": 5.0, "n": 50.0, "samples": 2000,
                   "valpha_const": [0.3, -0.2]},
        "check": {"stability_max": 0.05},
    }
    cfg = _write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg, "--output", str(tmp_path / "run"),
                 "--check"]) == 0


@pytest.mark.parametrize("name,sets", [
    ("optimize", ["cbo.horizon=0.2"]),
    ("lemma-check", ["cutoff.samples=200"]),
])
def test_largest_seed_runs(tmp_path, name, sets):
    # 2**64 - 1 is the largest seed the noise streams tell apart
    out = tmp_path / "run"
    argv = ["run", "--config", str(CONFIGS / f"{name}.json"),
            "--output", str(out), "--set", f"seed={2**64 - 1}"]
    assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 2**64 - 1


def test_mfl_scaling_small(tmp_path):
    payload = {
        "experiment": "mfl-scaling",
        "seed": 11,
        "objective": {"name": "quadratic"},
        "coupling": {"sizes": [8, 32, 128], "reference_size": 512,
                     "horizon": 0.5, "dt": 0.05, "lambda": 1.0,
                     "sigma": 0.5, "alpha": 5.0, "init_center": [1.0, 1.0]},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out]) == 0
    rows = open(os.path.join(out, "scaling.csv")).read().splitlines()
    assert rows[0] == "n,sup_mse" and len(rows) == 4


@pytest.mark.parametrize("coupling,key", [
    ({"sizes": []}, "coupling.sizes"),
    ({"sizes": [0, 64, 256]}, "coupling.sizes"),
    ({"sizes": [64, 256]}, "coupling.sizes"),
    ({"sizes": [64, "a", 256]}, "coupling.sizes"),
    ({"sizes": [64.5, 256, 1024]}, "coupling.sizes"),
    ({"sizes": [8, 32, 128], "reference_size": 256}, "coupling.reference_size"),
])
def test_mfl_scaling_bad_sizes_are_config_errors(tmp_path, capsys, coupling, key):
    cfg = _write_cfg(tmp_path, {"experiment": "mfl-scaling", "coupling": coupling})
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: ")
    assert not (out / "scaling.csv").exists()


def test_success_prob_cli(tmp_path):
    payload = {
        "experiment": "success-prob",
        "seed": 5,
        "objective": {"name": "quadratic"},
        "cbo": {"lambda": 1.0, "sigma": 0.0, "alpha": 10.0, "dt": 0.1,
                "n_particles": 60, "horizon": 4.0,
                "init_center": [0.0, 0.0], "init_spread": 0.3},
        "success": {"runs": 4, "epsilon": 0.2},
        "check": {"fraction_min": 1.0},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out, "--check"]) == 0
    rows = open(os.path.join(out, "success.csv")).read().splitlines()
    assert rows[0] == "run,seed,final_error,hit,diverged"
    assert len(rows) == 5


def test_success_prob_cli_flags_objective_overflow(tmp_path, capsys):
    # the quadratic overflows long before the positions do: every run must
    # be flagged as diverged, not end the experiment with a traceback
    payload = {
        "experiment": "success-prob",
        "seed": 42,
        "objective": {"name": "quadratic"},
        "cbo": {"lambda": 0.0, "sigma": 1e3, "alpha": 30.0, "dt": 1.0,
                "n_particles": 3, "horizon": 60.0,
                "init_center": [1.0, 1.0], "init_spread": 2.0},
        "success": {"runs": 4, "epsilon": 0.25},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out]) == 0
    assert capsys.readouterr().err == ""
    rows = open(os.path.join(out, "success.csv")).read().splitlines()
    assert len(rows) == 5
    assert all(row.endswith(",inf,0,1") for row in rows[1:])


def test_pde_run_small(tmp_path):
    payload = {
        "experiment": "pde-run",
        "seed": 0,
        "objective": {"name": "quadratic"},
        "cbo": {"alpha": 10.0},
        "pde": {"L": 6.0, "K": 16, "M": 64, "dt": 5e-3,
                "horizon": 0.05, "init_center": [1.0, 1.0],
                "init_radius": 0.8, "record_every": 2,
                "snapshot_times": [0.05]},
        "cutoff": {"R": 20.0, "n": 500.0},
        "check": {"mass_drift_max": 1e-9},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out, "--check"]) == 0
    series = open(os.path.join(out, "series.csv")).read().splitlines()
    assert series[0].startswith("time,mass,valpha_1,valpha_2")
    assert os.path.exists(os.path.join(out, "grid_0000.csv"))
    assert os.path.exists(os.path.join(out, "snapshot_coeffs_0000.csv"))


def test_confinement_cli_check_fails_honestly(tmp_path):
    # tiny resolution: the probe cannot stay below an impossible threshold,
    # and check mode must say so with exit code 2
    payload = {
        "experiment": "pde-run",
        "seed": 0,
        "pde": {"L": 12.0, "K": 64, "M": 256, "dt": 5e-3,
                "horizon": 0.2, "valpha_const": [0.0],
                "init_center": [-2.25],
                "init_radius": 1.75, "record_every": 5, "v_star": 0.0},
        "cutoff": {"R": 4.0, "n": 4.5},
        "check": {"confinement_max": 1e-30},
    }
    cfg = _write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg, "--output", str(tmp_path / "run"),
                 "--check"]) == 2


def test_positivity_cli(tmp_path):
    # toy resolution: the probe reports the solver's ringing floor, so the
    # configured floor is the toy-scale one; the full-scale criterion lives
    # in the acceptance suite
    payload = {
        "experiment": "pde-run",
        "seed": 0,
        "objective": {"name": "quadratic"},
        "cbo": {"alpha": 10.0},
        "pde": {"L": 6.0, "K": 16, "M": 64, "dt": 5e-3,
                "horizon": 0.1, "init_center": [1.0, 1.0],
                "init_radius": 0.8, "record_every": 2,
                "annulus_inner": 0.2, "annulus_outer": 2.5},
        "cutoff": {"R": 20.0, "n": 500.0},
        "check": {"positivity_floor": -0.5},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    code = main(["run", "--config", cfg, "--output", out, "--check"])
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "min density on annulus" in summary
    assert os.path.exists(os.path.join(out, "probe.csv"))
    assert code == 0


def test_config_defaults_and_strictness():
    cfg = resolve_config({"experiment": "optimize"})
    assert cfg["cbo"]["lambda"] == 1.0
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "optimize", "bogus": {}})
    with pytest.raises(ConfigurationError):
        resolve_config({})
    base = default_config()
    assert "experiment" not in base  # required, no default


def test_defaults_and_shipped_configs_obey_their_rules():
    from cbolab.config import SCHEMA, _check_key
    for section, keys in SCHEMA.items():
        for key, (_, default, *_) in keys.items():
            if default is not None:
                assert _check_key(section, key, default) == default
    for path in CONFIGS.glob("*.json"):
        resolve_config(json.loads(path.read_text()))


# the config section whose horizon and dt each experiment steps
STEPPED = {"optimize": "cbo", "success-prob": "cbo", "mfl-scaling": "coupling",
           "pde-run": "pde", "cutoff-check": None}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_shipped_configs_sit_on_the_time_grid(path):
    # each shipped horizon is a whole number of dt steps, to the bit, so the
    # time grid's step h / n is the config's dt itself; a config that would
    # silently be stepped at another step fails here
    from cbolab.config import EXPERIMENTS
    from cbolab.objectives import time_grid
    assert set(STEPPED) == set(EXPERIMENTS)
    cfg = resolve_config(json.loads(path.read_text()))
    section = STEPPED[cfg["experiment"]]
    if section is not None:             # cutoff-check takes no time step
        c = cfg[section]
        assert time_grid(c["horizon"], c["dt"])[1] == c["dt"]


def _trajectory_rows(out):
    text = (out / "trajectory.csv").read_text()
    return [line.split(",") for line in text.splitlines()[1:]]


def test_optimize_lands_on_a_horizon_dt_does_not_divide(tmp_path):
    # 1.05 at cbo.dt = 0.1 is 10 steps of 0.105 that end at t = 1.05: the
    # run asked for cbo.dt = 0.105, with `step` the record index
    outs = []
    for dt in ("0.1", "0.105"):
        out = tmp_path / dt
        assert main(["run", "--config", OPTIMIZE, "--output", str(out),
                     "--set", "cbo.horizon=1.05", "--set", f"cbo.dt={dt}"]) == 0
        outs.append(out)
    assert ((outs[0] / "trajectory.csv").read_bytes()
            == (outs[1] / "trajectory.csv").read_bytes())
    rows = _trajectory_rows(outs[0])
    assert [int(row[0]) for row in rows] == list(range(11))
    assert float(rows[-1][1]) == 1.05
    assert "steps: 10\n" in (outs[0] / "summary.txt").read_text()


def test_decay_fit_ends_at_a_horizon_below_one_step(tmp_path):
    # one step of the horizon, not of cbo.dt = 0.01
    out = tmp_path / "run"
    assert main(["run", "--config", str(CONFIGS / "decay-fit.json"),
                 "--output", str(out), "--set", "cbo.horizon=0.001"]) == 0
    rows = _trajectory_rows(out)
    assert [row[0] for row in rows] == ["0", "1"]
    assert float(rows[-1][1]) == 0.001


@pytest.mark.parametrize("text", [
    None, "[1, 2]", '"optimize"',
    json.dumps({"package_version": cbolab.__version__, "config": [1]}),
], ids=["missing", "list", "string", "manifest-of-a-list"])
def test_unusable_config_files_are_errors(tmp_path, capsys, text):
    # a missing file, or one whose top level is no JSON object
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("raw,message", [
    ({"check": {"stability_max": True}}, "check.stability_max: expected number, got bool"),
    ({"cutoff": {"box": False}}, "cutoff.box: expected number, got bool"),
    ({"seed": True}, "seed: expected int, got bool"),
    ({"cutoff": {"box": "3"}}, "cutoff.box: expected number, got str"),
    ({"cutoff": {"box": float("inf")}}, "cutoff.box: need a finite number, got inf"),
    ({"cutoff": {"valpha_const": [0.3, float("nan")]}},
     r"cutoff.valpha_const: need a finite number, got \[0.3, nan\]"),
    ({"cutoff": {"valpha_const": [0.3, True]}},
     r"cutoff.valpha_const: need a list of numbers, got \[0.3, True\]"),
    ({"cutoff": {"box": -1}}, "cutoff.box: need a positive value, got -1"),
    ({"cutoff": {"field": "cubic"}},
     "cutoff.field: need one of cbo, quartic, got 'cubic'"),
])
def test_mistyped_values_are_rejected(raw, message):
    # a bool is an int to isinstance, so `true` used to pass as the number 1
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        resolve_config({"experiment": "cutoff-check", **raw})


@pytest.mark.parametrize("raw", [
    {"workers": 2},
    {"objective": {"growth": {"count": 10}}},
    {"cutoff": {"t_samples": [0.0]}},
    {"pde": {"form": "cbo"}},
    {"pde": {"assembly": "divergence"}},
    {"cutoff": {"h_table": 1e-3}},
    {"cutoff": {"h_fd": 1e-5}},
    {"output_dir": "runs/out"},
    {"cbo": {"seed": 3}},
    {"check": {"all_satisfied": True}},
])
def test_keys_no_experiment_reads_are_rejected(raw):
    with pytest.raises(ConfigurationError):
        resolve_config({"experiment": "success-prob", **raw})
    base = default_config()
    assert "workers" not in base and "growth" not in base["objective"]
    assert not {"t_samples", "h_table", "h_fd"} & set(base["cutoff"])


def test_workers_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--config", OPTIMIZE, "--output", str(tmp_path / "x"),
              "--workers", "2"])


def test_cli_import_loads_no_scipy():
    # scipy serves only Sobol sampling (cutoff checks) and costs most
    # of the start-up time, so importing the command line must not load
    # any scipy module; nor numpy.polynomial, whose Gauss-Legendre rule
    # the cutoff table carries as constants
    src = os.path.dirname(os.path.dirname(os.path.abspath(cbolab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cbolab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy', 'numpy.polynomial'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_trace_attaches(tmp_path):
    # the benchmark's trace mode wraps package functions by name at start-up,
    # so renaming or deleting one of them fails here first
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timing = tmp_path / "t.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "launch.py"),
                    str(timing), "trace", "run", "--config",
                    OPTIMIZE,
                    "--output", str(tmp_path / "o")],
                   cwd=ROOT, env=env, timeout=120, capture_output=True,
                   check=True)
    doc = json.loads(timing.read_text())
    assert doc["rc"] == 0
    assert "particle.cbo_step" in doc["spans"]


def test_benchmark_trace_counts_spectral_stages(tmp_path):
    # the benchmark's RKC stage count is galerkin.rhs calls per galerkin.step
    # call, so every stage must reach the solver through the module's `rhs`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timing = tmp_path / "t.json"
    sets = ["pde.K=8", "pde.M=32", "pde.horizon=0.01",
            "pde.snapshot_times=[0.0, 0.01]"]
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "launch.py"),
                    str(timing), "trace", "run", "--config",
                    str(CONFIGS / "pde-run.json"),
                    "--output", str(tmp_path / "o")]
                   + [arg for item in sets for arg in ("--set", item)],
                   cwd=ROOT, env=env, timeout=120, capture_output=True,
                   check=True)
    doc = json.loads(timing.read_text())
    assert doc["rc"] == 0
    spans = doc["spans"]
    assert spans["galerkin.rhs"]["calls"] > spans["galerkin.step"]["calls"] >= 1


def _check_lines(out):
    text = open(os.path.join(out, "summary.txt")).read().splitlines()
    return text[text.index("checks:") + 1:] if "checks:" in text else []


def test_unmeasured_threshold_fails(tmp_path):
    # optimize measures neither mass drift nor confinement: both thresholds
    # must fail instead of being skipped
    out = str(tmp_path / "run")
    assert main(["run", "--config", OPTIMIZE, "--output", out,
                 "--set", "check.mass_drift_max=0",
                 "--set", "check.confinement_max=-1", "--check"]) == 2
    lines = _check_lines(out)
    assert [line.split(":")[0].strip() for line in lines] == [
        "final_w2_max", "mass_drift_max", "confinement_max"]
    assert lines[0].startswith("  final_w2_max: PASS")
    assert lines[1] == "  mass_drift_max: FAIL (optimize does not measure mass_drift)"
    assert "FAIL (optimize does not measure right_mass_sup)" in lines[2]


TINY_PDE_RUN = ["pde.K=8", "pde.M=32", "pde.horizon=0.01",
                "pde.snapshot_times=[]"]


def test_valpha_const_freezes_the_consensus(tmp_path):
    # pde-run is self-consistent as shipped; a consensus point, once given,
    # is the one the run uses at every recorded time
    out = tmp_path / "run"
    argv = ["run", "--config", str(CONFIGS / "pde-run.json"), "--output", str(out)]
    for item in TINY_PDE_RUN + ["pde.valpha_const=[5.0, 5.0]"]:
        argv += ["--set", item]
    assert main(argv) == 0
    header, *rows = (out / "series.csv").read_text().splitlines()
    columns = header.split(",")
    assert columns[2:4] == ["valpha_1", "valpha_2"] and len(rows) > 1
    for row in rows:
        assert [float(v) for v in row.split(",")[2:4]] == [5.0, 5.0]


def test_manifest_of_0_11_0_is_rejected(tmp_path, capsys):
    # 0.11.0 echoed pde.valpha_mode next to a pde.valpha_const of [0, 0]
    # that a self-consistent run never read; replayed now, that point would
    # freeze the consensus, so the old manifest ends in an error instead
    cfg = resolve_config(json.loads((CONFIGS / "pde-run.json").read_text()))
    cfg["cbo"]["record_every"] = 1
    cfg["pde"].update(valpha_mode="self_consistent", valpha_const=[0.0, 0.0])
    cfg["diagnostics"] = {"fit_window": [], "transient_steps": 5}
    old = _write_cfg(tmp_path, json.loads(manifest_text(cfg, "0.11.0")),
                     "manifest.json")
    out = tmp_path / "run"
    assert main(["run", "--config", old, "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("warning: ") and "0.11.0" in err[0]
    assert err[1].startswith("error: unknown config ")
    assert not out.exists()


@pytest.mark.parametrize("item", ["cbo.record_every=1",
                                  "objective.dim=2", "pde.dim=2",
                                  'pde.valpha_mode="frozen"',
                                  "diagnostics.fit_window=[0.1, 1.0]",
                                  "diagnostics.transient_steps=5"])
def test_removed_keys_are_unknown(tmp_path, capsys, item):
    out = tmp_path / "run"
    assert main(["run", "--config", OPTIMIZE, "--output", str(out),
                 "--set", item]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown config ")
    assert not out.exists()


@pytest.mark.parametrize("raw,sets", [
    ({**OPTIMIZE_CFG, "": {"seed": 5}}, []),
    (OPTIMIZE_CFG, ["--set", ".seed=5"]),
    (OPTIMIZE_CFG, ["--set", '={"seed": 5}']),
], ids=["config-file", "override", "dict-override"])
def test_empty_section_name_is_unknown(tmp_path, capsys, raw, sets):
    # the root section's keys are written without a dot; an empty section
    # name used to fill a junk "" section and leave the key as it was
    cfg = _write_cfg(tmp_path, raw)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--output", str(out), *sets]) == 1
    assert capsys.readouterr().err.splitlines() == [
        'error: unknown config section: ""']
    assert not out.exists()


@pytest.mark.parametrize("raw,sets,shown", [
    ({**OPTIMIZE_CFG, "cbo": {**OPTIMIZE_CFG["cbo"], "": 1}}, [], 'cbo.""'),
    (OPTIMIZE_CFG, ["--set", "cbo.=5"], 'cbo.""'),
    (OPTIMIZE_CFG, ["--set", "=5"], '""'),
    (OPTIMIZE_CFG, ["--set", 'cbo={"": 1}'], 'cbo.""'),
], ids=["config-file", "section-override", "root-override", "dict-override"])
def test_empty_key_name_is_shown_quoted(tmp_path, capsys, raw, sets, shown):
    # an empty key name is unknown, and the error names it as "" rather
    # than ending at the colon or the dot
    cfg = _write_cfg(tmp_path, raw)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--output", str(out), *sets]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: unknown config key: {shown}"]
    assert not out.exists()


@pytest.mark.parametrize("below,code", [(None, errno.EEXIST),
                                        ("sub", errno.ENOTDIR)])
def test_output_that_cannot_be_a_directory_is_an_error(tmp_path, capsys,
                                                       below, code):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if below is None else blocker / below
    assert main(["run", "--config", OPTIMIZE, "--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --output {out}: cannot write ({os.strerror(code)})"]
    assert blocker.read_text() == ""


SMALL_PDE = [str(CONFIGS / "pde-run.json"), "--set", "pde.K=8", "--set",
             "pde.M=32", "--set", "pde.horizon=0.004", "--set",
             "pde.snapshot_times=[0.0, 0.004]"]


@pytest.mark.parametrize("config,blocked", [
    (SMALL_PDE, "grid_0000.csv"),
    (SMALL_PDE, "snapshot_coeffs_0001.csv"),
    (SMALL_PDE, "series.csv"),
    ([OPTIMIZE], "trajectory.csv"),
    ([OPTIMIZE], "summary.txt"),
], ids=["pde-grid", "pde-coeffs", "pde-series", "optimize-csv",
        "optimize-summary"])
def test_output_file_that_cannot_be_written_is_an_error(tmp_path, capsys,
                                                        config, blocked):
    # a directory where an output file belongs: the run ends in one error
    # line that names the file, not in a traceback
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    assert main(["run", "--config", *config, "--output", str(out)]) == 1
    path = out / blocked
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: cannot write ({os.strerror(errno.EISDIR)})"]


def _assert_overflow_is_one_error_line(tmp_path, capsys, name, section,
                                       *extra):
    # no drift and a large kick: the objective overflows, which leaves the
    # consensus point undefined; numpy's own overflow warnings stay silent
    out = tmp_path / "run"
    argv = ["run", "--config", str(CONFIGS / f"{name}.json"), "--output", str(out)]
    for item in ("dt=1", "horizon=2000", "sigma=30", "lambda=0"):
        argv += ["--set", f"{section}.{item}"]
    for item in extra:
        argv += ["--set", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: non-finite objective value for particle ")


def test_particle_run_that_overflows_is_one_error_line(tmp_path, capsys):
    _assert_overflow_is_one_error_line(tmp_path, capsys, "optimize", "cbo")


def test_coupling_run_that_overflows_is_one_error_line(tmp_path, capsys):
    _assert_overflow_is_one_error_line(
        tmp_path, capsys, "mfl-scaling", "coupling",
        "coupling.sizes=[4, 8, 16]", "coupling.reference_size=64")


def test_check_table_is_the_check_schema():
    from cbolab.config import CHECKS, SCHEMA
    assert list(CHECKS) == list(SCHEMA["check"])
    for key, (quantity, op) in CHECKS.items():
        assert op in ("<=", ">=", ">")
        assert op != "<=" or key.endswith("_max")
        assert op != ">=" or key.endswith("_min")


@pytest.mark.parametrize("name", ["optimize", "decay-fit", "lemma-check",
                                  "assumptions-check"])
def test_shipped_config_yields_its_checks(tmp_path, name):
    # the quartic field of assumptions-check fails honestly: its
    # J_vs_sqrtG sup grows by 59.6% when the sample doubles
    from cbolab.config import CHECKS
    path = CONFIGS / f"{name}.json"
    configured = json.loads(path.read_text())["check"]
    out = str(tmp_path / "run")
    fails = name == "assumptions-check"
    assert main(["run", "--config", str(path), "--output", out,
                 "--check"]) == (2 if fails else 0)
    lines = _check_lines(out)
    assert [line.split(":")[0].strip() for line in lines] == [
        key for key in CHECKS if key in configured]
    if fails:
        assert lines == ["  stability_max: FAIL (worst_rel_change = "
                         "0.596046149, required <= 0.05)"]
    else:
        assert all(": PASS (" in line for line in lines)


def _summary_checks(tmp_path, check, measured):
    from cbolab.experiments import write_summary
    cfg = {"experiment": "test", "check": check}
    return write_summary(cfg, str(tmp_path), ["a line"], measured)


def test_check_comparisons_at_equality(tmp_path):
    # _min and _max bounds hold at equality; the positivity floor is strict
    checks = _summary_checks(
        tmp_path, {"rate_min": 1.5, "rate_max": 1.5, "positivity_floor": 1e-12},
        {"rate": 1.5, "min_density": 1e-12})
    assert [(name, ok) for name, ok, _ in checks] == [
        ("rate_min", True), ("rate_max", True), ("positivity_floor", False)]
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[1:4] == ["experiment: test", "a line", "checks:"]
    assert summary[-1] == ("  positivity_floor: FAIL (min_density = 1e-12, "
                           "required > 1e-12)")


def test_check_detail_keeps_six_significant_digits(tmp_path):
    checks = _summary_checks(tmp_path, {"r2_min": 0.95, "slope_max": -0.7},
                             {"r2": 0.99999, "slope": -0.95036417})
    assert checks[0] == ("r2_min", True, "r2 = 0.99999, required >= 0.95")
    assert "slope = -0.950364" in checks[1][2]


def test_nonfinite_sup_fails_stability_max(tmp_path, monkeypatch):
    # max() drops a NaN relative change, so the failure must come from the
    # measurement itself
    from cbolab import experiments
    real = experiments.growth_sups

    def unbounded(*args, **kwargs):
        sups = real(*args, **kwargs)
        sups[next(iter(sups))] = float("inf")
        return sups

    monkeypatch.setattr(experiments, "growth_sups", unbounded)
    payload = {
        "experiment": "cutoff-check",
        "seed": 2,
        "cutoff": {"R": 5.0, "n": 50.0, "samples": 500,
                   "valpha_const": [0.3, -0.2]},
        "check": {"stability_max": 1e300},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out, "--check"]) == 2
    assert _check_lines(out) == [
        "  stability_max: FAIL (worst_rel_change = nan, required <= 1e+300)"]
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "worst relative change under refinement: nan%" in summary


@pytest.mark.parametrize("name,sets,csv,checks", [
    ("mfl-scaling", ["coupling.sigma=0", "coupling.init_spread=0",
                     "coupling.sizes=[4,8,16]", "coupling.reference_size=64"],
     "scaling.csv", ["slope_min", "slope_max"]),
    ("decay-fit", ["cbo.horizon=0.03", "cbo.n_particles=50"],
     "trajectory.csv", ["rate_min", "rate_max", "r2_min"]),
    ("mfl-scaling", ["coupling.sizes=[4,4,4]", "coupling.reference_size=64"],
     "scaling.csv", ["slope_min", "slope_max"]),
])
def test_fit_that_cannot_be_made_is_reported(tmp_path, name, sets, csv, checks):
    # a deterministic coupling has no nonzero errors to fit, one distinct
    # size has no slope, and a horizon before the fit window's start, 5 dt,
    # leaves no samples in it: each is reported, not raised
    path = CONFIGS / f"{name}.json"
    experiment = json.loads(path.read_text())["experiment"]
    args = ["run", "--config", str(path)]
    for item in sets:
        args += ["--set", item]
    out = tmp_path / "run"
    assert main(args + ["--output", str(out)]) == 0
    assert main(args + ["--output", str(out), "--check"]) == 2
    assert (out / csv).exists()
    summary = (out / "summary.txt").read_text()
    assert ": not measured (need at least " in summary
    assert _check_lines(str(out)) == [
        f"  {check}: FAIL ({experiment} does not measure "
        f"{check.rsplit('_', 1)[0]})"
        for check in checks]


# settings that are wrong only against another key's value: the driver
# rejects them after writing the manifest.  Every other bad setting is
# wrong on its own and fails at load, before the output directory is made.
BETWEEN_KEYS = {
    "pde.M=31", "pde.init_center=[7.9, 0.0]", "pde.init_center=[-55.0]",
    "pde.init_center=[0.25, 0.25]",
    "pde.snapshot_times=[0.0, 0.5]", "pde.snapshot_times=[0.004, 0.0041]",
    "pde.valpha_const=[0.0, 0.0]", "pde.valpha_const=[0.5]",
    "pde.annulus_inner=0.25", "pde.annulus_outer=5.0", "pde.annulus_inner=5.0",
    "pde.v_star=100", "pde.v_star=-56", "pde.v_star=0.0", "cutoff.n=1",
}


def _assert_rejected(tmp_path, capsys, name, sets, key):
    """`configs/<name>.json` with the `--set` items `sets` ends in one
    `error:` line naming `key` and exit 1, having written the manifest
    alone (see BETWEEN_KEYS) or nothing; returns that line."""
    out = tmp_path / "run"
    argv = ["run", "--config", str(CONFIGS / f"{name}.json"), "--output", str(out)]
    assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {key}: ")
    if BETWEEN_KEYS & set(sets):
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    else:
        assert not out.exists()
    return lines[0]


@pytest.mark.parametrize("name,item,key", [
    ("optimize", "cbo.dt=0", "cbo.dt"),
    ("optimize", "cbo.lambda=-1", "cbo.lambda"),
    ("optimize", "cbo.sigma=-0.5", "cbo.sigma"),
    ("optimize", "cbo.alpha=-1", "cbo.alpha"),
    ("success-prob", "cbo.sigma=-1", "cbo.sigma"),
    ("decay-fit", "cbo.alpha=-20", "cbo.alpha"),
    ("mfl-scaling", "coupling.lambda=-1", "coupling.lambda"),
    ("mfl-scaling", "coupling.sigma=-1", "coupling.sigma"),
    ("mfl-scaling", "coupling.alpha=-10", "coupling.alpha"),
    ("optimize", "cbo.n_particles=0", "cbo.n_particles"),
    ("success-prob", "cbo.n_particles=0", "cbo.n_particles"),
    ("success-prob", "success.runs=0", "success.runs"),
    ("decay-fit", "cbo.dt=-0.1", "cbo.dt"),
    ("optimize", "cbo.horizon=-1", "cbo.horizon"),
    ("success-prob", "cbo.horizon=0", "cbo.horizon"),
    ("mfl-scaling", "coupling.horizon=0", "coupling.horizon"),
    ("mfl-scaling", "coupling.dt=0", "coupling.dt"),
    *((name, "objective.name=foo", "objective.name")
      for name in ("optimize", "decay-fit", "success-prob", "mfl-scaling")),
    # a run's dimension is the length of its centre: at least one number
    *((name, f"{section}.init_center=[]", f"{section}.init_center")
      for name, section in (("optimize", "cbo"), ("decay-fit", "cbo"),
                            ("success-prob", "cbo"),
                            ("mfl-scaling", "coupling"))),
    ("optimize", "seed=-1", "seed"),
    # the noise streams would run seed mod 2**64 under another seed's name
    ("optimize", f"seed={2**64}", "seed"),
    # JSON's NaN and Infinity are no settings
    ("optimize", "cbo.horizon=Infinity", "cbo.horizon"),
    ("optimize", "cbo.dt=Infinity", "cbo.dt"),
    ("success-prob", "success.epsilon=NaN", "success.epsilon"),
    ("optimize", "cbo.init_center=[0.0, -Infinity]", "cbo.init_center"),
    ("optimize", 'cbo.init_center=["a", 1]', "cbo.init_center"),
    ("mfl-scaling", 'coupling.init_center=["a", 1]', "coupling.init_center"),
    ("optimize", "cbo.init_spread=-1", "cbo.init_spread"),
    ("mfl-scaling", "coupling.init_spread=-1", "coupling.init_spread"),
    ("success-prob", "success.epsilon=-1", "success.epsilon"),
])
def test_out_of_range_particle_settings_are_errors(tmp_path, capsys, name,
                                                   item, key):
    _assert_rejected(tmp_path, capsys, name, [item], key)


@pytest.mark.parametrize("name,item,key", [
    ("lemma-check", "cutoff.R=0.5", "cutoff.R"),
    ("pde-run", "cutoff.n=-1", "cutoff.n"),
    ("confinement-1d", "cutoff.R=1", "cutoff.R"),
    ("lemma-check", "cutoff.samples=0", "cutoff.samples"),
    ("assumptions-check", "cutoff.samples=0", "cutoff.samples"),
    ("assumptions-check", "cutoff.box=0", "cutoff.box"),
    ("assumptions-check", "cutoff.box=-3", "cutoff.box"),
    ("assumptions-check", "cutoff.valpha_const=[]", "cutoff.valpha_const"),
    ("lemma-check", "cutoff.valpha_const=[]", "cutoff.valpha_const"),
    ("lemma-check", 'cutoff.valpha_const=["a"]', "cutoff.valpha_const"),
    # a cutoff check never reads the objective, whose values are still checked
    ("lemma-check", "objective.name=foo", "objective.name"),
    ("lemma-check", "cutoff.n=Infinity", "cutoff.n"),
    # Sobol scrambling takes no negative seed
    ("lemma-check", "seed=-1", "seed"),
    ("lemma-check", f"seed={2**64}", "seed"),
])
def test_out_of_range_cutoff_and_fit_settings_are_errors(tmp_path, capsys, name,
                                                         item, key):
    _assert_rejected(tmp_path, capsys, name, [item], key)


@pytest.mark.parametrize("name,item,key", [
    # a negative alpha would weight the density consensus by exp(+|alpha| f)
    ("pde-run", "cbo.alpha=-5", "cbo.alpha"),
    ("positivity", "cbo.alpha=-0.5", "cbo.alpha"),
    ("pde-run", "pde.L=-1", "pde.L"),
    ("pde-run", "pde.L=0", "pde.L"),
    ("pde-run", "pde.init_radius=0", "pde.init_radius"),
    ("confinement-1d", "pde.init_radius=-1", "pde.init_radius"),
    ("pde-run", "objective.name=foo", "objective.name"),
    # a frozen consensus point never reads the objective, whose values are
    # still checked
    ("confinement-1d", "objective.name=foo", "objective.name"),
    ("pde-run", "pde.horizon=Infinity", "pde.horizon"),
    ("pde-run", "pde.L=Infinity", "pde.L"),
    ("pde-run", 'pde.init_center=["a", 1]', "pde.init_center"),
    ("confinement-1d", 'pde.valpha_const=["a"]', "pde.valpha_const"),
    ("confinement-1d", "pde.valpha_const=[NaN]", "pde.valpha_const"),
])
def test_out_of_range_pde_settings_are_errors(tmp_path, capsys, name, item, key):
    # each is rejected before the solve starts
    _assert_rejected(tmp_path, capsys, name, [item], key)


def test_the_version_has_a_format_note():
    # a version bump says in docs/formats.md what it changed
    notes = (ROOT / "docs" / "formats.md").read_text()
    assert f"Version {cbolab.__version__} " in notes


def test_one_version_string():
    # the project version is read from cbolab.__version__, never restated
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "cbolab.__version__"}


@pytest.mark.parametrize("item,key", [
    ("pde.dt=0", "pde.dt"),
    ("pde.dt=-0.001", "pde.dt"),
    ("pde.horizon=-0.01", "pde.horizon"),
    ("pde.horizon=0", "pde.horizon"),
    ("pde.record_every=0", "pde.record_every"),
    ("pde.snapshot_times=[0.0, 0.5]", "pde.snapshot_times"),     # past horizon
    ("pde.snapshot_times=[-0.5]", "pde.snapshot_times"),
    ('pde.snapshot_times=["a"]', "pde.snapshot_times"),
    ("pde.snapshot_times=[0.004, 0.0041]", "pde.snapshot_times"),  # one step
    # the density lives in 1 or 2 dimensions, the length of its centre
    ("pde.init_center=[]", "pde.init_center"),
    ("pde.init_center=[2.0, 2.0, 7.0]", "pde.init_center"),
    # the layout: no spectral field takes it
    ("pde.K=-4", "pde.K"),
    ("pde.K=0", "pde.K"),
    pytest.param(("pde.K=0", "pde.M=0"), "pde.K", id="pde.K=0,pde.M=0-pde.K"),
    ("pde.M=31", "pde.M"),                                       # M < 4K
])
def test_bad_pde_time_settings_are_errors(tmp_path, capsys, item, key):
    # a valid tiny run but for `item` (one setting or a tuple of them): the
    # shipped snapshot at t = 0.5 would itself be an error at this horizon
    sets = ["pde.K=8", "pde.M=32", "pde.horizon=0.01",
            "pde.snapshot_times=[0.0, 0.01]",
            *((item,) if isinstance(item, str) else item)]
    _assert_rejected(tmp_path, capsys, "pde-run", sets, key)


@pytest.mark.parametrize("name,sets,words", [
    # the bump's support leaves the box [-L, L] on one axis
    ("pde-run", ["pde.init_center=[7.9, 0.0]"], ("init_radius", "L = 8")),
    ("confinement-1d", ["pde.init_center=[-55.0]"], ("init_radius", "L = 56")),
    # a bump inside the box that covers no grid point
    ("pde-run", ["pde.init_center=[0.25, 0.25]", "pde.init_radius=0.01"],
     ("init_radius", "empty density")),
])
def test_bump_outside_the_box_or_the_grid_is_an_error(tmp_path, capsys, name,
                                                       sets, words):
    tiny = ["pde.K=8", "pde.M=32", "pde.horizon=0.01"]
    if name == "pde-run":
        tiny.append("pde.snapshot_times=[0.0, 0.01]")
    line = _assert_rejected(tmp_path, capsys, name, tiny + sets,
                            "pde.init_center")
    assert all(word in line for word in words)


def test_bump_removed_by_the_initial_taper_is_a_cutoff_error(tmp_path, capsys):
    # the bump lies inside the box and on grid points, but the taper (1 up
    # to n, 0 beyond n + 1) zeroes every one of its samples
    sets = ["pde.K=8", "pde.M=32", "pde.horizon=0.01",
            "pde.snapshot_times=[0.0, 0.01]", "cutoff.n=1"]
    line = _assert_rejected(tmp_path, capsys, "pde-run", sets, "cutoff.n")
    assert "n + 1 = 2" in line


@pytest.mark.parametrize("name,sets,key", [
    # a frozen consensus point has as many entries as pde.init_center
    ("confinement-1d", ["pde.valpha_const=[0.0, 0.0]"], "pde.valpha_const"),
    ("pde-run", ["pde.valpha_const=[0.5]"], "pde.valpha_const"),
    # an annulus needs both radii, with 0 <= inner < outer
    ("pde-run", ["pde.annulus_inner=0.25"], "pde.annulus_inner"),
    ("pde-run", ["pde.annulus_outer=5.0"], "pde.annulus_inner"),
    ("positivity", ["pde.annulus_inner=5.0"], "pde.annulus_inner"),
    ("positivity", ["pde.annulus_inner=-0.1"], "pde.annulus_inner"),
    # v* is a point inside a 1-D box
    ("confinement-1d", ["pde.v_star=100"], "pde.v_star"),
    ("confinement-1d", ["pde.v_star=-56"], "pde.v_star"),
    ("pde-run", ["pde.v_star=0.0"], "pde.v_star"),
])
def test_bad_pde_probe_settings_are_errors(tmp_path, capsys, name, sets, key):
    _assert_rejected(tmp_path, capsys, name, TINY_PDE_RUN + sets, key)


@pytest.mark.parametrize("sets,reason", [
    # with 2 records the path speeds cannot be taken either
    (["pde.horizon=0.002", "pde.annulus_inner=0.01",
      "pde.annulus_outer=0.02"], "annulus contains no grid points"),
    (["pde.horizon=0.02", "pde.annulus_inner=0.01", "pde.annulus_outer=0.02"],
     "annulus contains no grid points"),
])
def test_annulus_probe_that_cannot_be_taken_is_reported(tmp_path, sets, reason):
    # the solve and its series stay; the probe and its threshold are not
    # measured
    args = ["run", "--config", str(CONFIGS / "positivity.json")]
    for item in ["pde.K=8", "pde.M=32"] + sets:
        args += ["--set", item]
    out = tmp_path / "run"
    assert main(args + ["--output", str(out)]) == 0
    assert main(args + ["--output", str(out), "--check"]) == 2
    assert (out / "series.csv").exists() and not (out / "probe.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert f"min density on annulus: not measured ({reason})" in summary
    assert "consensus speed sup: " in summary
    assert _check_lines(str(out))[-1] == (
        "  positivity_floor: FAIL (pde-run does not measure min_density)")


def test_short_consensus_path_still_measures_the_annulus(tmp_path):
    # 2 records give no path speeds, but the annulus minimum is taken
    args = ["run", "--config", str(CONFIGS / "positivity.json")]
    for item in ["pde.K=8", "pde.M=32", "pde.horizon=0.002",
                 "check.positivity_floor=-1.0"]:
        args += ["--set", item]
    out = tmp_path / "run"
    assert main(args + ["--output", str(out), "--check"]) == 0
    header, row = (out / "probe.csv").read_text().splitlines()
    assert header.endswith(",speed_sup,holder_sup")
    assert row.split(",")[-2:] == ["nan", "nan"]
    summary = (out / "summary.txt").read_text().splitlines()
    assert ("consensus speed sup: not measured (need at least 3 path "
            "samples)") in summary
    assert any(line.startswith("min density on annulus ") and "(value " in line
               for line in summary)
    assert _check_lines(str(out))[-1].startswith(
        "  positivity_floor: PASS (min_density = ")


def test_summary_prints_a_point_on_one_line(tmp_path):
    # numpy wraps at 75 characters; a 10-D consensus point stays one line
    args = ["run", "--config", OPTIMIZE]
    for item in ["objective.name=ackley",
                 "cbo.init_center=[1,1,1,1,1,1,1,1,1,1]", "cbo.horizon=0.5"]:
        args += ["--set", item]
    out = tmp_path / "run"
    assert main(args + ["--output", str(out)]) == 0
    summary = (out / "summary.txt").read_text().splitlines()
    point = [line for line in summary if line.startswith("final consensus")]
    assert len(point) == 1 and point[0].endswith("]")
    assert len(point[0].split("[")[1].split()) == 10
    # each line is one labelled item, none a wrapped tail
    assert all(":" in line for line in summary)


def test_one_solve_takes_both_probes(tmp_path):
    # probes follow from their keys, which have no defaults: a 1-D run
    # that sets v* and an annulus writes both from one solve
    assert not {"annulus_inner", "annulus_outer", "v_star"} & set(
        default_config()["pde"])
    payload = {
        "experiment": "pde-run",
        "pde": {"L": 12.0, "K": 64, "M": 256, "dt": 5e-3,
                "horizon": 0.05, "valpha_const": [0.0],
                "init_center": [-2.25],
                "init_radius": 1.75, "record_every": 5, "v_star": 0.0,
                "annulus_inner": 0.5, "annulus_outer": 4.0},
        "cutoff": {"R": 4.0, "n": 4.5},
        "check": {"positivity_floor": -1.0, "confinement_max": 1.0},
    }
    out = tmp_path / "run"
    assert main(["run", "--config", _write_cfg(tmp_path, payload),
                 "--output", str(out), "--check"]) == 0
    assert [line.split(":")[0].strip() for line in _check_lines(str(out))] == [
        "positivity_floor", "confinement_max"]
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "time,mass,valpha_1,right_mass" and len(series) == 4
    header, row = (out / "probe.csv").read_text().splitlines()
    assert header == "min_density,argmin_1,mass_drift,speed_sup,holder_sup"
    argmin = float(row.split(",")[1])
    assert 0.5 <= abs(argmin) <= 4.0
