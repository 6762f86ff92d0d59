import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cbolab
from cbolab.cli import main
from cbolab.config import ConfigError, default_config, resolve_config


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


OPTIMIZE_CFG = {
    "experiment": "optimize",
    "seed": 7,
    "objective": {"name": "quadratic", "dim": 2},
    "cbo": {"lambda": 1.0, "sigma": 0.0, "alpha": 20.0, "dt": 0.1,
            "n_particles": 1000, "horizon": 6.0,
            "init_center": [0.0, 0.0], "init_spread": 0.02},
    "check": {"final_w2_max": 1e-6},
}


def test_experiment_lists_agree():
    from cbolab.config import EXPERIMENTS
    from cbolab.experiments import DRIVERS
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    shipped = {json.loads(path.read_text())["experiment"]
               for path in configs.glob("*.json")}
    assert set(EXPERIMENTS) == set(DRIVERS) == shipped
    assert len(EXPERIMENTS) == len(set(EXPERIMENTS))


def test_optimize_deterministic_contraction(tmp_path):
    cfg = _write_cfg(tmp_path, OPTIMIZE_CFG)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out, "--check"]) == 0
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "PASS" in summary


def test_trajectory_schema(tmp_path):
    cfg = _write_cfg(tmp_path, OPTIMIZE_CFG)
    out = str(tmp_path / "run")
    main(["run", "--config", cfg, "--output", out])
    header = open(os.path.join(out, "trajectory.csv")).readline().strip()
    assert header == ("step,time,valpha_1,valpha_2,w2_sq_to_vstar,variance,"
                      "ess,log_normalizer")


def test_manifest_replay_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, OPTIMIZE_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", "--config", cfg, "--output", out1])
    manifest = os.path.join(out1, "manifest.json")
    assert main(["run", "--config", manifest, "--output", out2]) == 0
    a = open(os.path.join(out1, "trajectory.csv"), "rb").read()
    b = open(os.path.join(out2, "trajectory.csv"), "rb").read()
    assert a == b


def test_unknown_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {**OPTIMIZE_CFG, "cbo": {"sigmaa": 1.0}})
    assert main(["run", "--config", cfg, "--output", str(tmp_path / "x")]) == 1
    cfg2 = _write_cfg(tmp_path, {**OPTIMIZE_CFG, "experiment": "nope"}, "c2.json")
    assert main(["run", "--config", cfg2, "--output", str(tmp_path / "y")]) == 1


def test_override_rejects_unknown_and_applies_known(tmp_path):
    cfg = _write_cfg(tmp_path, OPTIMIZE_CFG)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out,
                 "--set", "cbx.sigma=0.1"]) == 1
    assert main(["run", "--config", cfg, "--output", out,
                 "--set", "cbo.horizon=1.0"]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["cbo"]["horizon"] == 1.0


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, OPTIMIZE_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", "--config", cfg, "--output", out1])
    main(["run", "--config", cfg, "--output", out2])
    a = open(os.path.join(out1, "trajectory.csv"), "rb").read()
    b = open(os.path.join(out2, "trajectory.csv"), "rb").read()
    assert a == b


def test_check_mode_failure_exit_code(tmp_path):
    payload = dict(OPTIMIZE_CFG)
    payload["check"] = {"final_w2_max": 1e-30}
    cfg = _write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg, "--output", str(tmp_path / "r"),
                 "--check"]) == 2


def test_plot_data_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, OPTIMIZE_CFG)
    out = str(tmp_path / "run")
    main(["run", "--config", cfg, "--output", out])
    assert main(["plot-data", out]) == 0
    dat = open(os.path.join(out, "decay.dat")).read().splitlines()
    assert dat[0].startswith("#")
    assert len(dat) > 10
    assert os.path.exists(os.path.join(out, "decay.gp"))


def test_plot_data_empty_dir_fails(tmp_path):
    assert main(["plot-data", str(tmp_path)]) == 1


def test_assumptions_check_quartic(tmp_path):
    payload = {
        "experiment": "assumptions-check",
        "seed": 1,
        "cutoff": {"field": "quartic", "valpha_const": [0.0, 0.0],
                   "samples": 2000, "box": 3.0},
        "check": {"all_satisfied": True},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out, "--check"]) == 0
    rows = open(os.path.join(out, "inequalities.csv")).read().splitlines()
    assert rows[0] == "quantity,sup,sample_count,satisfied"
    assert len(rows) == 5


def test_lemma_check_end_to_end(tmp_path):
    payload = {
        "experiment": "lemma-check",
        "seed": 2,
        "cutoff": {"R": 5.0, "n": 50.0, "samples": 2000,
                   "valpha_const": [0.3, -0.2]},
        "check": {"stability_max": 0.05},
    }
    cfg = _write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg, "--output", str(tmp_path / "run"),
                 "--check"]) == 0


def test_mfl_scaling_small(tmp_path):
    payload = {
        "experiment": "mfl-scaling",
        "seed": 11,
        "objective": {"name": "quadratic", "dim": 2},
        "coupling": {"sizes": [8, 32, 128], "reference_size": 512,
                     "horizon": 0.5, "dt": 0.05, "lambda": 1.0,
                     "sigma": 0.5, "alpha": 5.0, "init_center": [1.0, 1.0]},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out]) == 0
    rows = open(os.path.join(out, "scaling.csv")).read().splitlines()
    assert rows[0] == "n,sup_mse" and len(rows) == 4
    assert main(["plot-data", out]) == 0


def test_success_prob_cli(tmp_path):
    payload = {
        "experiment": "success-prob",
        "seed": 5,
        "objective": {"name": "quadratic", "dim": 2},
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


def test_success_prob_cli_flags_objective_overflow(tmp_path):
    # the quadratic overflows long before the positions do: every run must
    # be flagged as diverged, not end the experiment with a traceback
    payload = {
        "experiment": "success-prob",
        "seed": 42,
        "objective": {"name": "quadratic", "dim": 2},
        "cbo": {"lambda": 0.0, "sigma": 1e3, "alpha": 30.0, "dt": 1.0,
                "n_particles": 3, "horizon": 60.0,
                "init_center": [1.0, 1.0], "init_spread": 2.0},
        "success": {"runs": 4, "epsilon": 0.25},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = str(tmp_path / "run")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", cfg, "--output", out]) == 0
    rows = open(os.path.join(out, "success.csv")).read().splitlines()
    assert len(rows) == 5
    assert all(row.endswith(",inf,0,1") for row in rows[1:])


def test_pde_run_small(tmp_path):
    payload = {
        "experiment": "pde-run",
        "seed": 0,
        "objective": {"name": "quadratic", "dim": 2},
        "cbo": {"alpha": 10.0},
        "pde": {"dim": 2, "L": 6.0, "K": 16, "M": 64, "dt": 5e-3,
                "horizon": 0.05,
                "valpha_mode": "self_consistent",
                "init_center": [1.0, 1.0],
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
        "experiment": "confinement-1d",
        "seed": 0,
        "pde": {"dim": 1, "L": 12.0, "K": 64, "M": 256, "dt": 5e-3,
                "horizon": 0.2, "valpha_mode": "frozen",
                "valpha_const": [0.0],
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
        "experiment": "positivity",
        "seed": 0,
        "objective": {"name": "quadratic", "dim": 2},
        "cbo": {"alpha": 10.0},
        "pde": {"dim": 2, "L": 6.0, "K": 16, "M": 64, "dt": 5e-3,
                "horizon": 0.1,
                "valpha_mode": "self_consistent",
                "init_center": [1.0, 1.0],
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
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "optimize", "bogus": {}})
    with pytest.raises(ConfigError):
        resolve_config({})
    base = default_config()
    assert "experiment" not in base  # required, no default


@pytest.mark.parametrize("raw", [
    {"workers": 2},
    {"objective": {"growth": {"count": 10}}},
    {"cutoff": {"t_samples": [0.0]}},
    {"pde": {"form": "cbo"}},
    {"pde": {"assembly": "divergence"}},
])
def test_keys_no_experiment_reads_are_rejected(raw):
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "success-prob", **raw})
    base = default_config()
    assert "workers" not in base and "growth" not in base["objective"]
    assert "t_samples" not in base["cutoff"]


def test_workers_flag_is_gone(tmp_path):
    cfg = _write_cfg(tmp_path, OPTIMIZE_CFG)
    with pytest.raises(SystemExit):
        main(["run", "--config", cfg, "--output", str(tmp_path / "x"),
              "--workers", "2"])


def test_cli_import_loads_no_scipy():
    # scipy serves only Sobol sampling (assumptions checks) and costs most
    # of the start-up time, so importing the command line must not load
    # any scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(cbolab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cbolab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _check_lines(out):
    text = open(os.path.join(out, "summary.txt")).read().splitlines()
    return text[text.index("checks:") + 1:] if "checks:" in text else []


def test_unmeasured_threshold_fails(tmp_path):
    # optimize measures neither mass drift nor confinement: both thresholds
    # must fail instead of being skipped
    cfg = _write_cfg(tmp_path, OPTIMIZE_CFG)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--output", out,
                 "--set", "check.mass_drift_max=0",
                 "--set", "check.confinement_max=-1", "--check"]) == 2
    lines = _check_lines(out)
    assert [line.split(":")[0].strip() for line in lines] == [
        "final_w2_max", "mass_drift_max", "confinement_max"]
    assert lines[0].startswith("  final_w2_max: PASS")
    assert lines[1] == "  mass_drift_max: FAIL (optimize does not measure mass_drift)"
    assert "FAIL (optimize does not measure right_mass_sup)" in lines[2]


def test_valpha_mode_typo_rejected(tmp_path, capsys):
    payload = {
        "experiment": "pde-run",
        "objective": {"name": "quadratic", "dim": 2},
        "pde": {"dim": 2, "L": 6.0, "K": 8, "M": 32, "dt": 5e-3,
                "horizon": 0.01, "valpha_mode": "self-consistent",
                "init_center": [1.0, 1.0], "init_radius": 0.8},
        "cutoff": {"R": 20.0, "n": 500.0},
    }
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--output", str(out)]) == 1
    assert "pde.valpha_mode" in capsys.readouterr().err
    assert not (out / "series.csv").exists()


def test_check_table_is_the_check_schema():
    from cbolab.config import CHECKS, SCHEMA
    assert list(CHECKS) == list(SCHEMA["check"])
    for key, (name, quantity, op) in CHECKS.items():
        assert op in ("<=", ">=", ">", None)
        assert op != "<=" or key.endswith("_max")
        assert op != ">=" or key.endswith("_min")


@pytest.mark.parametrize("name", ["optimize", "decay-fit", "lemma-check",
                                  "assumptions-check"])
def test_shipped_config_yields_its_checks(tmp_path, name):
    from cbolab.config import CHECKS
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    configured = json.loads(path.read_text())["check"]
    out = str(tmp_path / "run")
    assert main(["run", "--config", str(path), "--output", out, "--check"]) == 0
    lines = _check_lines(out)
    assert [line.split(":")[0].strip() for line in lines] == [
        report_name for key, (report_name, _, _) in CHECKS.items()
        if key in configured]
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
    real = experiments.check_truncated_growth

    def unbounded(*args, **kwargs):
        report = real(*args, **kwargs)
        next(iter(report.entries.values())).sup = float("inf")
        return report

    monkeypatch.setattr(experiments, "check_truncated_growth", unbounded)
    payload = {
        "experiment": "lemma-check",
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
