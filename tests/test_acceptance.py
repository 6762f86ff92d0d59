"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion N ... PASS/FAIL` line with the measured
quantities (run pytest with -s to see the lines for passing tests too).
A criterion that a shipped config measures runs that config in-process,
through the driver `cbolab run` calls, and reads the driver's measured
quantities and CSVs.  It states its threshold itself and asserts that the
config's `check` entry is that threshold (criterion 10 has none), so
neither can drift alone:

| criterion | config | reads |
| --- | --- | --- |
| 1 | decay-fit.json | `rate`, `r2` |
| 2 | mfl-scaling.json | `slope` |
| 3 | positivity.json | `min_density`; the argmin from probe.csv |
| 4 | confinement-1d.json | `right_mass_sup`; the crossing time from series.csv |
| 6 | positivity.json | `mass_drift` |
| 8 | lemma-check.json | `worst_rel_change` |
| 10 | positivity.json, and again at pde.dt=0.001 | `speed_sup` from each probe.csv |

The two 2-D runs are shared session fixtures.  Criterion 6 is pde-run's
mass drift, read from the positivity run, because the two configs are one
solve (`test_pde_run_and_positivity_are_one_solve`).
"""

import pathlib
import time

import numpy as np
import pytest

from cbolab.config import load_config
from cbolab.consensus import consensus_point
from cbolab.cutoffs import CutoffSpec
from cbolab.experiments import DRIVERS
from cbolab.galerkin import PDEProblem, SpectralField, cbo_divergence_rhs
from reference import GeneralProblem, galerkin_matrix_rhs, rewritten_rhs

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def _run_config(name, outdir, *overrides):
    """Run the shipped config `name` in-process into `outdir`, with `--set`
    style overrides: its resolved config, measured quantities and wall
    time."""
    cfg = load_config(str(CONFIGS / name), list(overrides))
    start = time.perf_counter()
    _, measured = DRIVERS[cfg["experiment"]](cfg, str(outdir))
    return {"cfg": cfg, "measured": measured, "out": outdir,
            "wall": time.perf_counter() - start}


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


# ---------------------------------------------------------------------------
# shared spectral runs (criteria 3, 6, 10)


@pytest.fixture(scope="session")
def positivity_run(tmp_path_factory):
    return _run_config("positivity.json", tmp_path_factory.mktemp("positivity"))


@pytest.fixture(scope="session")
def positivity_run_halved(tmp_path_factory):
    return _run_config("positivity.json", tmp_path_factory.mktemp("halved"),
                       "pde.dt=0.001")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_dirac_contraction_rate(tmp_path):
    run = _run_config("decay-fit.json", tmp_path)
    check = run["cfg"]["check"]
    assert (check["rate_min"], check["rate_max"], check["r2_min"]) == (1.0, 2.0, 0.95)
    rate, r2, wall = run["measured"]["rate"], run["measured"]["r2"], run["wall"]
    ok = 1.0 <= rate <= 2.0 and r2 >= 0.95 and wall < 30.0
    _report(1, "Dirac contraction rate", ok,
            f"rate={rate:.4f} in [1.0, 2.0], r2={r2:.5f} >= 0.95, "
            f"runtime {wall:.1f}s < 30s")
    assert 1.0 <= rate <= 2.0
    assert r2 >= 0.95
    assert wall < 30.0


def test_criterion_2_mean_field_scaling(tmp_path):
    run = _run_config("mfl-scaling.json", tmp_path)
    check = run["cfg"]["check"]
    assert (check["slope_min"], check["slope_max"]) == (-1.3, -0.7)
    slope, wall = run["measured"]["slope"], run["wall"]
    ok = -1.3 <= slope <= -0.7 and wall < 180.0
    _report(2, "mean-field N^-1 scaling", ok,
            f"slope={slope:.3f} in [-1.3, -0.7], runtime {wall:.1f}s < 180s")
    assert -1.3 <= slope <= -0.7
    assert wall < 180.0


def test_criterion_3_positivity_full_support(positivity_run):
    assert positivity_run["cfg"]["check"]["positivity_floor"] == 1e-12
    min_val, wall = positivity_run["measured"]["min_density"], positivity_run["wall"]
    probe = _read_csv(positivity_run["out"] / "probe.csv")
    argmin = np.array([probe[name] for name in probe.dtype.names
                       if name.startswith("argmin_")])
    ok = min_val > 1e-12 and wall < 120.0
    _report(3, "positivity / full support", ok,
            f"annulus min={min_val:.3e} > 1e-12 at "
            f"{np.array2string(argmin, precision=2)}, runtime {wall:.0f}s < 120s")
    assert min_val > 1e-12
    assert wall < 120.0


def test_criterion_4_confinement_1d(tmp_path):
    # the one criterion that cannot hold at desk scale: the density
    # collapses onto the fixed consensus point at exponentially shrinking
    # scales, so any fixed spectral resolution is eventually unresolved and
    # rings past 1e-8 well before t = 1 (README, acceptance notes); it is
    # asserted as stated and fails honestly
    run = _run_config("confinement-1d.json", tmp_path)
    assert run["cfg"]["check"]["confinement_max"] == 1e-8
    worst, wall = run["measured"]["right_mass_sup"], run["wall"]
    series = _read_csv(tmp_path / "series.csv")
    crossing = next((t for t, p in zip(series["time"], series["right_mass"])
                     if p > 1e-8), None)
    ok = worst <= 1e-8 and wall < 30.0
    _report(4, "1d confinement", ok,
            f"sup of right-of-v* mass={worst:.3e} (tolerance 1e-8, first "
            f"exceeded at t~{crossing}), runtime {wall:.0f}s < 30s")
    assert wall < 30.0
    assert worst <= 1e-8, (
        "unattainable at desk scale: the collapse onto the degenerate point "
        "outruns any fixed spectral resolution (at 4x the shipped K and M "
        "the mass right of v* first exceeds 1e-8 at t = 0.23 instead of "
        "t = 0); see the README acceptance notes"
    )


def test_criterion_5_form_equivalence():
    box, modes, grid = 8.0, 48, 192
    x = -box + 2 * box * np.arange(grid) / grid
    X, Y = np.meshgrid(x, x, indexing="ij")
    rng = np.random.default_rng(2024)
    spec = CutoffSpec(shell_radius=1e6, plateau_scale=1e7)
    worst = 0.0
    for _ in range(20):
        field_vals = np.zeros((grid, grid))
        for _ in range(int(rng.integers(1, 4))):
            cx, cy = rng.uniform(-1.2, 1.2, 2)
            s = rng.uniform(0.5, 0.7)
            field_vals += rng.uniform(0.3, 1.0) * np.exp(
                -((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s))
        f = SpectralField.from_grid(field_vals, box, modes)
        vb = rng.uniform(-1.0, 1.0, 2)
        prob = PDEProblem(cutoff=spec, valpha=vb)
        a = rewritten_rhs(f, prob).grid_values()
        b = cbo_divergence_rhs(f, prob).grid_values()
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-8
    _report(5, "form equivalence", ok,
            f"max grid difference over 20 trials = {worst:.2e} <= 1e-8")
    assert worst <= 1e-8


def test_pde_run_and_positivity_are_one_solve():
    # criterion 6 is pde-run's mass drift read from the positivity run, so
    # the two configs may differ only in the snapshots and probes they take
    pde_run, positivity = (load_config(str(CONFIGS / name))
                           for name in ("pde-run.json", "positivity.json"))
    for cfg in (pde_run, positivity):
        for key in ("snapshot_times", "annulus_inner", "annulus_outer"):
            cfg["pde"].pop(key, None)
    for section in ("seed", "objective", "cbo", "cutoff", "pde"):
        assert pde_run[section] == positivity[section], section
    assert pde_run["check"]["mass_drift_max"] == 1e-3
    assert positivity["check"]["mass_drift_max"] == 1e-3


def test_criterion_6_mass_conservation(positivity_run):
    assert positivity_run["cfg"]["check"]["mass_drift_max"] == 1e-3
    drift = positivity_run["measured"]["mass_drift"]
    ok = drift <= 1e-3
    _report(6, "mass conservation", ok,
            f"max |mass - mass(0)| = {drift:.2e} <= 1e-3")
    assert drift <= 1e-3


def test_criterion_7_galerkin_oracle_equivalence():
    box, modes, grid = 5.0, 4, 16
    x = -box + 2 * box * np.arange(grid) / grid
    from cbolab.cutoffs import CoefficientField
    coeffs = CoefficientField(
        G=lambda p: 2.0 + np.cos(np.pi * p[..., 0] / box),
        J=lambda p: (0.5 + 0.3 * np.sin(np.pi * p[..., 0] / box))[..., None])
    wide = CutoffSpec(shell_radius=1e6, plateau_scale=1e7)
    vals = 0.3 + 0.1 * np.cos(np.pi * x / box) + 0.05 * np.sin(3 * np.pi * x / box)
    f = SpectralField.from_grid(vals, box, modes)
    worst = 0.0
    for form in ("gradient", "divergence", "cbo"):
        if form == "cbo":
            prob = PDEProblem(cutoff=wide, valpha=np.array([0.2]))
        else:
            prob = GeneralProblem(
                form=form, coefficients=coeffs, cutoff=wide,
                source=lambda p: 0.2 * np.cos(2 * np.pi * p[..., 0] / box))
        fast = rewritten_rhs(f, prob).coefficients
        dense = galerkin_matrix_rhs(f, prob)
        worst = max(worst, float(np.max(np.abs(fast - dense))))
    ok = worst <= 1e-10
    _report(7, "dense Galerkin oracle", ok,
            f"max coefficient difference across forms = {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_8_cutoff_lemma_sups(tmp_path):
    run = _run_config("lemma-check.json", tmp_path)
    cfg = run["cfg"]
    assert cfg["check"]["stability_max"] == 0.05
    assert "box" not in cfg["cutoff"]       # the truncated field
    worst = run["measured"]["worst_rel_change"]
    ok = worst <= 0.05      # False for nan, a non-finite sup
    _report(8, "cutoff growth sups refinement-stable", ok,
            f"worst relative change of the truncated field's sups at "
            f"{cfg['cutoff']['samples']} vs {2 * cfg['cutoff']['samples']} "
            f"samples = {worst:.2%} <= 5%")
    assert worst <= 0.05


def test_criterion_9_consensus_invariants():
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 4))
        pos = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0)
        vals = rng.normal(size=n) * rng.uniform(0.1, 3.0)
        alpha = float(rng.uniform(0.0, 30.0))
        shift = float(rng.uniform(-5.0, 5.0))
        a = consensus_point(pos, vals, alpha)
        b = consensus_point(pos, vals + shift, alpha)
        if np.linalg.norm(a.point - b.point) > 1e-12:
            violations += 1
        if (np.any(a.point < pos.min(axis=0) - 1e-12)
                or np.any(a.point > pos.max(axis=0) + 1e-12)):
            violations += 1
        mean = consensus_point(pos, vals, 0.0)
        if np.linalg.norm(mean.point - pos.mean(axis=0)) > 1e-12:
            violations += 1
    ok = violations == 0
    _report(9, "consensus invariants", ok,
            f"{violations} violations over 1000 random ensembles (shift "
            "invariance, convex hull, alpha=0 mean)")
    assert violations == 0


def test_criterion_10_consensus_speed_stable_under_halving(
        positivity_run, positivity_run_halved):
    s_coarse, s_fine = (float(_read_csv(run["out"] / "probe.csv")["speed_sup"])
                        for run in (positivity_run, positivity_run_halved))
    growth = s_fine / s_coarse
    ok = growth < 2.0
    _report(10, "consensus path speed boundedness", ok,
            f"finite-difference speed sup {s_coarse:.3f} -> "
            f"{s_fine:.3f} under dt halving (x{growth:.2f} < 2)")
    assert growth < 2.0
