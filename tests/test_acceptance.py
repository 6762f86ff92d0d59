"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion N ... PASS/FAIL` line with the measured
quantities (run pytest with -s to see the lines for passing tests too).
The two heavy spectral runs are shared session fixtures: the production
run serves the positivity, mass-conservation and consensus-regularity
criteria; its half-step twin serves the time-step-halving comparison.
"""

import pathlib
import time

import numpy as np
import pytest

from cbolab.config import load_config
from cbolab.consensus import consensus_point
from cbolab.cutoffs import CutoffSpec
from cbolab.diagnostics import (DecaySeries, consensus_path_speeds,
                                fit_exponential_rate, mean_field_scaling_fit)
from cbolab.galerkin import (PDEProblem, SpectralField, cbo_divergence_rhs,
                             confinement_probe_1d, evolve, positivity_probe,
                             project_initial)
from cbolab.experiments import DRIVERS
from cbolab.objectives import builtin_objective
from cbolab.particle import CouplingExperiment, run_coupling, run_optimization
from reference import GeneralProblem, galerkin_matrix_rhs, rewritten_rhs

QUAD2 = builtin_objective("quadratic", 2)
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared spectral runs (criteria 3, 6, 10)

PDE_BOX, PDE_MODES, PDE_GRID = 8.0, 64, 256
PDE_HORIZON = 0.5
PDE_CENTER = np.array([2.0, 2.0])


def _pde_problem():
    # shell and plateau radii sized so the truncation never activates on
    # the box: the run solves the raw consensus density equation, with the
    # mass drift as the witness
    spec = CutoffSpec(shell_radius=14.0, plateau_scale=324.0)
    return PDEProblem(cutoff=spec, objective=QUAD2, alpha=20.0)


def _pde_initial(problem):
    def bump(p):
        r2 = np.sum(np.square(p - PDE_CENTER), axis=-1)
        return np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)),
                        0.0)

    f = project_initial(bump, problem, 2, PDE_BOX, PDE_MODES, PDE_GRID)
    f.data /= f.mass()
    return f


def _run_pde(dt):
    problem = _pde_problem()
    f0 = _pde_initial(problem)
    start = time.perf_counter()
    res = evolve(f0, problem, horizon=PDE_HORIZON, dt=dt, record_every=5)
    wall = time.perf_counter() - start
    return {"result": res, "wall": wall, "problem": problem}


@pytest.fixture(scope="session")
def pde_run_production():
    return _run_pde(dt=2e-3)


@pytest.fixture(scope="session")
def pde_run_halved():
    return _run_pde(dt=1e-3)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_dirac_contraction_rate():
    start = time.perf_counter()
    run = run_optimization(QUAD2, n_particles=2000, dt=0.01, lam=1.0,
                           sigma=0.1, alpha=20.0, horizon=4.0, seed=77,
                           init_center=[0.0, 0.0], init_spread=1.5,
                           record_every=1)
    series = DecaySeries(times=run.times, values=run.w2_to_target)
    rate, r2 = fit_exponential_rate(series, (5 * 0.01, 4.0))
    wall = time.perf_counter() - start
    ok = 1.0 <= rate <= 2.0 and r2 >= 0.95 and wall < 30.0
    _report(1, "Dirac contraction rate", ok,
            f"rate={rate:.4f} in [1.0, 2.0], r2={r2:.5f} >= 0.95, "
            f"runtime {wall:.1f}s < 30s")
    assert 1.0 <= rate <= 2.0
    assert r2 >= 0.95
    assert wall < 30.0


def test_criterion_2_mean_field_scaling():
    start = time.perf_counter()
    exp = CouplingExperiment(sizes=[64, 256, 1024, 4096],
                             reference_size=16384, horizon=1.0, dt=0.01,
                             seed=11, init_center=[1.0, 1.0], init_spread=1.0)
    rows = run_coupling(exp, QUAD2, {"lam": 1.0, "sigma": 0.5, "alpha": 10.0})
    slope, _ = mean_field_scaling_fit(rows)
    wall = time.perf_counter() - start
    ok = -1.3 <= slope <= -0.7 and wall < 180.0
    _report(2, "mean-field N^-1 scaling", ok,
            f"slope={slope:.3f} in [-1.3, -0.7], runtime {wall:.1f}s < 180s")
    assert -1.3 <= slope <= -0.7
    assert wall < 180.0


def test_criterion_3_positivity_full_support(pde_run_production):
    res = pde_run_production["result"]
    wall = pde_run_production["wall"]
    vbar = res.valpha_series[-1]
    min_val, argmin = positivity_probe(res.final, vbar, 0.25, 5.0)
    ok = min_val > 1e-12 and wall < 120.0
    _report(3, "positivity / full support", ok,
            f"annulus min={min_val:.3e} > 1e-12 at "
            f"{np.array2string(argmin, precision=2)}, runtime {wall:.0f}s < 120s")
    assert min_val > 1e-12
    assert wall < 120.0


def test_criterion_4_confinement_1d():
    # the one criterion that cannot hold at desk scale: the density
    # collapses onto the fixed consensus point at exponentially shrinking
    # scales, so any fixed spectral resolution is eventually unresolved and
    # rings past 1e-8 well before t = 1 (README, acceptance notes); it is
    # asserted as stated and fails honestly
    spec = CutoffSpec(shell_radius=7.0, plateau_scale=4.5)
    problem = PDEProblem(cutoff=spec, valpha=np.array([0.0]))

    def bump(p):
        r = (p[..., 0] + 2.25) / 1.75
        return np.where(r * r < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - r * r, 1e-300)), 0.0)

    f0 = project_initial(bump, problem, 1, 56.0, 1792, 7168)
    f0.data /= f0.mass()
    start = time.perf_counter()
    res = evolve(f0, problem, horizon=1.0, dt=1e-3, record_every=10,
                 observers={"probe": lambda t, f: confinement_probe_1d(f, 0.0)})
    wall = time.perf_counter() - start
    worst = float(np.max(res.observed["probe"]))
    crossing = next((t for t, p in zip(res.times, res.observed["probe"])
                     if p > 1e-8), None)
    ok = worst <= 1e-8 and wall < 30.0
    _report(4, "1d confinement", ok,
            f"sup of right-of-v* mass={worst:.3e} (tolerance 1e-8, first "
            f"exceeded at t~{crossing}), runtime {wall:.0f}s < 30s")
    assert wall < 30.0
    assert worst <= 1e-8, (
        "unattainable at desk scale: the collapse onto the degenerate point "
        "outruns any fixed spectral resolution (quadrupling K only moves the "
        "crossing from t=0 to t~0.1); see the README acceptance notes"
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


def test_criterion_6_mass_conservation(pde_run_production):
    res = pde_run_production["result"]
    drift = float(np.max(np.abs(res.mass_series - 1.0)))
    ok = drift <= 1e-3
    _report(6, "mass conservation", ok, f"max |mass - 1| = {drift:.2e} <= 1e-3")
    assert drift <= 1e-3


def test_criterion_7_galerkin_oracle_equivalence():
    box, modes, grid = 5.0, 4, 16
    x = -box + 2 * box * np.arange(grid) / grid
    from cbolab.cutoffs import CoefficientField
    coeffs = CoefficientField(
        dim=1,
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
    # the shipped config, run in-process: neither the config's bound nor
    # the criterion's can drift alone
    cfg = load_config(str(CONFIGS / "lemma-check.json"))
    assert cfg["check"]["stability_max"] == 0.05
    assert "box" not in cfg["cutoff"]       # the truncated field
    _, measured = DRIVERS["cutoff-check"](cfg, str(tmp_path))
    worst = measured["worst_rel_change"]
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
        pde_run_production, pde_run_halved):
    coarse = pde_run_production["result"]
    fine = pde_run_halved["result"]
    s_coarse = consensus_path_speeds(coarse.times, coarse.valpha_series)
    s_fine = consensus_path_speeds(fine.times, fine.valpha_series)
    growth = s_fine.speed_sup / s_coarse.speed_sup
    ok = growth < 2.0
    _report(10, "consensus path speed boundedness", ok,
            f"finite-difference speed sup {s_coarse.speed_sup:.3f} -> "
            f"{s_fine.speed_sup:.3f} under dt halving (x{growth:.2f} < 2)")
    assert growth < 2.0
