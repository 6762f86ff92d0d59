"""Experiment drivers: wire configuration to the numerical modules and CSV.

Each driver takes the resolved config and an output directory, runs the
experiment, writes its CSV artifacts, and returns its summary lines plus a
dict of measured quantities.  `write_summary` then writes `summary.txt` and
evaluates the config's `check` thresholds against those quantities through
one table, `config.CHECKS`.
"""

from __future__ import annotations

import operator
import os
from datetime import datetime, timezone

import numpy as np

from . import galerkin as spectral
from . import streams
from .config import CHECKS, ConfigError
from .cutoffs import (CoefficientField, CutoffSpec, cbo_coefficients,
                      check_base_growth, check_truncated_growth)
from .diagnostics import (DecaySeries, consensus_path_speeds,
                          fit_exponential_rate, mean_field_scaling_fit,
                          success_probability)
from .objectives import builtin_objective
from .particle import CouplingExperiment, run_coupling, run_optimization


def _write_csv(path: str, header, fmt: str, rows) -> None:
    """Write `header` and `rows`, each row a tuple formatted by `fmt`.

    `fmt` holds one printf field per column; floats use %.17g (shortest
    round trip), so reruns are byte-identical.  Fields hold no commas or
    quotes and lines end in CR LF, so the file is in the csv module's
    default dialect.  Big tables pass `zip(*columns)` of `.tolist()`
    columns, which formats them in one pass.
    """
    line = fmt + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(map(line.__mod__, rows)))


def _floats(count: int) -> str:
    return ",".join(["%.17g"] * count)


def _objective(cfg):
    return builtin_objective(cfg["objective"]["name"], cfg["objective"]["dim"])


def _seed(cfg):
    return cfg["cbo"].get("seed", cfg["seed"])


def _run_cbo_trajectory(cfg, outdir):
    """Run the interacting optimizer and write its trajectory.csv."""
    obj = _objective(cfg)
    c = cfg["cbo"]
    run = run_optimization(
        obj, n_particles=c["n_particles"], dt=c["dt"], lam=c["lambda"],
        sigma=c["sigma"], alpha=c["alpha"], horizon=c["horizon"],
        seed=_seed(cfg), init_center=c["init_center"],
        init_spread=c["init_spread"], record_every=c["record_every"])
    header = (["step", "time"] + [f"valpha_{j + 1}" for j in range(obj.dim)]
              + ["w2_sq_to_vstar", "variance", "ess", "log_normalizer"])
    times = run.times.tolist()
    columns = [[int(round(t / c["dt"])) for t in times], times,
               *run.valpha.T.tolist(), run.w2_to_target.tolist(),
               run.variance.tolist(), run.ess.tolist(), run.log_normalizer.tolist()]
    _write_csv(os.path.join(outdir, "trajectory.csv"), header,
               "%d," + _floats(obj.dim + 5), zip(*columns))
    return run


def run_optimize(cfg, outdir):
    run = _run_cbo_trajectory(cfg, outdir)
    final_w2 = float(run.w2_to_target[-1])
    lines = [f"steps: {run.steps}",
             f"final W2^2 to target: {final_w2:.6e}",
             f"final consensus point: {np.array2string(run.valpha[-1], precision=6)}"]
    return lines, {"final_w2": final_w2}


def run_decay_fit(cfg, outdir):
    run = _run_cbo_trajectory(cfg, outdir)
    window = cfg["diagnostics"]["fit_window"]
    if not window:
        t0 = cfg["diagnostics"]["transient_steps"] * cfg["cbo"]["dt"]
        window = [t0, cfg["cbo"]["horizon"]]
    series = DecaySeries(times=run.times, values=run.w2_to_target, label="w2")
    rate, r2 = fit_exponential_rate(series, tuple(window))
    lines = [f"fit window: [{window[0]:g}, {window[1]:g}]",
             f"fitted exponential rate: {rate:.6f}",
             f"r_squared: {r2:.6f}"]
    return lines, {"rate": rate, "r2": r2}


def run_mfl_scaling(cfg, outdir):
    obj = _objective(cfg)
    c = cfg["coupling"]
    exp = CouplingExperiment(sizes=[int(n) for n in c["sizes"]],
                             reference_size=c["reference_size"],
                             horizon=c["horizon"], dt=c["dt"], seed=cfg["seed"],
                             init_center=c["init_center"],
                             init_spread=c["init_spread"])
    rows = run_coupling(exp, obj, {"lam": c["lambda"], "sigma": c["sigma"],
                                   "alpha": c["alpha"]})
    _write_csv(os.path.join(outdir, "scaling.csv"), ["n", "sup_mse"], "%d,%.17g",
               rows)
    slope, intercept = mean_field_scaling_fit(rows)
    lines = [f"log-log slope: {slope:.4f}", f"intercept: {intercept:.4f}"]
    return lines, {"slope": slope}


def run_success_prob(cfg, outdir):
    obj = _objective(cfg)
    c = cfg["cbo"]
    s = cfg["success"]
    report = success_probability(
        obj, runs=s["runs"], epsilon=s["epsilon"], n_particles=c["n_particles"],
        dt=c["dt"], lam=c["lambda"], sigma=c["sigma"], alpha=c["alpha"],
        horizon=c["horizon"], seed=_seed(cfg), init_center=c["init_center"],
        init_spread=c["init_spread"])
    rows = [(i, streams.derive_seed(_seed(cfg), i), e, int(e <= s["epsilon"]),
             int(i in report.diverged_runs))
            for i, e in enumerate(report.final_errors)]
    _write_csv(os.path.join(outdir, "success.csv"),
               ["run", "seed", "final_error", "hit", "diverged"],
               "%d,%d,%.17g,%d,%d", rows)
    lines = [f"runs: {report.runs}  epsilon: {report.epsilon:g}",
             f"hits: {report.hits}  fraction: {report.fraction:.4f}",
             f"diverged runs: {report.diverged_runs or 'none'}"]
    return lines, {"fraction": report.fraction}


def _coefficient_field(cfg) -> CoefficientField:
    kind = cfg["cutoff"]["field"]
    vbar = np.asarray(cfg["cutoff"]["valpha_const"], dtype=float)
    dim = len(vbar)
    if kind == "cbo":
        return cbo_coefficients(lambda t: vbar, dim=dim)
    if kind == "quartic":
        return CoefficientField(
            dim=dim,
            G=lambda p, t: np.sum(np.square(p), axis=-1) ** 2,
            J=lambda p, t: np.asarray(p, dtype=float),
            g=lambda p, t: np.zeros(np.shape(p)[:-1]))
    raise ConfigError(f"cutoff.field: unknown coefficient field {kind!r}")


def _cutoff_spec(cfg) -> CutoffSpec:
    c = cfg["cutoff"]
    return CutoffSpec(shell_radius=c["R"], plateau_scale=c["n"],
                      h_table=c["h_table"], h_fd=c["h_fd"])


def _write_inequalities(path, *reports):
    rows = [(name, sup, count, "" if sat is None else int(sat))
            for report in reports for name, sup, count, sat in report.rows()]
    _write_csv(path, ["quantity", "sup", "sample_count", "satisfied"],
               "%s,%.17g,%d,%s", rows)


def run_assumptions_check(cfg, outdir):
    field = _coefficient_field(cfg)
    box = cfg["cutoff"]["box"]
    report = check_base_growth(field, [-box] * field.dim, [box] * field.dim,
                               cfg["cutoff"]["samples"], seed=cfg["seed"],
                               h_fd=cfg["cutoff"]["h_fd"])
    _write_inequalities(os.path.join(outdir, "inequalities.csv"), report)
    finite = all(np.isfinite(e.sup) for e in report.entries.values())
    lines = [f"{name}: sup={sup:.6g} over {count} samples"
             for name, sup, count, _ in report.rows()]
    return lines, {"all_finite": finite}


def run_lemma_check(cfg, outdir):
    field = _coefficient_field(cfg)
    spec = _cutoff_spec(cfg)
    n = cfg["cutoff"]["samples"]
    base = check_truncated_growth(field, spec, n, seed=cfg["seed"])
    refined = check_truncated_growth(field, spec, 2 * n, seed=cfg["seed"])
    _write_inequalities(os.path.join(outdir, "inequalities.csv"), base, refined)
    stability, worst = [], 0.0
    for name in base.entries:
        s1, s2 = base[name].sup, refined[name].sup
        rel = abs(s2 - s1) / max(abs(s1), 1e-300)
        worst = max(worst, rel)
        stability.append((name, s1, s2, rel))
    _write_csv(os.path.join(outdir, "stability.csv"),
               ["quantity", "sup", "sup_refined", "rel_change"],
               "%s,%.17g,%.17g,%.17g", stability)
    finite = all(np.isfinite(r[1]) and np.isfinite(r[2]) for r in stability)
    # `max` skips a NaN change, so a non-finite sup must fail explicitly
    worst = worst if finite else float("nan")
    lines = [f"samples: {n} vs {2 * n}",
             f"worst relative change under refinement: {worst:.4%}",
             f"all sups finite: {finite}"]
    return lines, {"worst_rel_change": worst}


def _build_problem(cfg):
    p = cfg["pde"]
    kwargs = dict(form="cbo", cutoff=_cutoff_spec(cfg), cbo_assembly="divergence")
    if p["valpha_mode"] == "self_consistent":
        return spectral.PDEProblem(objective=_objective(cfg),
                                   alpha=cfg["cbo"]["alpha"],
                                   valpha_mode="self_consistent", **kwargs)
    if p["valpha_mode"] == "frozen":
        vbar = np.asarray(p["valpha_const"], dtype=float)
        return spectral.PDEProblem(valpha_mode="frozen",
                                   valpha_path=lambda t: vbar, **kwargs)
    raise ConfigError(f"pde.valpha_mode: unknown mode {p['valpha_mode']!r}; "
                      "choose frozen or self_consistent")


def _initial_field(cfg, problem):
    p = cfg["pde"]
    center = np.asarray(p["init_center"], dtype=float)[: p["dim"]]
    radius = p["init_radius"]

    def bump(pts):
        r2 = np.sum(np.square((pts - center) / radius), axis=-1)
        return np.where(r2 < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)

    f = spectral.project_initial(bump, problem, p["dim"], p["L"], p["K"], p["M"])
    total = f.mass()
    if total <= 0:
        raise ConfigError("pde.init_center/init_radius give an empty density")
    f.data /= total
    return f


def _write_series(outdir, res, dim):
    header = ["time", "mass"]
    columns = [res.times.tolist(), res.mass_series.tolist()]
    if res.valpha_series is not None:
        header += [f"valpha_{j + 1}" for j in range(dim)]
        columns += res.valpha_series.T.tolist()
    for name in sorted(res.observed):
        header.append(name)
        columns.append(res.observed[name].tolist())
    _write_csv(os.path.join(outdir, "series.csv"), header,
               _floats(len(columns)), zip(*columns))


def _write_snapshots(outdir, res):
    for idx, (t, f) in enumerate(res.snapshots):
        coeffs = f.coefficients
        ks = np.arange(-f.modes, f.modes + 1)
        if f.dim == 1:
            header, keys = ["k1", "re", "im"], [ks]
        else:
            header = ["k1", "k2", "re", "im"]
            keys = [np.repeat(ks, len(ks)), np.tile(ks, len(ks))]
        columns = [k.tolist() for k in keys] + [coeffs.real.ravel().tolist(),
                                                coeffs.imag.ravel().tolist()]
        _write_csv(os.path.join(outdir, f"snapshot_coeffs_{idx:04d}.csv"),
                   header, "%d," * f.dim + "%.17g,%.17g", zip(*columns))
        pts = f.grid_points().reshape(-1, f.dim)
        grid_header = [f"v{j + 1}" for j in range(f.dim)] + ["rho"]
        columns = pts.T.tolist() + [f.grid_values().ravel().tolist()]
        _write_csv(os.path.join(outdir, f"grid_{idx:04d}.csv"), grid_header,
                   _floats(f.dim + 1), zip(*columns))


def run_pde(cfg, outdir, observers=None):
    """Evolve and write the configured density; every spectral run measures
    its mass drift (the worst deviation from the initial mass)."""
    p = cfg["pde"]
    problem = _build_problem(cfg)
    f0 = _initial_field(cfg, problem)
    res = spectral.evolve(f0, problem, horizon=p["horizon"], dt=p["dt"],
                          record_every=p["record_every"],
                          snapshot_times=p["snapshot_times"],
                          observers=observers)
    _write_series(outdir, res, p["dim"])
    _write_snapshots(outdir, res)
    drift = float(np.max(np.abs(res.mass_series - res.mass_series[0])))
    return res, {"mass_drift": drift}


def run_pde_run(cfg, outdir):
    res, measured = run_pde(cfg, outdir)
    lines = [f"steps recorded: {len(res.times)}",
             f"mass drift: {measured['mass_drift']:.3e}",
             f"wall time: {res.wall_time:.1f}s"]
    return lines, measured


def run_positivity(cfg, outdir):
    p = cfg["pde"]
    res, measured = run_pde(cfg, outdir)
    vbar = res.valpha_series[-1]
    min_val, argmin = spectral.positivity_probe(res.final, vbar,
                                                p["annulus_inner"],
                                                p["annulus_outer"])
    speeds = consensus_path_speeds(res.times, res.valpha_series)
    _write_csv(os.path.join(outdir, "probe.csv"),
               ["min_density", "argmin_1", "argmin_2", "mass_drift",
                "speed_sup", "holder_sup"], _floats(6),
               [(min_val, argmin[0], argmin[-1], measured["mass_drift"],
                 speeds.speed_sup, speeds.holder_sup)])
    lines = [f"min density on annulus {'>' if min_val > 0.0 else '<='} 0"
             f" (value {min_val:.6e} at {np.array2string(argmin, precision=3)})",
             f"mass drift: {measured['mass_drift']:.3e}",
             f"consensus speed sup: {speeds.speed_sup:.4f}",
             f"wall time: {res.wall_time:.1f}s"]
    return lines, {**measured, "min_density": min_val}


def run_confinement(cfg, outdir):
    if cfg["pde"]["dim"] != 1:
        raise ConfigError("pde.dim: confinement-1d needs dim = 1")
    v_star = cfg["pde"]["v_star"]
    observers = {"right_mass": lambda t, f: spectral.confinement_probe_1d(f, v_star)}
    res, measured = run_pde(cfg, outdir, observers=observers)
    worst = float(np.max(res.observed["right_mass"]))
    lines = [f"sup over recorded times of mass right of v*: {worst:.6e}",
             f"wall time: {res.wall_time:.1f}s"]
    return lines, {**measured, "right_mass_sup": worst}


DRIVERS = {
    "optimize": run_optimize,
    "decay-fit": run_decay_fit,
    "mfl-scaling": run_mfl_scaling,
    "success-prob": run_success_prob,
    "assumptions-check": run_assumptions_check,
    "lemma-check": run_lemma_check,
    "pde-run": run_pde_run,
    "positivity": run_positivity,
    "confinement-1d": run_confinement,
}

_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


def write_summary(cfg, outdir, lines, measured):
    """Write summary.txt and return its (name, passed, detail) checks, one
    per configured threshold; a threshold on an unmeasured quantity fails."""
    checks = []
    for key, (name, quantity, op) in CHECKS.items():
        bound, value = cfg["check"].get(key), measured.get(quantity)
        if bound is None:
            continue
        if value is None:
            ok, detail = False, f"{cfg['experiment']} does not measure {quantity}"
        elif op is None:
            ok, detail = bool(value), f"{quantity} = {value}, required True"
        else:
            ok = bool(_COMPARE[op](value, bound))
            detail = f"{quantity} = {value:.9g}, required {op} {bound:.9g}"
        checks.append((name, ok, detail))
    text = [f"# generated {datetime.now(timezone.utc).isoformat()}",
            f"experiment: {cfg['experiment']}", *lines]
    if checks:
        text.append("checks:")
    text += [f"  {name}: {'PASS' if ok else 'FAIL'} ({detail})"
             for name, ok, detail in checks]
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write("".join(line + "\n" for line in text))
    return checks
