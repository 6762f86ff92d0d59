"""Experiment drivers: wire configuration to the numerical modules and CSV.

Each driver takes the resolved config and an output directory, runs the
experiment, writes its CSV artifacts, and returns its summary lines plus a
dict of measured quantities.  `write_summary` then writes `summary.txt` and
evaluates the config's `check` thresholds against those quantities through
one table, `config.CHECKS`.  Each value was checked on its own when the
config loaded (`config.SCHEMA`); the drivers check only relations between
keys.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import galerkin as spectral
from .config import CHECKS
from .consensus import DomainError
from .cutoffs import (CoefficientField, CutoffSpec, cbo_coefficients,
                      growth_sups, truncated_cloud, truncated_G, truncated_J)
from .diagnostics import (PathSpeeds, consensus_path_speeds,
                          fit_exponential_rate, mean_field_scaling_fit)
from .objectives import ConfigurationError, builtin_objective, sample_box
from .particle import run_coupling, run_optimization, success_probability


CSV_BLOCK_ROWS = 4096
# numpy wraps a printed array at 75 characters; a summary line holds a point
_one_line = functools.partial(np.array2string, max_line_width=sys.maxsize)


@contextlib.contextmanager
def _output(path: str, newline=""):
    """`path` opened for writing text; a failure to open or write it ends
    the run in one `<path>: cannot write (<reason>)` error."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ConfigurationError(
            f"{path}: cannot write ({exc.strerror})") from None


def _write_csv(path: str, header, fmt: str, columns) -> None:
    """Write `header` and the rows of `columns`, each row formatted by `fmt`.

    `fmt` holds one printf field per column; floats use %.17g, 17
    significant digits, which round-trip every double (though not in the
    shortest form), so reruns are byte-identical.  Fields hold no commas
    or quotes and lines end in CR LF, so the file is in the csv module's
    default dialect.  A column is a list, a range or an array; the rows
    are formatted and written `CSV_BLOCK_ROWS` at a time, so a table is
    never held whole as text.
    """
    line = fmt + "\r\n"
    rows = len(columns[0])
    with _output(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
            block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
            fh.write("".join(map(line.__mod__, zip(*block))))


def _write_grid(path: str, header, labels, dim: int, fmt: str, rows) -> None:
    """Write a table over the row-major `dim`-D product grid whose axes all
    take the values printed as `labels`, in `_write_csv`'s bytes.

    `rows` yields the value columns of one grid row, the points that share
    their first coordinate (a 1-D grid is one row), formatted by `fmt`.
    Each label is formatted once, and each grid row is formatted, written
    and dropped, so a big grid is never held as Python objects at once.
    """
    line = "%s%s," + fmt + "\r\n"
    prefixes = [""] if dim == 1 else [label + "," for label in labels]
    with _output(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for prefix, columns in zip(prefixes, rows):
            fh.write("".join(map(line.__mod__,
                                 zip(itertools.repeat(prefix), labels, *columns))))


def _floats(count: int) -> str:
    return ",".join(["%.17g"] * count)


def run_optimize(cfg, outdir):
    """Run the interacting optimizer, write its trajectory.csv, and fit the
    decay rate of W2^2 over [5 cbo.dt, cbo.horizon]; a fit that cannot be
    made is not measured."""
    obj = builtin_objective(cfg["objective"]["name"])
    c = cfg["cbo"]
    run = run_optimization(
        obj, n_particles=c["n_particles"], dt=c["dt"], lam=c["lambda"],
        sigma=c["sigma"], alpha=c["alpha"], horizon=c["horizon"],
        seed=cfg["seed"], init_center=c["init_center"],
        init_spread=c["init_spread"])
    dim = run.valpha.shape[1]
    header = (["step", "time"] + [f"valpha_{j + 1}" for j in range(dim)]
              + ["w2_sq_to_vstar", "variance", "ess", "log_normalizer"])
    columns = [range(len(run.times)), run.times,
               *run.valpha.T, run.w2_to_target, run.variance, run.ess,
               run.log_normalizer]
    _write_csv(os.path.join(outdir, "trajectory.csv"), header,
               "%d," + _floats(dim + 5), columns)
    final_w2 = float(run.w2_to_target[-1])
    window = (5 * c["dt"], c["horizon"])
    lines = [f"steps: {run.steps}",
             f"final W2^2 to target: {final_w2:.6e}",
             f"final consensus point: {_one_line(run.valpha[-1], precision=6)}",
             f"fit window: [{window[0]:g}, {window[1]:g}]"]
    measured = {"final_w2": final_w2}
    try:
        rate, r2 = fit_exponential_rate(run.times, run.w2_to_target, window)
    except DomainError as exc:
        return lines + [f"fitted exponential rate: not measured ({exc})"], measured
    lines += [f"fitted exponential rate: {rate:.6f}", f"r_squared: {r2:.6f}"]
    return lines, {**measured, "rate": rate, "r2": r2}


def run_mfl_scaling(cfg, outdir):
    obj = builtin_objective(cfg["objective"]["name"])
    c = cfg["coupling"]
    try:
        rows = run_coupling(
            obj, sizes=c["sizes"], reference_size=c["reference_size"],
            horizon=c["horizon"], dt=c["dt"], lam=c["lambda"],
            sigma=c["sigma"], alpha=c["alpha"], seed=cfg["seed"],
            init_center=c["init_center"], init_spread=c["init_spread"])
    except ConfigurationError as exc:    # sizes against the reference size
        raise ConfigurationError(f"coupling.{exc}") from None
    _write_csv(os.path.join(outdir, "scaling.csv"), ["n", "sup_mse"], "%d,%.17g",
               list(zip(*rows)))
    try:
        slope, intercept = mean_field_scaling_fit(rows)
    except DomainError as exc:
        return [f"log-log slope: not measured ({exc})"], {}
    lines = [f"log-log slope: {slope:.4f}", f"intercept: {intercept:.4f}"]
    return lines, {"slope": slope}


def run_success_prob(cfg, outdir):
    obj = builtin_objective(cfg["objective"]["name"])
    c = cfg["cbo"]
    s = cfg["success"]
    report = success_probability(
        obj, runs=s["runs"], epsilon=s["epsilon"], n_particles=c["n_particles"],
        dt=c["dt"], lam=c["lambda"], sigma=c["sigma"], alpha=c["alpha"],
        horizon=c["horizon"], seed=cfg["seed"], init_center=c["init_center"],
        init_spread=c["init_spread"])
    errors, runs = report.final_errors, range(report.runs)
    columns = [runs, report.seeds, errors,
               [int(e <= s["epsilon"]) for e in errors],
               [int(i in report.diverged_runs) for i in runs]]
    _write_csv(os.path.join(outdir, "success.csv"),
               ["run", "seed", "final_error", "hit", "diverged"],
               "%d,%d,%.17g,%d,%d", columns)
    lines = [f"runs: {report.runs}  epsilon: {report.epsilon:g}",
             f"hits: {report.hits}  fraction: {report.fraction:.4f}",
             f"diverged runs: {report.diverged_runs or 'none'}"]
    return lines, {"fraction": report.fraction}


def _coefficient_field(cfg) -> CoefficientField:
    vbar = np.asarray(cfg["cutoff"]["valpha_const"], dtype=float)
    if cfg["cutoff"]["field"] == "cbo":
        return cbo_coefficients(vbar)
    return CoefficientField(                # the quartic field
        G=lambda p: np.sum(np.square(p), axis=-1) ** 2,
        J=lambda p: np.asarray(p, dtype=float))


def _cutoff_spec(cfg) -> CutoffSpec:
    return CutoffSpec(shell_radius=cfg["cutoff"]["R"],
                      plateau_scale=cfg["cutoff"]["n"])


def run_cutoff_check(cfg, outdir):
    """Sample the growth sups of a coefficient field at n and 2n nested
    points and measure their worst relative change, `worst_rel_change`: a
    sup that keeps moving under refinement has no constant behind it.

    `cutoff.box` chooses the field: when set, the raw field on
    [-box, box]^d, d the length of `cutoff.valpha_const`; when unset, the
    truncated field on the stratified cloud.
    """
    field = _coefficient_field(cfg)
    dim = len(cfg["cutoff"]["valpha_const"])
    box, seed = cfg["cutoff"].get("box"), cfg["seed"]
    if box is None:
        spec = _cutoff_spec(cfg)
        G = functools.partial(truncated_G, field, spec)
        J = functools.partial(truncated_J, field, spec)
        cloud = functools.partial(truncated_cloud, spec, dim, seed=seed)
        sampled = (f"truncated field (R = {spec.shell_radius:g}, n = "
                   f"{spec.plateau_scale:g}) on the stratified cloud")
    else:
        G, J = field.G, field.J
        cloud = functools.partial(sample_box, dim, -box, box, seed=seed)
        sampled = f"raw field on [-{box:g}, {box:g}]^{dim}"
    n = cfg["cutoff"]["samples"]
    base, refined = (growth_sups(G, J, cloud(count)) for count in (n, 2 * n))
    rows = [(name, sup, count) for sups, count in ((base, n), (refined, 2 * n))
            for name, sup in sups.items()]
    _write_csv(os.path.join(outdir, "inequalities.csv"),
               ["quantity", "sup", "sample_count"], "%s,%.17g,%d",
               list(zip(*rows)))
    stability, worst = [], 0.0
    for name, s1 in base.items():
        s2 = refined[name]
        rel = abs(s2 - s1) / max(abs(s1), 1e-300)
        worst = max(worst, rel)
        stability.append((name, s1, s2, rel))
    _write_csv(os.path.join(outdir, "stability.csv"),
               ["quantity", "sup", "sup_refined", "rel_change"],
               "%s,%.17g,%.17g,%.17g", list(zip(*stability)))
    finite = all(np.isfinite(r[1]) and np.isfinite(r[2]) for r in stability)
    # `max` skips a NaN change, so a non-finite sup must fail explicitly
    worst = worst if finite else float("nan")
    lines = [f"sampled: {sampled}", f"samples: {n} vs {2 * n}",
             *(f"{name}: sup {s1:.6g} -> {s2:.6g} ({rel:.4%})"
               for name, s1, s2, rel in stability),
             f"worst relative change under refinement: {worst:.4%}",
             f"all sups finite: {finite}"]
    return lines, {"worst_rel_change": worst}


def _build_problem(cfg):
    p = cfg["pde"]
    cutoff = _cutoff_spec(cfg)
    valpha, dim = p.get("valpha_const"), len(p["init_center"])
    if valpha is None:
        return spectral.PDEProblem(cutoff=cutoff, alpha=cfg["cbo"]["alpha"],
                                   objective=builtin_objective(
                                       cfg["objective"]["name"]))
    if len(valpha) != dim:
        raise ConfigurationError(f"pde.valpha_const: needs {dim} entries, as "
                                 f"pde.init_center has, got {len(valpha)}")
    return spectral.PDEProblem(cutoff=cutoff, valpha=valpha)


def _initial_field(cfg, problem):
    p = cfg["pde"]
    center = np.asarray(p["init_center"], dtype=float)
    radius = p["init_radius"]
    # a bump across the edge of the periodic box would be cut, not wrapped,
    # and its projection would ring
    if np.any(np.abs(center) + radius > p["L"]):
        raise ConfigurationError(
            f"pde.init_center: the bump's support needs |init_center_i| + "
            f"init_radius <= L = {p['L']:g} on every axis, got init_center "
            f"{p['init_center']} and init_radius {radius:g}")

    def bump(pts):
        r2 = np.sum(np.square((pts - center) / radius), axis=-1)
        return np.where(r2 < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)

    f = spectral.project_initial(bump, problem, len(center), p["L"], p["K"],
                                 p["M"])
    total = f.mass()
    if total <= 0 and np.any(bump(f.grid_points()) > 0.0):
        n = problem.cutoff.plateau_scale
        raise ConfigurationError(
            f"cutoff.n: the initial taper (1 up to n = {n:g}, 0 beyond n + 1 "
            f"= {n + 1:g}) removes the whole bump of init_center "
            f"{p['init_center']} and init_radius {radius:g}")
    if total <= 0:
        raise ConfigurationError(
            f"pde.init_center: the bump of init_radius {radius:g} gives an "
            f"empty density on the grid")
    f.data /= total
    return f


def _write_series(outdir, res):
    dim = res.valpha_series.shape[1]
    header = ["time", "mass"] + [f"valpha_{j + 1}" for j in range(dim)]
    columns = [res.times, res.mass_series, *res.valpha_series.T]
    for name in sorted(res.observed):
        header.append(name)
        columns.append(res.observed[name])
    _write_csv(os.path.join(outdir, "series.csv"), header,
               _floats(len(columns)), columns)


def _write_snapshots(outdir, res):
    for idx, (t, f) in enumerate(res.snapshots):
        axes = range(f.dim)
        ks = ["%d" % k for k in range(-f.modes, f.modes + 1)]
        _write_grid(os.path.join(outdir, f"snapshot_coeffs_{idx:04d}.csv"),
                    [f"k{j + 1}" for j in axes] + ["re", "im"], ks, f.dim,
                    "%.17g,%.17g", ((row.real.tolist(), row.imag.tolist())
                                    for row in f.coefficient_rows()))
        x = ["%.17g" % v for v in f.axis_points().tolist()]
        _write_grid(os.path.join(outdir, f"grid_{idx:04d}.csv"),
                    [f"v{j + 1}" for j in axes] + ["rho"], x, f.dim, "%.17g",
                    ([row.tolist()] for row in f.grid_rows()))


def _annulus_probe(outdir, res, radii, measured):
    """Take the annulus probe into probe.csv and `measured`, and return its
    summary lines.  The annulus minimum and the consensus path speeds are
    taken apart: a minimum that cannot be taken writes no probe.csv, and
    speeds that cannot be are written as nan."""
    try:
        speeds = consensus_path_speeds(res.times, res.valpha_series)
        speed_line = f"consensus speed sup: {speeds.speed_sup:.4f}"
    except DomainError as exc:
        speeds = PathSpeeds(speed_sup=float("nan"), holder_sup=float("nan"))
        speed_line = f"consensus speed sup: not measured ({exc})"
    try:
        min_val, argmin = spectral.positivity_probe(
            res.final, res.valpha_series[-1], *radii)
    except DomainError as exc:
        return [f"min density on annulus: not measured ({exc})", speed_line]
    row = [min_val, *argmin.tolist(), measured["mass_drift"], speeds.speed_sup,
           speeds.holder_sup]
    _write_csv(os.path.join(outdir, "probe.csv"),
               ["min_density", *(f"argmin_{j + 1}" for j in range(len(argmin))),
                "mass_drift", "speed_sup", "holder_sup"], _floats(len(row)),
               [[value] for value in row])
    measured["min_density"] = min_val
    return [f"min density on annulus {'>' if min_val > 0.0 else '<='} 0"
            f" (value {min_val:.6e} at {_one_line(argmin, precision=3)})",
            speed_line]


def run_pde(cfg, outdir):
    """Evolve and write the configured density, and take the probes its
    keys set: every run measures its mass drift (the worst deviation from
    the initial mass), `pde.annulus_inner` with `annulus_outer` adds the
    annulus probe, and `pde.v_star` the 1-D mass right of v*."""
    p = cfg["pde"]
    if p["M"] < 4 * p["K"]:
        raise ConfigurationError(f"pde.M: need at least 4 pde.K = "
                                 f"{4 * p['K']} grid points, got {p['M']}")
    radii = p.get("annulus_inner"), p.get("annulus_outer")
    v_star = p.get("v_star")
    if radii != (None, None) and (None in radii or not radii[0] < radii[1]):
        raise ConfigurationError(f"pde.annulus_inner: the annulus probe needs "
                                 f"annulus_inner < annulus_outer, got "
                                 f"{radii[0]} and {radii[1]}")
    if v_star is not None and (len(p["init_center"]) != 1
                               or not abs(v_star) < p["L"]):
        raise ConfigurationError(f"pde.v_star: needs a 1-D pde.init_center and "
                                 f"|v_star| < pde.L = {p['L']:g}, got "
                                 f"init_center {p['init_center']} and v_star "
                                 f"{v_star}")
    problem = _build_problem(cfg)
    f0 = _initial_field(cfg, problem)
    observers = {} if v_star is None else {
        "right_mass": lambda f: spectral.confinement_probe_1d(f, v_star)}
    try:
        res = spectral.evolve(f0, problem, horizon=p["horizon"], dt=p["dt"],
                              record_every=p["record_every"],
                              snapshot_times=p["snapshot_times"],
                              observers=observers)
    except ConfigurationError as exc:    # snapshot times against the horizon
        raise ConfigurationError(f"pde.{exc}") from None
    _write_series(outdir, res)
    _write_snapshots(outdir, res)
    drift = float(np.max(np.abs(res.mass_series - res.mass_series[0])))
    lines = [f"steps recorded: {len(res.times)}", f"mass drift: {drift:.3e}"]
    measured = {"mass_drift": drift}
    if None not in radii:
        lines += _annulus_probe(outdir, res, radii, measured)
    if v_star is not None:
        worst = float(np.max(res.observed["right_mass"]))
        measured["right_mass_sup"] = worst
        lines.append(f"sup over recorded times of mass right of v*: {worst:.6e}")
    return lines + [f"wall time: {res.wall_time:.1f}s"], measured


DRIVERS = {
    "optimize": run_optimize,
    "mfl-scaling": run_mfl_scaling,
    "success-prob": run_success_prob,
    "cutoff-check": run_cutoff_check,
    "pde-run": run_pde,
}

_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


def write_summary(cfg, outdir, lines, measured):
    """Write summary.txt and return its (name, passed, detail) checks, one
    per configured threshold; a threshold on an unmeasured quantity fails."""
    checks = []
    for key, (quantity, op) in CHECKS.items():
        bound, value = cfg["check"].get(key), measured.get(quantity)
        if bound is None:
            continue
        if value is None:
            ok, detail = False, f"{cfg['experiment']} does not measure {quantity}"
        else:
            ok = bool(_COMPARE[op](value, bound))
            detail = f"{quantity} = {value:.9g}, required {op} {bound:.9g}"
        checks.append((key, ok, detail))
    text = [f"# generated {datetime.now(timezone.utc).isoformat()}",
            f"experiment: {cfg['experiment']}", *lines]
    if checks:
        text.append("checks:")
    text += [f"  {name}: {'PASS' if ok else 'FAIL'} ({detail})"
             for name, ok, detail in checks]
    with _output(os.path.join(outdir, "summary.txt"), newline=None) as fh:
        fh.write("".join(line + "\n" for line in text))
    return checks
