"""Quantitative checks of convergence behaviour from recorded trajectories.

Everything here is measurement: exponential-rate fits of decay series,
finite-difference speeds of a consensus path, scaling-law fits of coupling
errors, and repeated-run success statistics.  The constants the theory
leaves existential (decay prefactors, mean-field constants) are never
asserted, only the measurable exponents and rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .consensus import DomainError
from .objectives import time_grid
from . import particle, streams


@dataclass(frozen=True)
class DecaySeries:
    """Time-stamped positive scalars (a Lyapunov-style diagnostic)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise DomainError("times and values must be matching 1-d arrays")
        if np.any(np.diff(t) <= 0):
            raise DomainError("times must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise DomainError("series values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares line y ~ slope * x + intercept, in closed form from
    the deviations about the means (no LAPACK call)."""
    dx = x - x.mean()
    slope = float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))
    return slope, float(y.mean() - slope * x.mean())


def fit_exponential_rate(series: DecaySeries, window: tuple) -> tuple:
    """Least-squares decay rate of log(values) over a time window.

    Returns (rate, r_squared); rate is positive for decaying series.  A
    constant series fits exactly, (0.0, 1.0), whatever rounding its mean
    picks up, and the rate is never -0.0.
    """
    t0, t1 = window
    sel = (series.times >= t0) & (series.times <= t1)
    if int(sel.sum()) < 4:
        raise DomainError("need at least 4 samples in the fit window")
    v = series.values[sel]
    if np.any(v <= 0.0):
        raise DomainError("nonpositive value inside the fit window")
    t = series.times[sel]
    y = np.log(v)
    if np.all(y == y[0]):
        return 0.0, 1.0
    slope, intercept = _line_fit(t, y)
    fit = slope * t + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return 0.0 - slope, r2      # +0.0 where -slope would be -0.0


@dataclass(frozen=True)
class PathSpeeds:
    speed_sup: float    # max |delta v| / delta t, bounded-derivative evidence
    holder_sup: float   # max |delta v| / sqrt(delta t), 1/2-Holder evidence


def consensus_path_speeds(times, points) -> PathSpeeds:
    """Finite-difference speeds of a consensus path sampled as one row of
    `points` per entry of `times`."""
    t = np.asarray(times, dtype=float)
    p = np.asarray(points, dtype=float)
    if t.shape[0] < 3:
        raise DomainError("need at least 3 path samples")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise DomainError("times must be strictly increasing")
    dv = np.linalg.norm(np.diff(p, axis=0), axis=1)
    return PathSpeeds(speed_sup=float(np.max(dv / dt)),
                      holder_sup=float(np.max(dv / np.sqrt(dt))))


@dataclass
class SuccessReport:
    runs: int
    epsilon: float
    hits: int
    fraction: float
    final_errors: list
    seeds: list                 # the seed each run derived and ran with
    diverged_runs: list = field(default_factory=list)


def success_probability(obj, runs: int, epsilon: float, *, n_particles: int,
                        dt: float, lam: float, sigma: float, alpha: float,
                        horizon: float, seed: int, init_center,
                        init_spread: float = 1.0) -> SuccessReport:
    """Fraction of independent optimizations ending within epsilon of the
    known minimizer at the horizon, in `time_grid`'s steps.  Each run
    derives its own seed, recorded in `seeds`, so the report is
    reproducible; diverged runs count as misses and are flagged.

    The runs are stepped together as one (runs, N, d) batch by `cbo_step`.
    Each row is bit-identical to `run_optimization` with that run's seed.
    A run whose positions turn non-finite is flagged at that step, as
    `DivergenceError` flags it in a single run, and leaves the batch.  So
    is a run whose objective values overflow in any state, the final one
    included, while its positions are still finite: its consensus point
    would be undefined.
    """
    if runs < 1:
        raise DomainError("needs at least one run")
    v_star = obj.known_minimizer
    if v_star is None:
        raise DomainError("success probability needs a known minimizer")
    n_steps, dt = time_grid(horizon, dt)

    seeds = np.array([streams.derive_seed(seed, r) for r in range(runs)],
                     dtype=np.uint64)
    pos = streams.initial_positions(seeds, n_particles, obj.dim,
                                    init_center, init_spread)
    ens = particle.ParticleEnsemble(positions=pos, step=dt, lam=lam,
                                    sigma=sigma, alpha=alpha, rng_seed=seeds)
    live = np.arange(runs)
    # overflow is caught as a non-finite value, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            values = obj.eval(ens.positions)
            ok = np.isfinite(values).all(axis=1)
            if not ok.all():
                live, ens, values = live[ok], ens.select_runs(ok), values[ok]
                if not live.size:
                    break
            if k == n_steps:        # the final state is checked, not stepped
                break
            res = particle.consensus_point(ens.positions, values, alpha)
            ens = particle.cbo_step(ens, obj, consensus=res)
            ok = np.isfinite(ens.positions).all(axis=(1, 2))
            if not ok.all():
                live, ens = live[ok], ens.select_runs(ok)
                if not live.size:
                    break

        # one norm call per run: the norm of a vector is a dot product, whose
        # rounding a batched norm along an axis does not reproduce
        final_errors = [np.inf] * runs
        for row, run_index in enumerate(live):
            mean_final = ens.positions[row].mean(axis=0)
            final_errors[run_index] = float(np.linalg.norm(mean_final - v_star))
    diverged = sorted(set(range(runs)) - set(live.tolist()))
    hits = sum(1 for r in live if final_errors[r] <= epsilon)
    return SuccessReport(runs=runs, epsilon=epsilon, hits=hits,
                         fraction=hits / runs, final_errors=final_errors,
                         seeds=seeds.tolist(), diverged_runs=diverged)


def mean_field_scaling_fit(rows: Sequence[tuple]) -> tuple:
    """Log-log slope of coupling error versus ensemble size.

    Zero-error rows (deterministic couplings) carry no scaling information
    and are dropped; informative rows at fewer than 3 distinct sizes are an
    error.
    """
    ns = np.array([float(n) for n, _ in rows])
    errs = np.array([float(e) for _, e in rows])
    keep = errs > 0.0
    if len(set(ns[keep].tolist())) < 3:     # np.unique would import numpy.ma
        raise DomainError("need at least 3 distinct sizes with a nonzero "
                          "error for a fit")
    return _line_fit(np.log(ns[keep]), np.log(errs[keep]))
