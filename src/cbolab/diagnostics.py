"""Quantitative checks of convergence behaviour from recorded trajectories.

Everything here is measurement, on arrays a run has recorded:
exponential-rate fits of decay series, finite-difference speeds of a
consensus path and scaling-law fits of coupling errors.  The runs
themselves are stepped in `particle`.  The constants the theory leaves
existential (decay prefactors, mean-field constants) are never asserted,
only the measurable exponents and rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .consensus import DomainError


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares line y ~ slope * x + intercept, in closed form from
    the deviations about the means (no LAPACK call)."""
    dx = x - x.mean()
    slope = float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))
    return slope, float(y.mean() - slope * x.mean())


def fit_exponential_rate(times, values, window: tuple) -> tuple:
    """Least-squares decay rate of log(values) over a time window, for a
    series of positive scalars (a Lyapunov-style diagnostic) sampled at
    `times`.

    Returns (rate, r_squared); rate is positive for decaying series.  A
    constant series fits exactly, (0.0, 1.0), whatever rounding its mean
    picks up, and the rate is never -0.0.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise DomainError("times and values must be matching 1-d arrays")
    if np.any(np.diff(times) <= 0):
        raise DomainError("times must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise DomainError("series values must be finite")
    t0, t1 = window
    sel = (times >= t0) & (times <= t1)
    if int(sel.sum()) < 4:
        raise DomainError("need at least 4 samples in the fit window")
    v = values[sel]
    if np.any(v <= 0.0):
        raise DomainError("nonpositive value inside the fit window")
    t = times[sel]
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
