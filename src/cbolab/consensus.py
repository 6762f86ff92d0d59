"""Numerically stable consensus points from ensembles and from densities.

The consensus point is the Gibbs-weighted average of positions with weights
exp(-alpha * f).  Both implementations shift the exponent by the minimum
sampled value before exponentiating, which changes nothing mathematically
(the weights are a ratio) and keeps every weight in (0, 1] for any alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Inputs outside an operation's domain (empty ensemble, NaN cost...)."""


class NumericalBreakdownError(RuntimeError):
    """A quadrature degenerated past the point of being trustworthy."""


@dataclass(frozen=True)
class ConsensusResult:
    point: np.ndarray
    log_normalizer: float          # log of the mean Gibbs weight
    effective_sample_fraction: float  # (sum w)^2 / (N sum w^2), in (0, 1]


def consensus_point(positions: np.ndarray, values: np.ndarray, alpha: float) -> ConsensusResult:
    """Gibbs-weighted average of an ensemble.

    positions has shape (N, d), values shape (N,).  A batch of R ensembles,
    positions (R, N, d) and values (R, N), is reduced per run over the
    particle axis: the point has shape (R, d) and the two scalars become
    arrays of shape (R,), each row equal to that run's own result.  All
    reductions are plain numpy sums (fixed pairwise order), so results are
    reproducible run to run and independent of the batch size.
    """
    positions = np.asarray(positions, dtype=float)
    values = np.asarray(values, dtype=float)
    if positions.ndim not in (2, 3):
        raise DomainError(
            f"positions must be (N, d) or (R, N, d), got shape {positions.shape}")
    n = positions.shape[-2]
    if n == 0:
        raise DomainError("consensus point of an empty ensemble")
    if values.shape != positions.shape[:-1]:
        raise DomainError(
            f"values must have shape {positions.shape[:-1]}, got {values.shape}")
    if not np.all(np.isfinite(values)) or not np.all(np.isfinite(positions)):
        raise DomainError("non-finite entries in ensemble")
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")

    fmin = values.min(axis=-1)
    w = np.exp(-alpha * (values - fmin[..., None]))
    sw = w.sum(axis=-1)
    point = (w[..., None] * positions).sum(axis=-2) / sw[..., None]
    ess = sw**2 / (n * np.square(w).sum(axis=-1))
    log_normalizer = np.log(sw / n) - alpha * fmin
    if positions.ndim == 2:
        ess, log_normalizer = float(ess), float(log_normalizer)
    return ConsensusResult(point=point, log_normalizer=log_normalizer,
                           effective_sample_fraction=ess)


def gibbs_quadrature(obj, alpha: float, pts: np.ndarray) -> np.ndarray:
    """Rows [1, w, w v_1, ..., w v_d] of the density-consensus quadrature.

    `pts` has shape (..., d); the rows are flattened over its leading axes,
    so the result has shape (d + 2, number of points).  The Gibbs weights w
    are shifted by the minimum sampled objective value, as in
    `consensus_point`.  Built once per grid, the rows turn every later
    consensus evaluation into one matrix-vector product.
    """
    pts = np.asarray(pts, dtype=float)
    fvals = np.asarray(obj.eval(pts), dtype=float).reshape(-1)
    w = np.exp(-alpha * (fvals - float(fvals.min())))
    return np.vstack([np.ones_like(w), w, w * pts.reshape(-1, pts.shape[-1]).T])


def density_consensus(rows: np.ndarray, rho: np.ndarray,
                      return_clamp_fraction: bool = False):
    """Consensus point of density samples `rho` under quadrature `rows`.

    `rows` comes from `gibbs_quadrature` on the grid the samples live on.
    Negative samples (spectral ringing) are clamped to zero for the
    weighting; if the clamped mass exceeds half of the total absolute mass
    the quadrature is meaningless and an error is raised.
    """
    rho = np.asarray(rho, dtype=float).reshape(-1)
    sums = rows @ np.maximum(rho, 0.0)
    pos_mass = float(sums[0])
    neg_mass = max(pos_mass - float(rho.sum()), 0.0)
    total_abs = pos_mass + neg_mass
    if total_abs <= 0.0:
        raise NumericalBreakdownError("density field has no mass on its grid")
    clamp_fraction = neg_mass / total_abs
    if clamp_fraction > 0.5:
        raise NumericalBreakdownError(
            f"clamped {clamp_fraction:.1%} of the density mass; "
            "the field is no longer a usable density"
        )
    denom = float(sums[1])
    if denom <= 0.0:
        raise NumericalBreakdownError("all Gibbs weights vanished on the grid")
    point = sums[2:] / denom
    if return_clamp_fraction:
        return point, clamp_fraction
    return point


def consensus_point_density(field, obj, alpha: float,
                            return_clamp_fraction: bool = False):
    """Consensus point of a density represented on a quadrature grid.

    `field` is any object exposing ``grid_values()`` (density samples) and
    ``grid_points()`` (matching coordinates, shape (..., d)); the spectral
    fields of the PDE solver qualify.  See `density_consensus` for the
    clamping of negative samples.
    """
    rows = gibbs_quadrature(obj, alpha, field.grid_points())
    return density_consensus(rows, field.grid_values(), return_clamp_fraction)


def laplace_gap(positions: np.ndarray, values: np.ndarray, alpha: float, obj) -> float:
    """f(consensus point) minus the best sampled value.

    Shrinks toward zero as alpha grows; a diagnostic for how sharply the
    Gibbs weighting concentrates on the best particles, not a certified
    bound.
    """
    res = consensus_point(positions, values, alpha)
    return float(obj.eval(res.point[None, :])[0] - np.min(values))
