"""Numerically stable consensus points from ensembles and from densities.

The consensus point is the Gibbs-weighted average of positions with weights
exp(-alpha * f).  Both implementations shift the exponent by the minimum
sampled value before exponentiating, which changes nothing mathematically
(the weights are a ratio) and keeps every weight in (0, 1] for any alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import particle_sum


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
    arrays of shape (R,), each row equal to that run's own result.  Every
    reduction runs in a fixed order within its row (the particle sum's
    order is stated in `objectives.particle_sum`), so results are
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
    point = particle_sum(positions, w) / sw[..., None]
    ess = sw**2 / (n * np.square(w).sum(axis=-1))
    log_normalizer = np.log(sw / n) - alpha * fmin
    if positions.ndim == 2:
        ess, log_normalizer = float(ess), float(log_normalizer)
    return ConsensusResult(point=point, log_normalizer=log_normalizer,
                           effective_sample_fraction=ess)


@dataclass(frozen=True)
class GibbsBox:
    """Gibbs weights of a tensor-product grid, kept on their support box.

    `index` holds one slice per grid axis: the smallest range of indices
    outside which every weight has underflowed to exactly 0.  `weights`
    are the weights on that box and `axes` its coordinates, one array per
    axis.  A weight grid with full support keeps the whole grid.
    """

    index: tuple
    weights: np.ndarray
    axes: tuple


def gibbs_box(obj, alpha: float, axes) -> GibbsBox:
    """Gibbs weights exp(-alpha (f - f_min)) on the tensor grid of `axes`.

    `axes` holds the d one-dimensional coordinate arrays of the grid, in
    "ij" order.  The weights are shifted by the minimum sampled objective
    value, as in `consensus_point`, so the largest is 1; built once per
    grid, they turn every later consensus evaluation into one weighted
    pass over the samples of their support box.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    axes = [np.asarray(x, dtype=float) for x in axes]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    fvals = np.asarray(obj.eval(pts), dtype=float).reshape(pts.shape[:-1])
    w = np.exp(-alpha * (fvals - float(fvals.min())))
    index = []
    for j in range(w.ndim):
        others = tuple(a for a in range(w.ndim) if a != j)
        live = np.flatnonzero(np.any(w > 0.0, axis=others))
        index.append(slice(int(live[0]), int(live[-1]) + 1))
    index = tuple(index)
    return GibbsBox(index, np.ascontiguousarray(w[index]),
                    tuple(x[s] for x, s in zip(axes, index)))


def density_consensus(box: GibbsBox, rho: np.ndarray) -> np.ndarray:
    """Consensus point of density samples `rho` on the support box `box`.

    `rho` holds the samples on the box only, `grid_values[box.index]`.
    Negative samples (spectral ringing) are clamped to zero for the
    weighting, u = max(rho, 0) w.  The grid is a tensor product, so
    coordinate j is u summed over the other axes, dotted with the box's
    coordinates along axis j, over the sum of u.  Whether the clamped part
    leaves a usable density is read from the mass of the whole field,
    which the caller has (see `galerkin._consensus_at`).
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != box.weights.shape:
        raise DomainError(f"samples of shape {rho.shape} are not on the "
                          f"weight box {box.weights.shape}")
    u = np.maximum(rho, 0.0)
    u *= box.weights
    marginals = [u.sum(axis=tuple(a for a in range(u.ndim) if a != j))
                 for j in range(u.ndim)]
    denom = float(marginals[0].sum())
    if not denom > 0.0:
        raise NumericalBreakdownError(
            "no positive density where the Gibbs weights are nonzero")
    return np.array([m @ x for m, x in zip(marginals, box.axes)]) / denom
