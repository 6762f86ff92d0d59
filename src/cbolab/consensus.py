"""Numerically stable consensus points from ensembles and from densities.

The consensus point is the Gibbs-weighted average of positions with weights
exp(-alpha * f).  Both implementations shift the exponent by the minimum
sampled value before exponentiating, which changes nothing mathematically
(the weights are a ratio) and keeps every weight in (0, 1] for any alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
    axis; `reach` is R = max |x_j| over those coordinates.  A weight grid
    with full support keeps the whole grid.

    `core` is the box's nested core, itself a `GibbsBox` (without a core):
    the smallest box that holds every weight >= 2^-128 (`CORE_WEIGHT`),
    its `index` in grid indices too.  `tail` is the sum of the weights
    outside this box, rounded up: 0 for the support box, and for its core
    the sum of the support box's weights outside the core.  A consensus
    is read on the core when the tail provably cannot move it (see
    `density_consensus`).
    """

    index: tuple
    weights: np.ndarray
    axes: tuple
    reach: float
    core: Optional["GibbsBox"] = None
    tail: float = 0.0


# the core of a Gibbs box holds every weight at or above this
CORE_WEIGHT = 2.0**-128
# a consensus read on the core is within this of the support box's, per
# coordinate
CORE_TOLERANCE = 2.0**-60


def _box_of(live: np.ndarray) -> tuple:
    """The smallest box of indices, one slice per axis, holding every True
    entry of `live`."""
    index = []
    for j in range(live.ndim):
        others = tuple(a for a in range(live.ndim) if a != j)
        hit = np.flatnonzero(np.any(live, axis=others))
        index.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(index)


def gibbs_box(obj, alpha: float, axes) -> GibbsBox:
    """Gibbs weights exp(-alpha (f - f_min)) on the tensor grid of `axes`.

    `axes` holds the d one-dimensional coordinate arrays of the grid, in
    "ij" order.  The weights are shifted by the minimum sampled objective
    value, as in `consensus_point`, so the largest is 1; built once per
    grid, they turn every later consensus evaluation into one weighted
    pass over the samples of their support box, or of its core.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    axes = [np.asarray(x, dtype=float) for x in axes]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    fvals = np.asarray(obj.eval(pts), dtype=float).reshape(pts.shape[:-1])
    w = np.exp(-alpha * (fvals - float(fvals.min())))
    index = _box_of(w > 0.0)
    inner = _box_of(w >= CORE_WEIGHT)
    # the support box outside the core, as slabs: along axis j, the
    # indices before or after the core's, inside the core on the axes
    # before j and inside the box on those after it
    tail = 0.0
    for j, (b, c) in enumerate(zip(index, inner)):
        for part in (slice(b.start, c.start), slice(c.stop, b.stop)):
            tail += float(w[inner[:j] + (part,) + index[j + 1:]].sum())
    # rounded up: any order of summing n terms errs by at most (n - 1) u
    # of their sum, and the factor adds 2 N u, N >= n the grid's size, of
    # which its own rounding takes u
    tail *= 1.0 + w.size * 2.0**-52
    return _kept_on(index, w, axes, core=_kept_on(inner, w, axes, tail=tail))


def _kept_on(index: tuple, w: np.ndarray, axes, **rest) -> GibbsBox:
    """The weights `w` on the grid of `axes`, kept on the box `index`."""
    box_axes = tuple(x[s] for x, s in zip(axes, index))
    return GibbsBox(index, np.ascontiguousarray(w[index]), box_axes,
                    max(float(np.max(np.abs(x))) for x in box_axes), **rest)


def density_consensus(box: GibbsBox, samples: Callable[[tuple], np.ndarray],
                      bound: float, total: float) -> np.ndarray:
    """Consensus point of a density under the Gibbs weights `box`, where
    `samples(index)` returns its grid samples on the grid box `index`.

    Negative samples (spectral ringing) are clamped to zero for the
    weighting, u = max(rho, 0) w.  The grid is a tensor product, so
    coordinate j is u summed over the other axes, dotted with the box's
    coordinates along axis j, over the sum of u.

    `total` is the sum of the density's samples over the whole grid.  A
    density is refused when the clamp would remove more than half of its
    absolute mass: with P and N the sums of the positive and negative parts
    of the samples, N > (P + N) / 2 iff N > P iff `total` = P - N < 0.

    The point is first read on the core, from `samples(box.core.index)`.
    Given `bound`, an upper bound B of |rho| over the whole support box,
    the dropped weights sum to at most T = `box.core.tail`, so they add at
    most B T to the denominator and R B T to each numerator, R =
    `box.reach`, and move each coordinate by at most 2 R B T / D_core,
    with D_core the core's denominator.  The core's point is returned when
    that is at most 2^-60 D_core (`CORE_TOLERANCE`); otherwise the point
    is read on the support box, from `samples(box.index)`, in the bits of
    a consensus without a core, and a box without positive density raises.
    """
    if total < 0.0:
        raise NumericalBreakdownError(
            "the density's mass is negative: more than half of its absolute "
            "mass would be clamped, so it is no longer a usable density")
    core = box.core
    point, denom = _weighted_pass(core, samples(core.index))
    if denom > 0.0 and (2.0 * box.reach * bound * core.tail
                        <= CORE_TOLERANCE * denom):
        return point
    point, denom = _weighted_pass(box, samples(box.index))
    if not denom > 0.0:
        raise NumericalBreakdownError(
            "no positive density where the Gibbs weights are nonzero")
    return point


def _weighted_pass(box: GibbsBox, rho: np.ndarray):
    """(consensus point, denominator) of the samples `rho` on `box`; the
    point is None when the denominator is not positive."""
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
        return None, denom
    return np.array([m @ x for m, x in zip(marginals, box.axes)]) / denom, denom
