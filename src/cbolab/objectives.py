"""Objective functions and deterministic sample clouds.

The optimizer and the density solver only ever see an `Objective`: a cost
function with its known minimizer.  An objective has no dimension of its
own: it evaluates points in any d, and a run's dimension is that of the
points it starts from.  `sample_box` draws the
nested low-discrepancy clouds that the cutoff checks sample on, and
`time_grid` is the step rule that the optimizer and the solver share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ConfigurationError(ValueError):
    """Bad experiment configuration (unknown name, inconsistent sizes...)."""


def time_grid(horizon: float, dt: float) -> tuple:
    """The steps that march to `horizon` at about `dt`: (n, horizon / n)
    with n = max(1, round(horizon / dt)), so the last step lands on the
    horizon.  The particle runs and the density solver share it, so
    both views are recorded at the same times.  A time that is not
    positive raises `ConfigurationError` naming it."""
    for name, value in (("horizon", horizon), ("dt", dt)):
        if not value > 0:
            raise ConfigurationError(f"{name}: need a positive time, got {value}")
    n = max(1, int(round(horizon / dt)))
    return n, horizon / n


@dataclass(frozen=True)
class Objective:
    """Evaluatable cost on R^d, for every d.

    `eval`, the one way to evaluate it, is vectorized over leading axes:
    it accepts arrays of shape (..., d) and reads d off their last axis.
    `known_minimizer`, when known, broadcasts against such points.
    Instances are immutable, so one may serve many problems.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    known_minimizer: Optional[np.ndarray] = None


def component_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last (component) axis: the bits of np.sum(x, axis=-1).

    numpy adds a contiguous row of fewer than 8 entries left to right, but
    its reduction along a short last axis costs ~25 ns per row; adding the
    component columns elementwise gives the same sums far faster.  Rows of
    8 or more go to np.sum, whose pairwise order differs.
    """
    d = x.shape[-1]
    if d >= 8:
        return np.sum(x, axis=-1)
    out = x[..., 0].copy()
    for j in range(1, d):
        out += x[..., j]
    return out if out.ndim else out[()]     # a scalar for a single point


def particle_sum(x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Weighted sum over the particle axis: the bits of
    np.sum(w[..., None] * x, axis=-2), or of np.sum(x, axis=-2) unweighted.

    `x` holds points (..., N, d) and `w` one weight per point (..., N).
    For d >= 2 numpy reduces along the particle axis left to right, in
    particle order, one sum per component; each particle costs it an inner
    loop over only d entries.  np.einsum adds the products in that same
    order, without forming them, several times faster.  For d = 1 the
    particle axis is the contiguous one and numpy sums pairwise, which
    einsum does not reproduce, so np.sum stays there.
    """
    if x.shape[-1] == 1:
        return np.sum(x if w is None else w[..., None] * x, axis=-2)
    if w is None:
        return np.einsum("...ij->...j", x)
    return np.einsum("...i,...ij->...j", w, x)


# the origin of every R^d: a read-only scalar broadcasts against any point
_ORIGIN = np.zeros(())
_ORIGIN.flags.writeable = False


_RASTRIGIN_A = 10.0  # classical weighting of the cosine ripple


def _rastrigin(x):
    x = np.asarray(x, dtype=float)
    a = _RASTRIGIN_A
    return a * x.shape[-1] + component_sum(
        np.square(x) - a * np.cos(2.0 * np.pi * x))


def _ackley(x):
    x = np.asarray(x, dtype=float)
    sq = np.mean(np.square(x), axis=-1)
    cs = np.mean(np.cos(2.0 * np.pi * x), axis=-1)
    return -20.0 * np.exp(-0.2 * np.sqrt(sq)) - np.exp(cs) + 20.0 + np.e


BUILTINS = {
    "quadratic": Objective(eval=lambda x: component_sum(np.square(x)),
                           known_minimizer=_ORIGIN),
    "rastrigin": Objective(eval=_rastrigin, known_minimizer=_ORIGIN),
    "ackley": Objective(eval=_ackley, known_minimizer=_ORIGIN),
}


def builtin_objective(name: str) -> Objective:
    """Look up a benchmark objective by name; its minimizer is the origin.
    An unknown name raises `ConfigurationError` naming it."""
    try:
        return BUILTINS[name]
    except KeyError:
        raise ConfigurationError(
            f"name: unknown objective {name!r}; choose from {sorted(BUILTINS)}"
        ) from None


def sample_box(dim: int, low, high, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy samples in a box (Sobol, scrambled).

    The first `count` points of the sequence are a prefix of any longer
    request with the same seed, so refinement studies are nested.
    """
    if count < 1:
        raise ConfigurationError(f"sampler needs at least 1 point, got {count}")
    low = np.broadcast_to(np.asarray(low, dtype=float), (dim,))
    high = np.broadcast_to(np.asarray(high, dtype=float), (dim,))
    if not np.all(high > low):
        raise ConfigurationError("sampler box is degenerate")
    from scipy.stats import qmc     # lazily: scipy.stats costs ~0.7 s to import
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    # draw a power-of-two block (Sobol balance) and keep the nested prefix
    u = eng.random(1 << max(1, int(np.ceil(np.log2(count)))))[:count]
    return low + u * (high - low)
