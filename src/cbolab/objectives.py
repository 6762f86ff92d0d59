"""Objective functions and numerical checks of their growth behaviour.

The optimizer and the density solver only ever see an `Objective`: a cost
function with optional analytic derivatives and metadata (known minimizer,
infimum).  `check_growth_conditions` probes, by sampling, the regularity an
objective must have for the convergence theory to apply: a locally-Lipschitz
bound proportional to (|v|+|u|)|v-u|, quadratic upper growth, quadratic
lower growth outside a ball, and polynomial growth of the derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class ConfigurationError(ValueError):
    """Bad experiment configuration (unknown name, inconsistent sizes...)."""


@dataclass(frozen=True)
class Objective:
    """Evaluatable cost on R^d.

    `eval`, `grad` and `laplacian` are vectorized over leading axes: they
    accept arrays of shape (..., dim).  Instances are immutable and safe to
    share between workers.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    laplacian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_minimizer: Optional[np.ndarray] = None
    lower_bound: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError(f"objective dim must be >= 1, got {self.dim}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.eval(points)


@dataclass
class GrowthReport:
    """Sampled suprema/infima of the growth-condition ratios."""

    lipschitz_ratio_max: float
    upper_quadratic_ratio_max: float
    lower_quadratic_ratio_min: float
    sample_count: int
    satisfied: dict = field(default_factory=dict)
    grad_ratio_max: Optional[float] = None
    laplacian_ratio_max: Optional[float] = None

    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())


def _quadratic(dim: int) -> Objective:
    return Objective(
        dim=dim,
        eval=lambda x: np.sum(np.square(x), axis=-1),
        grad=lambda x: 2.0 * np.asarray(x, dtype=float),
        laplacian=lambda x: np.full(np.shape(x)[:-1], 2.0 * dim),
        known_minimizer=np.zeros(dim),
        lower_bound=0.0,
        name="quadratic",
    )


_RASTRIGIN_A = 10.0  # classical weighting of the cosine ripple


def _rastrigin(dim: int) -> Objective:
    a = _RASTRIGIN_A
    two_pi = 2.0 * np.pi

    def f(x):
        x = np.asarray(x, dtype=float)
        return a * dim + np.sum(np.square(x) - a * np.cos(two_pi * x), axis=-1)

    def g(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x + a * two_pi * np.sin(two_pi * x)

    def lap(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * dim + a * two_pi**2 * np.sum(np.cos(two_pi * x), axis=-1)

    return Objective(dim=dim, eval=f, grad=g, laplacian=lap,
                     known_minimizer=np.zeros(dim), lower_bound=0.0,
                     name="rastrigin")


def _ackley(dim: int) -> Objective:
    def f(x):
        x = np.asarray(x, dtype=float)
        sq = np.mean(np.square(x), axis=-1)
        cs = np.mean(np.cos(2.0 * np.pi * x), axis=-1)
        return -20.0 * np.exp(-0.2 * np.sqrt(sq)) - np.exp(cs) + 20.0 + np.e

    return Objective(dim=dim, eval=f, known_minimizer=np.zeros(dim),
                     lower_bound=0.0, name="ackley")


_BUILTINS = {"quadratic": _quadratic, "rastrigin": _rastrigin, "ackley": _ackley}


def builtin_objective(name: str, dim: int) -> Objective:
    """Look up a benchmark objective by name; minimizer is the origin."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown objective {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None
    if dim < 1:
        raise ConfigurationError(f"objective dim must be >= 1, got {dim}")
    return factory(dim)


def sample_box(dim: int, low, high, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy samples in a box (Sobol, scrambled).

    The first `count` points of the sequence are a prefix of any longer
    request with the same seed, so refinement studies are nested.
    """
    low = np.broadcast_to(np.asarray(low, dtype=float), (dim,))
    high = np.broadcast_to(np.asarray(high, dtype=float), (dim,))
    if not np.all(high > low):
        raise ConfigurationError("sampler box is degenerate")
    from scipy.stats import qmc     # lazily: scipy.stats costs ~0.7 s to import
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    # draw a power-of-two block (Sobol balance) and keep the nested prefix
    u = eng.random(1 << max(1, int(np.ceil(np.log2(count)))))[:count]
    return low + u * (high - low)


def check_growth_conditions(
    obj: Objective,
    low,
    high,
    count: int,
    constants: Optional[dict] = None,
    seed: int = 0,
    poly_orders: tuple = (2.0, 2.0),
) -> GrowthReport:
    """Probe the growth conditions on sampled pairs from a box.

    Parameters
    ----------
    obj : Objective
    low, high : array_like
        Corners of the sampling box.
    count : int
        Number of sample points (pairs are formed by splitting in half).
    constants : dict, optional
        Thresholds {"L_f", "c_u", "c_l", "M"}.  When given, the report's
        `satisfied` flags compare the sampled ratios against them (check
        mode); when omitted only the ratios are reported (report mode).
    poly_orders : (p, q)
        Polynomial orders for the Laplacian / gradient ratios, used only
        when the objective carries analytic derivatives.
    """
    if count < 2:
        raise ConfigurationError("growth check needs at least 2 samples")
    pts = sample_box(obj.dim, low, high, 2 * count, seed)
    v, u = pts[:count], pts[count:]
    fv, fu = obj.eval(v), obj.eval(u)
    # squared norms via the same sum-of-squares expression objectives use,
    # so exact identities (quadratic ratio = 1) survive floating point
    nv_sq = np.sum(np.square(v), axis=-1)
    nu_sq = np.sum(np.square(u), axis=-1)
    nv, nu = np.sqrt(nv_sq), np.sqrt(nu_sq)
    sep = np.linalg.norm(v - u, axis=-1)

    denom = (nv + nu) * sep
    ok = denom > 0.0  # coincident pairs are skipped, not an error
    lip = float(np.max(np.abs(fv - fu)[ok] / denom[ok])) if np.any(ok) else 0.0

    upper = float(np.max((fv - obj.lower_bound) / (1.0 + nv_sq)))

    constants = dict(constants or {})
    m_radius = float(constants.get("M", 0.0))
    outside = nv >= max(m_radius, 1e-12)
    if np.any(outside):
        lower = float(np.min((fv[outside] - obj.lower_bound) / nv_sq[outside]))
    else:
        lower = np.inf

    report = GrowthReport(
        lipschitz_ratio_max=lip,
        upper_quadratic_ratio_max=upper,
        lower_quadratic_ratio_min=lower,
        sample_count=count,
    )

    p, q = poly_orders
    if obj.grad is not None:
        gr = np.linalg.norm(obj.grad(v), axis=-1)
        report.grad_ratio_max = float(np.max(gr / (1.0 + nv**q)))
    if obj.laplacian is not None:
        lp = np.abs(obj.laplacian(v))
        report.laplacian_ratio_max = float(np.max(lp / (1.0 + nv**p)))

    # a hair of slack so exact-identity ratios are not failed on rounding
    tol = 1.0 + 1e-12
    if constants:
        if "L_f" in constants:
            report.satisfied["lipschitz"] = lip <= constants["L_f"] * tol
        if "c_u" in constants:
            report.satisfied["upper_quadratic"] = upper <= constants["c_u"] * tol
        if "c_l" in constants:
            report.satisfied["lower_quadratic"] = lower * tol >= constants["c_l"]
    return report
