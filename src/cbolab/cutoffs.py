"""Smooth cutoffs and truncated coefficient fields.

To solve the drift-diffusion equation on a periodic box, its coefficients
must be flattened near the boundary without breaking the structural
inequalities the well-posedness theory needs.  The construction here:

* a compactly supported mollifier (the classical exp(-1/(1-x^2)) bump),
* a smooth step `smooth_step`: 0 below 0, 1 above 1, obtained by mollifying
  a jump at 1/2 with a width-1/8 bump,
* a shell cutoff S_R(v) = step(|v| - R + 1) that switches on between the
  spheres of radius R-1 and R,
* a plateau window `plateau`: 1 on [-9, 9], 0 outside [-11, 11], and its
  radial version H_n(v) = plateau(|v|/n),
* truncated coefficients: inside the shell the original (G, J) survive;
  outside, G is replaced by 1 + G evaluated on the shell sphere and J by a
  matched constant-direction field; the plateau finally drives both to zero.

The step and plateau are evaluated from one table of the mollifier's
antiderivative, at step 1e-3, built on first use with a 10-point
Gauss-Legendre rule per panel (within 1e-15 of an adaptive-quadrature
table) and interpolated with cubic Hermite polynomials (the density itself
supplies exact nodal derivatives), giving absolute errors around 1e-12.
Points outside (-1, 1) never touch the table.

`growth_sups` samples, over a given point cloud, the ratios behind the
inequalities that the theory asserts with uninstantiated constants:
derivative bounds of G relative to sqrt(G)(1 + sqrt(G)) and the domination
of J by sqrt(G).  It reports sups and judges nothing: a constant exists
only if a sup stays put as the cloud is refined, which the `cutoff-check`
experiment measures on nested clouds, `objectives.sample_box` for a raw
field on a box and `truncated_cloud` for the truncated one.  Derivatives
are always taken by central finite differences; the checks care about
values, not formulas.  Their step is h = 1e-5 (1 + |v|).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .objectives import ConfigurationError, component_sum, sample_box

# node spacing of the antiderivative table, and the relative step of the
# central differences
_TABLE_STEP = 1e-3
_FD_STEP = 1e-5

# ---------------------------------------------------------------------------
# mollifier and interpolation tables


def _bump_unscaled(x):
    """exp(-1/(1-x^2)) on (-1, 1), zero outside; not normalized."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


# the positive nodes and their weights of the 10-point Gauss-Legendre rule,
# numpy's leggauss(10) to the bit; written out because importing
# numpy.polynomial and solving for them raises a 1-D run's peak memory by
# about 1.3 MB (4%)
_GL_NODES = np.array([0.14887433898163122, 0.4333953941292472,
                      0.6794095682990244, 0.8650633666889845,
                      0.9739065285171717])
_GL_WEIGHTS = np.array([0.2955242247147528, 0.2692667193099965,
                        0.219086362515982, 0.1494513491505804,
                        0.06667134430868814])


@functools.cache
def _cdf_table():
    """(nodes, cdf values, nodal densities) of the normalized bump on [-1, 1].

    Each panel is integrated with one 10-point Gauss-Legendre rule, exact
    to rounding for a bump this smooth at the table's step.
    """
    x = np.concatenate([-_GL_NODES[::-1], _GL_NODES])
    w = np.concatenate([_GL_WEIGHTS[::-1], _GL_WEIGHTS])
    n_panels = int(np.ceil(2.0 / _TABLE_STEP))
    nodes = np.linspace(-1.0, 1.0, n_panels + 1)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * (nodes[1:] - nodes[:-1])
    panels = _bump_unscaled(mid[:, None] + half[:, None] * x) @ w * half
    cdf = np.concatenate([[0.0], np.cumsum(panels)])
    total = cdf[-1]
    cdf /= total          # forces CDF(1) = 1 exactly and keeps monotonicity
    dens = _bump_unscaled(nodes) / total
    return nodes, cdf, dens


def _hermite_eval(x, nodes, values, derivs):
    """Piecewise cubic Hermite interpolation with exact nodal derivatives."""
    h = nodes[1] - nodes[0]
    j = np.clip(((x - nodes[0]) / h).astype(int), 0, len(nodes) - 2)
    t = (x - nodes[j]) / h
    t2, t3 = t * t, t * t * t
    return ((2 * t3 - 3 * t2 + 1) * values[j]
            + (t3 - 2 * t2 + t) * h * derivs[j]
            + (-2 * t3 + 3 * t2) * values[j + 1]
            + (t3 - t2) * h * derivs[j + 1])


def mollifier_cdf(x) -> np.ndarray:
    """Antiderivative of the normalized bump: 0 at -1, 1 at +1.

    The interpolant overshoots below 0 (by at most 3.7e-25) between the
    first two nodes, so it is clamped at 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 1.0, 0.0)
    mid = (x > -1.0) & (x < 1.0)
    if np.any(mid):
        out[mid] = np.maximum(_hermite_eval(x[mid], *_cdf_table()), 0.0)
    return out


def smooth_step(x):
    """Mollified jump: 0 for x <= 0, 1 for x >= 1, transition on (3/8, 5/8).

    Equals the convolution of the indicator of [1/2, oo) with a mollifier
    of width 1/8, evaluated as the rescaled bump antiderivative.
    """
    return mollifier_cdf(8.0 * np.asarray(x, dtype=float) - 4.0)


def plateau(x):
    """Mollified window: 1 on [-9, 9], 0 outside (-11, 11).

    Convolution of the indicator of [-10, 10] with the unit-width bump.
    """
    x = np.asarray(x, dtype=float)
    return mollifier_cdf(x + 10.0) - mollifier_cdf(x - 10.0)


# ---------------------------------------------------------------------------
# coefficient fields and their truncation


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion G >= 0 and vector drift J of a drift-diffusion
    equation, the class whose structural inequalities the checks sample.

    Both callables are vectorized, in any dimension d: points of shape
    (..., d) -> values of shape (...) for G, (..., d) for J.
    """

    G: Callable[[np.ndarray], np.ndarray]
    J: Callable[[np.ndarray], np.ndarray]


def cbo_coefficients(vbar) -> CoefficientField:
    """G = |v - vbar|^2, J = v - vbar, in the dimension of the point vbar."""
    vbar = np.asarray(vbar, dtype=float)

    def G(pts):
        return component_sum(np.square(np.asarray(pts, dtype=float) - vbar))

    def J(pts):
        return np.asarray(pts, dtype=float) - vbar

    return CoefficientField(G=G, J=J)


@dataclass(frozen=True)
class CutoffSpec:
    """Radii of the shell / plateau truncation.

    The shell switch happens on [shell_radius - 1, shell_radius];
    plateau_scale rescales the plateau window, so truncated coefficients
    vanish beyond 11 * plateau_scale.  Errors name the bad field first.
    """

    shell_radius: float
    plateau_scale: float

    def __post_init__(self):
        if not self.shell_radius > 1.0:
            raise ConfigurationError(
                f"shell_radius: must exceed 1, got {self.shell_radius}")
        if not self.plateau_scale > 0.0:
            raise ConfigurationError(
                f"plateau_scale: must be positive, got {self.plateau_scale}")

    def shell(self, radii) -> np.ndarray:
        """Shell switch: 0 inside radius R-1, 1 outside radius R."""
        return smooth_step(np.asarray(radii, dtype=float) - self.shell_radius + 1.0)

    def radial_plateau(self, radii) -> np.ndarray:
        """Plateau in |v|: 1 up to 9n, 0 beyond 11n."""
        return plateau(np.asarray(radii, dtype=float) / self.plateau_scale)

    def taper(self, radii) -> np.ndarray:
        """Taper in |v|: 1 up to n, 0 beyond n + 1."""
        return 1.0 - smooth_step(np.asarray(radii, dtype=float) - self.plateau_scale)


def _shell_projection(pts, radii, shell_radius):
    """Points rescaled onto the shell sphere (safe where the shell is off)."""
    safe = np.maximum(radii, 0.5)[..., None]
    return shell_radius * pts / safe


class TruncationGeometry(NamedTuple):
    """The radial factors of the truncation at fixed points.

    They depend on the points and the cutoff only, not on the field, so a
    solver that truncates at every stage on one grid computes
    them once (see `truncation_geometry`).
    """

    points: np.ndarray        # (..., d)
    shell: np.ndarray         # S_R(|v|)
    plateau: np.ndarray       # H_n(|v|)
    projection: np.ndarray    # the points rescaled onto the shell sphere


def truncation_geometry(spec: CutoffSpec, pts: np.ndarray) -> TruncationGeometry:
    pts = np.asarray(pts, dtype=float)
    radii = np.linalg.norm(pts, axis=-1)
    return TruncationGeometry(
        points=pts, shell=spec.shell(radii), plateau=spec.radial_plateau(radii),
        projection=_shell_projection(pts, radii, spec.shell_radius))


def truncated_G(field: CoefficientField, spec: CutoffSpec, pts: np.ndarray,
                geometry: Optional[TruncationGeometry] = None) -> np.ndarray:
    """Diffusion coefficient after shell replacement and plateau window.

    `geometry`, when given, is `truncation_geometry(spec, pts)`.
    """
    geo = truncation_geometry(spec, pts) if geometry is None else geometry
    s = geo.shell
    gbar = field.G(geo.points) * (1.0 - s) + (1.0 + field.G(geo.projection)) * s
    return geo.plateau * geo.plateau * gbar


def truncated_J(field: CoefficientField, spec: CutoffSpec, pts: np.ndarray,
                geometry: Optional[TruncationGeometry] = None) -> np.ndarray:
    """Drift coefficient after shell replacement and plateau window.

    `geometry`, when given, is `truncation_geometry(spec, pts)`.
    """
    geo = truncation_geometry(spec, pts) if geometry is None else geometry
    s = geo.shell[..., None]
    jv = field.J(geo.points)
    amp = np.sqrt(field.G(geo.projection) + 1.0)[..., None]
    jbar = jv * (1.0 - s) + amp * s
    return geo.plateau[..., None] * jbar


# ---------------------------------------------------------------------------
# finite differences (vectorized over sample batches)


def _fd_steps(pts):
    return _FD_STEP * (1.0 + np.linalg.norm(pts, axis=-1))


def _central_differences(f, pts):
    """Central differences of a vector field `f`, one (n, m) array per axis."""
    pts = np.asarray(pts, dtype=float)
    h = _fd_steps(pts)[:, None]
    for e in np.eye(pts.shape[1]):
        yield (f(pts + h * e) - f(pts - h * e)) / (2.0 * h)


def _fd_gradient(f, pts):
    """Central-difference gradient of a scalar field, shape (n, d)."""
    return np.hstack(list(_central_differences(lambda p: f(p)[:, None], pts)))


def _fd_hessian_norm(f, pts):
    """Frobenius norm of the central-difference Hessian, shape (n,)."""
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    h = _fd_steps(pts)
    f0 = f(pts)
    acc = np.zeros(n)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = 1.0
        hii = (f(pts + h[:, None] * ei) - 2.0 * f0 + f(pts - h[:, None] * ei)) / h**2
        acc += hii**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = 1.0
            hij = (f(pts + h[:, None] * (ei + ej)) - f(pts + h[:, None] * (ei - ej))
                   - f(pts - h[:, None] * (ei - ej)) + f(pts - h[:, None] * (ei + ej))
                   ) / (4.0 * h**2)
            acc += 2.0 * hij**2
    return np.sqrt(acc)


def _fd_jacobian_norm(f, pts):
    """Frobenius norm of the central-difference Jacobian of a vector field."""
    acc = 0.0
    for col in _central_differences(f, pts):
        acc = acc + np.sum(np.square(col), axis=-1)
    return np.sqrt(acc)


# ---------------------------------------------------------------------------
# sampled growth ratios


_G_FLOOR = 1e-12


def _sup(num, den):
    return float(np.max(num / den)) if num.size else 0.0


def growth_sups(G, J, pts) -> dict:
    """Sampled sups of the four ratio families of a coefficient field (G, J)
    over the points `pts` of shape (n, d): |grad G| / (sqrt(G)(1+sqrt(G))),
    |Hess G| / (1+G), |J| / sqrt(G) and |grad J| / (1+sqrt(G)), keyed
    `grad_G`, `hess_G`, `J_vs_sqrtG` and `grad_J`.
    """
    g0 = G(pts)
    if np.min(g0) < -1e-10:
        raise ValueError("diffusion coefficient sampled negative")
    g0 = np.maximum(g0, 0.0)
    sqrt_g = np.sqrt(g0)
    grad_norm = np.linalg.norm(_fd_gradient(G, pts), axis=-1)
    jnorm = np.linalg.norm(J(pts), axis=-1)

    positive = g0 > _G_FLOOR
    # where G sits at the floor, J must be at floor scale too (both vanish
    # together under the plateau); an O(1) drift over vanished diffusion
    # breaks the domination inequality outright
    j_violation = bool(np.any(jnorm[~positive] > 1e-3))
    return {
        "grad_G": _sup(grad_norm[positive], (sqrt_g * (1.0 + sqrt_g))[positive]),
        "hess_G": _sup(_fd_hessian_norm(G, pts), 1.0 + g0),
        "J_vs_sqrtG": (np.inf if j_violation
                       else _sup(jnorm[positive], sqrt_g[positive])),
        "grad_J": _sup(_fd_jacobian_norm(J, pts), 1.0 + sqrt_g),
    }


def _stratified_radii(spec: CutoffSpec, count: int, seed: int) -> np.ndarray:
    """Radii covering the interior, both shell bands, the plateau roll-off
    and the dead zone, with fixed proportions.

    Each point picks its band from its own quasi-random coordinate, so the
    first n radii of a longer draw equal the length-n draw: doubling the
    sample keeps the original points (refinement can only raise the sups).
    """
    r, n = spec.shell_radius, spec.plateau_scale
    bands = [
        (0.0, r - 1.0, 0.30),
        (r - 1.0, r, 0.25),
        (r, 9.0 * n, 0.20),
        (9.0 * n, 11.0 * n, 0.20),
        (11.0 * n, 11.5 * n, 0.05),
    ]
    u = sample_box(2, 0.0, 1.0, count, seed + 1)
    cum = np.cumsum([frac for _, _, frac in bands])
    which = np.searchsorted(cum, u[:, 0], side="right").clip(0, len(bands) - 1)
    lo = np.array([b[0] for b in bands])[which]
    hi = np.array([b[1] for b in bands])[which]
    return lo + (hi - lo) * u[:, 1]


def truncated_cloud(spec: CutoffSpec, dim: int, count: int,
                    seed: int) -> np.ndarray:
    """Sample points for the truncated coefficients, shape (count, dim):
    radii stratified over the regions where the truncation changes
    character (see `_stratified_radii`) times quasi-random unit vectors.
    The first n points of a longer draw are the length-n draw.
    """
    from scipy.special import ndtri     # lazily, like qmc in sample_box
    u = sample_box(dim, 0.0, 1.0, count, seed)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))      # the standard normal ppf
    dirs = z / np.linalg.norm(z, axis=-1, keepdims=True)
    return _stratified_radii(spec, count, seed)[:, None] * dirs
