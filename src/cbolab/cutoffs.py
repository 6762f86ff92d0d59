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

The step and plateau are evaluated from tables of the mollifier's
antiderivative built once by adaptive quadrature and interpolated with
cubic Hermite polynomials (the density itself supplies exact nodal
derivatives), giving absolute errors around 1e-12.  The quadrature is
QUADPACK's 21-point Gauss-Kronrod rule with its error test, vectorized over
all panels in numpy; each panel integral equals scipy's `quad` bit for bit.

`check_base_growth` and `check_truncated_growth` probe, on deterministic
sample clouds, the inequalities that the theory asserts with uninstantiated
constants: derivative bounds of G relative to sqrt(G)(1 + sqrt(G)) and the
domination of J by sqrt(G).  Derivatives of constructed fields are always
taken by central finite differences; the checks care about values, not
formulas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .objectives import component_sum, sample_box


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


def _bump_at(t: float) -> float:
    """`_bump_unscaled` at one point, as a scalar callback for `quad`.

    Uses np.exp rather than math.exp: the two differ in the last bit at a
    few percent of points, which would change the tables.
    """
    return float(np.exp(-1.0 / (1.0 - t * t))) if abs(t) < 1.0 else 0.0


# QUADPACK's 21-point Gauss-Kronrod rule: Kronrod abscissae xgk (the odd
# 1-based entries are the Kronrod points, the even ones the 10-point Gauss
# points, the last the centre), their weights wgk, and the Gauss weights wg
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208969795361, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _qk21(a: np.ndarray, b: np.ndarray):
    """QUADPACK's dqk21 on the bump, vectorized over panels [a, b].

    Every sum runs in dqk21's order, so each panel gets quad's bits.
    Returns (result, abserr, resabs, resasc).
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK[:10]
    fv1 = _bump_unscaled(centr[:, None] - absc)
    fv2 = _bump_unscaled(centr[:, None] + absc)
    fc = _bump_unscaled(centr)
    resg = np.zeros_like(centr)
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):     # Gauss points first
        fsum = fv1[:, j] + fv2[:, j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv1[:, j] - reskh)
                                     + np.abs(fv2[:, j] - reskh))
    result = resk * hlgth
    resabs = resabs * np.abs(hlgth)
    resasc = resasc * np.abs(hlgth)
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = 200.0 * abserr[scaled] / resasc[scaled]
    abserr[scaled] = resasc[scaled] * np.minimum(1.0, ratio**1.5)
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[floor] = np.maximum((_EPMACH * 50.0) * resabs[floor], abserr[floor])
    return result, abserr, resabs, resasc


def _panel_integrals(a: np.ndarray, b: np.ndarray, epsabs: float,
                     epsrel: float) -> np.ndarray:
    """Integrals of the bump over panels [a, b], equal to `quad`'s bits.

    quad (QUADPACK dqagse) accepts the first 21-point rule unless its error
    test fails; it then bisects, and accepts the sum of the two halves when
    their summed error passes.  Both steps are reproduced for all panels at
    once.  A panel that still fails after one bisection (only coarse tables,
    h >= ~0.15, have any) is left to `quad` itself.
    """
    result, abserr, defabs, resasc = _qk21(a, b)
    errbnd = np.maximum(epsabs, epsrel * np.abs(result))
    roundoff = (abserr <= 100.0 * _EPMACH * defabs) & (abserr > errbnd)
    ok = (roundoff | ((abserr <= errbnd) & (abserr != resasc))
          | (abserr == 0.0))
    rej = np.flatnonzero(~ok)
    if rej.size:
        mid = 0.5 * (a[rej] + b[rej])
        area1, error1, _, _ = _qk21(a[rej], mid)
        area2, error2, _, _ = _qk21(mid, b[rej])
        # dqagse's running totals after the first bisection
        area = result[rej] + (area1 + area2) - result[rej]
        errsum = abserr[rej] + (error1 + error2) - abserr[rej]
        result[rej] = area1 + area2
        rest = rej[errsum > np.maximum(epsabs, epsrel * np.abs(area))]
        if rest.size:
            from scipy.integrate import quad
            for j in rest:
                result[j] = quad(_bump_at, a[j], b[j], epsabs=epsabs,
                                 epsrel=epsrel)[0]
    return result


@functools.lru_cache(maxsize=4)
def _cdf_table(h_table: float):
    """(nodes, cdf values, nodal densities) of the normalized bump on [-1, 1].

    Panel integrals are those of `quad` at epsabs=1e-14, epsrel=1e-13, bit
    for bit, computed for all panels at once (see `_panel_integrals`).
    """
    n_panels = int(np.ceil(2.0 / h_table))
    nodes = np.linspace(-1.0, 1.0, n_panels + 1)
    panels = _panel_integrals(nodes[:-1], nodes[1:], 1e-14, 1e-13)
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


def mollifier_cdf(x, h_table: float = 1e-3) -> np.ndarray:
    """Antiderivative of the normalized bump: 0 at -1, 1 at +1."""
    x = np.asarray(x, dtype=float)
    nodes, cdf, dens = _cdf_table(h_table)
    out = np.where(x >= 1.0, 1.0, 0.0)
    mid = (x > -1.0) & (x < 1.0)
    if np.any(mid):
        out = np.array(out, dtype=float)
        out[mid] = _hermite_eval(x[mid], nodes, cdf, dens)
    return out


def smooth_step(x, h_table: float = 1e-3):
    """Mollified jump: 0 for x <= 0, 1 for x >= 1, transition on (3/8, 5/8).

    Equals the convolution of the indicator of [1/2, oo) with a mollifier
    of width 1/8, evaluated as the rescaled bump antiderivative.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    res = mollifier_cdf(8.0 * np.atleast_1d(x) - 4.0, h_table)
    return float(res[0]) if scalar else res


def plateau(x, h_table: float = 1e-3):
    """Mollified window: 1 on [-9, 9], 0 outside (-11, 11).

    Convolution of the indicator of [-10, 10] with the unit-width bump.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    res = mollifier_cdf(xv + 10.0, h_table) - mollifier_cdf(xv - 10.0, h_table)
    return float(res[0]) if scalar else res


# ---------------------------------------------------------------------------
# coefficient fields and their truncation


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion G >= 0, vector drift J, and source g.

    All three callables are vectorized: (points of shape (..., d), t) ->
    values of shape (...) for G and g, (..., d) for J.
    """

    dim: int
    G: Callable[[np.ndarray, float], np.ndarray]
    J: Callable[[np.ndarray, float], np.ndarray]
    g: Callable[[np.ndarray, float], np.ndarray]


def cbo_coefficients(valpha: Callable[[float], np.ndarray], dim: int) -> CoefficientField:
    """G = |v - v_a(t)|^2, J = v - v_a(t), no source."""
    def G(pts, t):
        d = np.asarray(pts, dtype=float) - valpha(t)
        return component_sum(np.square(d))

    def J(pts, t):
        return np.asarray(pts, dtype=float) - valpha(t)

    def g(pts, t):
        return np.zeros(np.shape(pts)[:-1])

    return CoefficientField(dim=dim, G=G, J=J, g=g)


@dataclass(frozen=True)
class CutoffSpec:
    """Radii of the shell / plateau truncation plus numerical step sizes.

    The shell switch happens on [shell_radius - 1, shell_radius];
    plateau_scale rescales the plateau window, so truncated coefficients
    vanish beyond 11 * plateau_scale.
    """

    shell_radius: float
    plateau_scale: float
    h_table: float = 1e-3
    h_fd: float = 1e-5

    def __post_init__(self):
        if self.shell_radius <= 1.0:
            raise ValueError("shell radius must exceed 1")
        if self.plateau_scale <= 0.0:
            raise ValueError("plateau scale must be positive")

    def shell(self, radii) -> np.ndarray:
        """Shell switch: 0 inside radius R-1, 1 outside radius R."""
        return smooth_step(np.asarray(radii, dtype=float) - self.shell_radius + 1.0,
                           self.h_table)

    def radial_plateau(self, radii) -> np.ndarray:
        """Plateau in |v|: 1 up to 9n, 0 beyond 11n."""
        return plateau(np.asarray(radii, dtype=float) / self.plateau_scale,
                       self.h_table)

    def taper(self, radii) -> np.ndarray:
        """Taper in |v|: 1 up to n, 0 beyond n + 1."""
        return 1.0 - smooth_step(np.asarray(radii, dtype=float)
                                 - self.plateau_scale, self.h_table)


def _shell_projection(pts, radii, shell_radius):
    """Points rescaled onto the shell sphere (safe where the shell is off)."""
    safe = np.maximum(radii, 0.5)[..., None]
    return shell_radius * pts / safe


class TruncationGeometry(NamedTuple):
    """The radial factors of the truncation at fixed points.

    They depend on the points and the cutoff only, not on the field or the
    time, so a solver that truncates at every stage on one grid computes
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
                t: float, geometry: Optional[TruncationGeometry] = None
                ) -> np.ndarray:
    """Diffusion coefficient after shell replacement and plateau window.

    `geometry`, when given, is `truncation_geometry(spec, pts)`.
    """
    geo = truncation_geometry(spec, pts) if geometry is None else geometry
    s = geo.shell
    gbar = (field.G(geo.points, t) * (1.0 - s)
            + (1.0 + field.G(geo.projection, t)) * s)
    return geo.plateau * geo.plateau * gbar


def truncated_J(field: CoefficientField, spec: CutoffSpec, pts: np.ndarray,
                t: float, geometry: Optional[TruncationGeometry] = None
                ) -> np.ndarray:
    """Drift coefficient after shell replacement and plateau window.

    `geometry`, when given, is `truncation_geometry(spec, pts)`.
    """
    geo = truncation_geometry(spec, pts) if geometry is None else geometry
    s = geo.shell[..., None]
    jv = field.J(geo.points, t)
    amp = np.sqrt(field.G(geo.projection, t) + 1.0)[..., None]
    jbar = jv * (1.0 - s) + amp * s
    return geo.plateau[..., None] * jbar


def truncated_source(field: CoefficientField, spec: CutoffSpec, pts: np.ndarray,
                     t: float) -> np.ndarray:
    """Source tapered to zero beyond radius plateau_scale."""
    pts = np.asarray(pts, dtype=float)
    return field.g(pts, t) * spec.taper(np.linalg.norm(pts, axis=-1))


# ---------------------------------------------------------------------------
# finite differences (vectorized over sample batches)


def _fd_steps(pts, h_fd):
    return h_fd * (1.0 + np.linalg.norm(pts, axis=-1))


def _central_differences(f, pts, h_fd):
    """Central differences of a vector field `f`, one (n, m) array per axis."""
    pts = np.asarray(pts, dtype=float)
    h = _fd_steps(pts, h_fd)[:, None]
    for e in np.eye(pts.shape[1]):
        yield (f(pts + h * e) - f(pts - h * e)) / (2.0 * h)


def _fd_gradient(f, pts, h_fd):
    """Central-difference gradient of a scalar field, shape (n, d)."""
    return np.hstack(list(_central_differences(lambda p: f(p)[:, None], pts, h_fd)))


def _fd_hessian_norm(f, pts, h_fd):
    """Frobenius norm of the central-difference Hessian, shape (n,)."""
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    h = _fd_steps(pts, h_fd)
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


def _fd_jacobian_norm(f, pts, h_fd):
    """Frobenius norm of the central-difference Jacobian of a vector field."""
    acc = 0.0
    for col in _central_differences(f, pts, h_fd):
        acc = acc + np.sum(np.square(col), axis=-1)
    return np.sqrt(acc)


# ---------------------------------------------------------------------------
# sampled inequality reports


@dataclass
class InequalityEntry:
    name: str
    sup: float
    sample_count: int
    satisfied: Optional[bool] = None


@dataclass
class InequalityReport:
    entries: dict

    def __getitem__(self, key: str) -> InequalityEntry:
        return self.entries[key]

    def all_satisfied(self) -> bool:
        flags = [e.satisfied for e in self.entries.values() if e.satisfied is not None]
        return all(flags) if flags else True

    def rows(self):
        return [(e.name, e.sup, e.sample_count, e.satisfied)
                for e in self.entries.values()]


_G_FLOOR = 1e-12


def _ratio_entry(name, num, den, count, bound, j_violation=None):
    sup = float(np.max(num / den)) if num.size else 0.0
    if j_violation:
        sup = np.inf
    sat = None if bound is None else bool(sup <= bound)
    return InequalityEntry(name=name, sup=sup, sample_count=count, satisfied=sat)


def sphere_directions(count: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic quasi-random unit vectors."""
    from scipy.special import ndtri     # lazily, like qmc in sample_box
    u = sample_box(dim, 0.0, 1.0, count, seed)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))      # the standard normal ppf
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _growth_ratios(g_fun, j_fun, pts, h_fd, bounds, count, prefix=""):
    """The four derivative/domination ratio families shared by both checks."""
    bounds = bounds or {}
    g0 = g_fun(pts)
    if np.min(g0) < -1e-10:
        raise ValueError("diffusion coefficient sampled negative")
    g0 = np.maximum(g0, 0.0)
    sqrt_g = np.sqrt(g0)
    grad_norm = np.linalg.norm(_fd_gradient(g_fun, pts, h_fd), axis=-1)
    hess_norm = _fd_hessian_norm(g_fun, pts, h_fd)
    jvals = j_fun(pts)
    jnorm = np.linalg.norm(jvals, axis=-1)
    jac_norm = _fd_jacobian_norm(j_fun, pts, h_fd)

    positive = g0 > _G_FLOOR
    # where G sits at the floor, J must be at floor scale too (both vanish
    # together under the plateau); an O(1) drift over vanished diffusion
    # breaks the domination inequality outright
    j_violation = bool(np.any(jnorm[~positive] > 1e-3))

    entries = {}
    entries[prefix + "grad_G"] = _ratio_entry(
        prefix + "grad_G", grad_norm[positive],
        (sqrt_g * (1.0 + sqrt_g))[positive], pts.shape[0],
        bounds.get("grad_G"))
    entries[prefix + "hess_G"] = _ratio_entry(
        prefix + "hess_G", hess_norm, 1.0 + g0, pts.shape[0],
        bounds.get("hess_G"))
    entries[prefix + "J_vs_sqrtG"] = _ratio_entry(
        prefix + "J_vs_sqrtG", jnorm[positive], sqrt_g[positive], pts.shape[0],
        bounds.get("J_vs_sqrtG"), j_violation=j_violation)
    entries[prefix + "grad_J"] = _ratio_entry(
        prefix + "grad_J", jac_norm, 1.0 + sqrt_g, pts.shape[0],
        bounds.get("grad_J"))
    return entries


def check_base_growth(field: CoefficientField, low, high, count: int,
                      t: float = 0.0, bounds: Optional[dict] = None,
                      seed: int = 0, h_fd: float = 1e-5) -> InequalityReport:
    """Sample the structural inequalities of the raw coefficient field.

    Reports sups of |grad G| / (sqrt(G)(1+sqrt(G))), |Hess G| / (1+G),
    |J| / sqrt(G) and |grad J| / (1+sqrt(G)) over a low-discrepancy cloud
    in the box [low, high]^d.
    """
    pts = sample_box(field.dim, low, high, count, seed)
    entries = _growth_ratios(lambda p: field.G(p, t), lambda p: field.J(p, t),
                             pts, h_fd, bounds, count)
    return InequalityReport(entries=entries)


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


def check_truncated_growth(field: CoefficientField, spec: CutoffSpec,
                           count: int, t: float = 0.0,
                           bounds: Optional[dict] = None, seed: int = 0
                           ) -> InequalityReport:
    """Sample the same four ratio families for the truncated coefficients.

    The sample cloud is stratified over the regions where the truncation
    changes character.  With a nested sequence, enlarging `count` can only
    raise the sups, so refinement stability is a one-sided check.
    """
    radii = _stratified_radii(spec, count, seed)
    dirs = sphere_directions(count, field.dim, seed)
    pts = radii[:, None] * dirs
    entries = _growth_ratios(
        lambda p: truncated_G(field, spec, p, t),
        lambda p: truncated_J(field, spec, p, t),
        pts, spec.h_fd, bounds, count)
    return InequalityReport(entries=entries)
