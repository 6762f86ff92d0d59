"""Reference routes that the tests compare the spectral solver against.

The package solves one equation, the consensus density equation in its
conservation form (`cbolab.galerkin.rhs`).  The routes here are not part
of the package, so the solver is checked against code it does not contain:

* `GeneralProblem`, the broader drift-diffusion class of the cutoff lemma,
  in two forms, with a coefficient field (G, J), a source g and a cutoff
  (autonomous, as the package's equation is):

      gradient    drho/dt = div(G grad rho) + <J, grad rho> + rho + g
      divergence  drho/dt = div(G grad rho) - div(J rho) + rho + g

* `conservation_rhs`, the consensus equation in its conservation form
  div(J rho) + Lap(G rho) with one real transform per product: the
  oracle for the package's 1-D route, which packs G rho + i J rho into one
  complex transform.
* `rewritten_rhs`, the grid route for those forms and for the consensus
  equation of a frozen-point `PDEProblem`, rewritten so the diffusion
  appears under one divergence, div(G grad rho) + 3 <J, grad rho> + 3 d rho.
  The two consensus routes agree to dealiasing accuracy on resolved
  fields; the rewritten one does not conserve mass exactly.
* `galerkin_matrix_rhs`, the dense Galerkin assembly of the same
  projection, for tiny K in 1D.
* `rk4_step`, classical RK4 on `rewritten_rhs`, guarded by
  dt <= _RK4_CFL / `spectral_radius_bound`.
* `rkc_step`, the package's damped RKC step written with a fresh array for
  every stage and every term, the oracle for the bits of the stepper's
  in-place stages.
* `gibbs_rows` and `dense_density_consensus`, the density consensus as a
  dense quadrature over the whole grid, with the clamp fraction measured
  on the samples.
* `lognormal_oracle`, the exact solution of the 1-D equation with the
  consensus frozen at 0 and no active truncation: the law of a geometric
  Brownian motion, which never carries mass across 0.
* `complex_log_oracle`, the same for the 2-D equation: read as a complex
  number, the particle is its initial point times e^w, with w normal.

Every coefficient grid comes from the cutoff module's truncation
(`truncated_G`, `truncated_J`), as in the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from cbolab.consensus import NumericalBreakdownError
from cbolab.cutoffs import (CoefficientField, CutoffSpec, cbo_coefficients,
                            truncated_G, truncated_J)
from cbolab.galerkin import PDEProblem, SpectralField, _rkc_coefficients
from cbolab.objectives import ConfigurationError

# RK4 is stable on the negative real axis down to about -2.785; rounded down
_RK4_CFL = 2.78


@dataclass
class GeneralProblem:
    """A drift-diffusion equation of the general class: its form, its
    coefficient field, an optional source g(points) and the cutoff."""

    form: str                                   # gradient | divergence
    coefficients: CoefficientField
    cutoff: CutoffSpec
    source: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.form not in ("gradient", "divergence"):
            raise ConfigurationError(f"unknown equation form {self.form!r}")


def truncated_source(g, spec: CutoffSpec, pts: np.ndarray) -> np.ndarray:
    """Source tapered to zero beyond radius plateau_scale."""
    pts = np.asarray(pts, dtype=float)
    return g(pts) * spec.taper(np.linalg.norm(pts, axis=-1))


def _form(problem) -> str:
    return "cbo" if isinstance(problem, PDEProblem) else problem.form


def coefficient_grids(f: SpectralField, problem, vbar=None):
    """Truncated G, the d components of J and the truncated source (None
    without one) on the field's collocation grid.  A `PDEProblem` takes its
    consensus point `vbar`, or else its frozen point."""
    pts = f.grid_points()
    if isinstance(problem, PDEProblem):
        field = cbo_coefficients(problem.valpha if vbar is None else vbar)
        source = None
    else:
        field, source = problem.coefficients, None
        if problem.source is not None:
            source = truncated_source(problem.source, problem.cutoff, pts)
    g = truncated_G(field, problem.cutoff, pts)
    j = np.moveaxis(truncated_J(field, problem.cutoff, pts), -1, 0)
    return g, j, source


def _ikappa(f: SpectralField):
    """i kappa_j along each axis of the retained block (see `SpectralField`)."""
    half = np.arange(f.modes + 1)
    axes = ((half,) if f.dim == 1
            else (np.r_[half, -f.modes:0][:, None], half[None, :]))
    return [1j * (np.pi / f.box * k) for k in axes]


def _project(values: np.ndarray, f: SpectralField) -> np.ndarray:
    return SpectralField.from_grid(values, f.box, f.modes).data


def _with_data(f: SpectralField, data: np.ndarray) -> SpectralField:
    return SpectralField(f.dim, f.box, f.modes, f.grid, data)


def conservation_rhs(f: SpectralField, problem: PDEProblem,
                     vbar=None) -> SpectralField:
    """div(J rho) + Lap(G rho) of a `PDEProblem` at its consensus point
    `vbar` (or else its frozen point): G rho and each J_j rho are projected
    on their own, from the truncated coefficient grids."""
    g, j, _ = coefficient_grids(f, problem, vbar)
    rho = f.grid_values()
    ikappa = _ikappa(f)
    total = sum(ik * ik for ik in ikappa) * _project(g * rho, f)   # -|k|^2
    for ik, ja in zip(ikappa, j):
        total = total + ik * _project(ja * rho, f)
    return _with_data(f, total)


def rewritten_rhs(f: SpectralField, problem, vbar=None,
                  out=None) -> SpectralField:
    """The grid route: pseudospectral assembly of the general forms, and of
    the consensus equation rewritten as div(G grad rho) + 3 <J, grad rho>
    + 3 d rho.

    Spatial derivatives of the density are taken in mode space (exact for
    the retained modes), coefficient products are formed on the M-grid,
    and the result is projected back onto |k| <= K.  `vbar` is the
    consensus point of a `PDEProblem` when the caller has it and `out` the
    array the result is written to, as for `cbolab.galerkin.rhs`, so the
    package's RKC stepper can drive this route.
    """
    d, form = f.dim, _form(problem)
    g, j, source = coefficient_grids(f, problem, vbar)
    ikappa = _ikappa(f)
    grad = [_with_data(f, ik * f.data).grid_values() for ik in ikappa]
    total = sum(ikappa[a] * _project(g * grad[a], f) for a in range(d))
    if form == "divergence":
        rho = f.grid_values()
        for a in range(d):
            total -= ikappa[a] * _project(j[a] * rho, f)
    else:
        drift = _project(sum(j[a] * grad[a] for a in range(d)), f)
        total += 3.0 * drift if form == "cbo" else drift
    if form == "cbo":
        total += (3.0 * d) * f.data
    else:
        total += f.data          # the + rho term
        if source is not None:
            total += _project(source, f)
    if out is not None:
        out[...] = total
        total = out
    return _with_data(f, total)


def spectral_radius_bound(f: SpectralField, problem) -> float:
    """max_grid(G_trunc) * d * |kappa_max|^2, the RK4 guard's yardstick."""
    g_max = float(np.max(coefficient_grids(f, problem)[0]))
    return g_max * f.dim * (np.pi * f.modes / f.box) ** 2


def rk4_step(f: SpectralField, problem, dt: float) -> SpectralField:
    """Advance one classical RK4 step of `rewritten_rhs`.

    Refuses dt beyond _RK4_CFL over the spectral-radius estimate.
    """
    lam = spectral_radius_bound(f, problem)
    limit = _RK4_CFL / lam if lam > 0.0 else np.inf
    if dt > limit:
        raise ConfigurationError(
            f"dt={dt:g} exceeds the stability bound {limit:g}; "
            "reduce dt or the resolution")
    k1 = rewritten_rhs(f, problem).data
    k2 = rewritten_rhs(_with_data(f, f.data + 0.5 * dt * k1), problem).data
    k3 = rewritten_rhs(_with_data(f, f.data + 0.5 * dt * k2), problem).data
    k4 = rewritten_rhs(_with_data(f, f.data + dt * k3), problem).data
    return _with_data(f, f.data + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def rkc_step(rhs_fn, f: SpectralField, problem, dt: float, s: int,
             vbar) -> SpectralField:
    """One step of the s-stage damped RKC scheme of `cbolab.galerkin`, each
    stage combined by one expression of fresh arrays; `vbar` drives the
    first stage of `rhs_fn(field, problem[, vbar])`."""
    w0, w1, b, a, _ = _rkc_coefficients(s)
    f0 = rhs_fn(f, problem, vbar).data
    y0 = f.data
    mu1 = b[1] * w1
    yjm1, yjm2 = y0 + mu1 * dt * f0, y0
    for j in range(2, s + 1):
        mu = 2.0 * b[j] * w0 / b[j - 1]
        nu = -b[j] / b[j - 2]
        mut = mu * w1 / w0
        gat = -a[j - 1] * mut
        fj = rhs_fn(_with_data(f, yjm1), problem).data
        ynew = ((1.0 - mu - nu) * y0 + mu * yjm1 + nu * yjm2
                + mut * dt * fj + gat * dt * f0)
        yjm2, yjm1 = yjm1, ynew
    return _with_data(f, yjm1)


def galerkin_matrix_rhs(f: SpectralField, problem) -> np.ndarray:
    """Time derivative computed from the densely assembled Galerkin system.

    Builds the mass matrix (diagonal for the trigonometric basis), the
    stiffness/transport matrix and the source vector by quadrature on the
    field's own grid, then solves for the coefficient derivatives.  Cost is
    O(K^2d) per entry pair, so this is an oracle for tiny K, kept to certify
    that the grid assembly `rewritten_rhs` is the same projection; the
    consensus equation is assembled in its rewritten form.

    Returns centered coefficients (index -K..K per axis) of the derivative.
    """
    if f.dim != 1:
        raise ConfigurationError("the dense oracle is assembled in 1D")
    form = _form(problem)
    x = f.axis_points()
    ks = np.arange(-f.modes, f.modes + 1)
    psi = np.exp(1j * np.pi * np.outer(ks, x) / f.box)       # (n_modes, M)
    dpsi = (1j * np.pi * ks / f.box)[:, None] * psi
    cell = f.cell_volume

    gi_grid, (j_grid,), source = coefficient_grids(f, problem)
    if form == "cbo":
        drift_scale, reaction = 3.0, 3.0 * f.dim
    else:
        drift_scale, reaction = 1.0, 1.0

    a_diag = np.full(len(ks), 2.0 * f.box)
    # <div(G grad psi_j), psi_k> integrates by parts to -<G dpsi_j, dpsi_k>
    # on the torus; with rectangle quadrature this is the identical sum the
    # transform route evaluates, so agreement is a floating-point property.
    stiff = -(dpsi * gi_grid) @ np.conj(dpsi).T * cell
    if form == "divergence":
        # <-div(J psi_j), psi_k> = <J psi_j, dpsi_k>
        transport = (psi * j_grid) @ np.conj(dpsi).T * cell
    else:
        transport = drift_scale * (dpsi * j_grid) @ np.conj(psi).T * cell
    react = reaction * (psi @ np.conj(psi).T) * cell
    b_mat = stiff + transport + react

    rhs_vec = b_mat.T @ f.coefficients
    if source is not None:
        rhs_vec = rhs_vec + (np.conj(psi) @ source) * cell
    return rhs_vec / a_diag


def gibbs_rows(obj, alpha: float, pts: np.ndarray) -> np.ndarray:
    """Rows [1, w, w v_1, ..., w v_d] of the dense density-consensus
    quadrature on the points `pts` of shape (..., d), flattened over the
    leading axes; w is shifted by the minimum sampled objective value."""
    pts = np.asarray(pts, dtype=float)
    fvals = np.asarray(obj.eval(pts), dtype=float).reshape(-1)
    w = np.exp(-alpha * (fvals - float(fvals.min())))
    return np.vstack([np.ones_like(w), w, w * pts.reshape(-1, pts.shape[-1]).T])


def dense_density_consensus(rows: np.ndarray, rho: np.ndarray):
    """(consensus point, clamp fraction) of the samples `rho` on all points
    of `rows`: one matrix product against max(rho, 0).  A clamped part
    above half of the absolute mass raises `NumericalBreakdownError`."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    sums = rows @ np.maximum(rho, 0.0)
    pos_mass = float(sums[0])
    neg_mass = max(pos_mass - float(rho.sum()), 0.0)
    clamp_fraction = neg_mass / (pos_mass + neg_mass)
    if clamp_fraction > 0.5:
        raise NumericalBreakdownError(f"clamped {clamp_fraction:.1%} of the mass")
    return sums[2:] / float(sums[1]), clamp_fraction


def lognormal_oracle(rho0, x0, t: float, x) -> np.ndarray:
    """The exact density at time t > 0 of drho/dt = d(x rho)/dx +
    d^2(x^2 rho)/dx^2, the 1-D equation at the frozen consensus 0 without
    truncation, at the points `x`.

    It is the law of X_t = X_0 exp(-2t + sqrt(2) W_t), so ln|X_t| is
    normal with mean ln|X_0| - 2t and variance 2t, and no mass crosses 0:

        rho_t(x) = int rho0(x0) exp(-(ln(x/x0) + 2t)^2 / 4t) dx0
                   / (|x| sqrt(4 pi t)),   x x0 > 0.

    `rho0` holds the initial density at the equally spaced nodes `x0`,
    which cover its support, and the integral over x0 is their sum times
    the spacing.  Each node's kernel integrates to 1 over x and moves the
    mean by exp(-t) and the second moment not at all, so the solution's
    moments are the initial sums' exactly.
    """
    rho0, x0 = np.asarray(rho0, dtype=float), np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    spacing = x0[1] - x0[0]
    held = rho0 != 0.0
    rho0, x0 = rho0[held], x0[held]
    ratio = x[..., None] / x0
    same_side = ratio > 0.0
    z = np.log(np.where(same_side, ratio, 1.0)) + 2.0 * t
    kernel = np.where(same_side, np.exp(-z * z / (4.0 * t)), 0.0)
    scale = np.sqrt(4.0 * np.pi * t) * np.abs(x)
    # the density vanishes at x = 0 for t > 0
    return np.divide(spacing * (kernel @ rho0), scale, out=np.zeros(x.shape),
                     where=scale > 0.0)


def complex_log_oracle(rho0: Callable[[np.ndarray], np.ndarray], t: float,
                       points, nodes: int = 96) -> np.ndarray:
    """The exact density at time t > 0 of drho/dt = div(y rho) +
    Lap(|y|^2 rho), the 2-D equation at the frozen consensus 0 without
    truncation, at the points `points` of shape (..., 2).

    The particle law is dY = -Y dt + sqrt(2) |Y| dW.  Read Y as a complex
    number: the rotated increment e^{-i arg Y} dW is again a complex
    Brownian motion, whose quadratic self-variation is zero, and log is
    holomorphic, so Z = log Y solves dZ = -dt + sqrt(2) dW_c with no Ito
    correction.  So Y_t = Y_0 e^w, with w = a + i b, a ~ N(-t, 2t) and
    b ~ N(0, 2t) independent, and multiplying by e^w scales areas by
    e^{2a}:

        rho_t(y) = E_w[ rho0(y e^{-w}) e^{-2a} ].

    `rho0` maps points of shape (..., 2) to the initial density.  The
    expectation is the tensor product of `nodes`-point Gauss-Hermite rules
    in a and b.  Their nodes spread like sqrt(2t), so a narrow rho0 needs
    many: at t = 0.1, with rho0 a Gaussian of width 0.3 about (0.8, 0.4),
    48 nodes erred by 3e-7 of the largest value at four points near it,
    and 96 nodes by 4e-11.
    """
    x, weights = np.polynomial.hermite_e.hermegauss(nodes)
    weights = weights / weights.sum()
    a, b = -t + np.sqrt(2.0 * t) * x, np.sqrt(2.0 * t) * x
    points = np.asarray(points, dtype=float)
    y = points[..., 0] + 1j * points[..., 1]
    rho = np.zeros(y.shape)
    for a_i, weight in zip(a, weights):
        z = y[..., None] * np.exp(-(a_i + 1j * b))
        rho += (weight * np.exp(-2.0 * a_i)) * (
            rho0(np.stack([z.real, z.imag], axis=-1)) @ weights)
    return rho
