"""Pseudospectral solver for drift-diffusion densities on a periodic box.

The density lives on the box [-L, L]^d (d = 1 or 2) identified as a torus
and is represented by its Fourier coefficients up to |k| <= K per axis.
Nonlinear terms (variable-coefficient products) are evaluated on an M-point
collocation grid per axis and projected back onto the retained modes; with
M >= 4K the retained modes of a product of two resolved fields are free of
aliasing (the usual two-thirds-style truncation with extra margin).

Three right-hand sides are supported:

* ``gradient``    drho/dt = div(G grad rho) + <J, grad rho> + rho + g
* ``divergence``  drho/dt = div(G grad rho) - div(J rho) + rho + g
* ``cbo``         drho/dt = div(G grad rho) + 3 <J, grad rho> + 3 d rho,
                  with G = |v - v_a(t)|^2 and J = v - v_a(t)

The cbo form is the consensus dynamics density equation rewritten so the
diffusion appears under a divergence; ``cbo_divergence_rhs`` assembles the
original conservation form div((v - v_a) rho) + Lap(|v - v_a|^2 rho)
directly so the two pseudospectral routes can be compared.

Coefficients always pass through the cutoff module's truncation, so runs
where the shell and plateau are placed outside the box solve the raw
equation, while runs with active cutoffs solve the periodized one.

Fields store only the retained block of modes (see `SpectralField`), so
truncation is slicing.  Transforms run axis by axis through numpy.fft and
skip the discarded modes: in 2D only the K+1 retained columns are
transformed along the first axis (`_project`, `_synthesize`), with results
bit-identical to full n-dimensional real transforms.  Coefficient
products are the transforms of rho times the weight grids of a `_Plan`;
the plan's matrix combines them into the transforms of G rho and J rho.
While the truncation is inactive on the box, G and J are affine in the
consensus point, so the weights |x|^2 and x_j are fixed per layout and only
the combining scalars change from stage to stage.  In 2D the conservation
form then forms those products in mode space, as per-axis Toeplitz
operators on the retained block (`_AxisProducts`), and synthesizes the grid
only for the density consensus; 1D layouts and active truncations multiply
on the grid and transform.

Time stepping is an s-stage Runge-Kutta-Chebyshev method (second order,
damped) whose stability interval grows like 0.65 s^2, with a spectral-radius
estimate max G * |kmax|^2 deciding the stage count.  Classical RK4, guarded
by dt <= c_cfl / (max G * |kmax|^2), is kept as the reference integrator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy import fft as sfft

from .consensus import DomainError, density_consensus, gibbs_quadrature
from .cutoffs import (CoefficientField, CutoffSpec, cbo_coefficients,
                      truncated_G, truncated_J, truncated_source,
                      truncation_geometry)
from .objectives import ConfigurationError, Objective


# ---------------------------------------------------------------------------
# spectral fields


@dataclass
class SpectralField:
    """Truncated Fourier representation of a real density.

    `data` holds the retained block of the numpy rfft layout of the M-point
    grid samples, with the rfft scaling: shape (K+1,) for k = 0..K in 1D;
    shape (2K+1, K+1) in 2D, rows k1 = 0..K, -K..-1 (numpy fft order) and
    columns k2 = 0..K.  Every mode beyond |k| <= K is zero and not stored;
    conjugate symmetry is inherited from the rfft layout, so the
    represented density is real by construction.
    """

    dim: int
    box: float       # half-width L
    modes: int       # K, largest retained |k| per axis
    grid: int        # M, collocation points per axis
    data: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if self.grid < 4 * self.modes:
            raise ConfigurationError(
                f"grid M={self.grid} must be at least 4K={4 * self.modes}")
        if self.data.shape != _block_shape(self.dim, self.modes):
            raise ConfigurationError(
                f"data shape {self.data.shape} is not the retained block "
                f"{_block_shape(self.dim, self.modes)}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(dim: int, box: float, modes: int, grid: int) -> "SpectralField":
        return SpectralField(dim, box, modes, grid,
                             np.zeros(_block_shape(dim, modes), dtype=complex))

    @staticmethod
    def from_grid(values: np.ndarray, box: float, modes: int) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        return SpectralField(values.ndim, box, modes, values.shape[0],
                             _project(values, modes))

    def copy(self) -> "SpectralField":
        return SpectralField(self.dim, self.box, self.modes, self.grid,
                             self.data.copy())

    # -- geometry ----------------------------------------------------------

    @property
    def cell_volume(self) -> float:
        return (2.0 * self.box / self.grid) ** self.dim

    def axis_points(self) -> np.ndarray:
        return -self.box + 2.0 * self.box * np.arange(self.grid) / self.grid

    def grid_points(self) -> np.ndarray:
        x = self.axis_points()
        if self.dim == 1:
            return x[:, None]
        return np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)

    # -- transforms --------------------------------------------------------

    def grid_values(self) -> np.ndarray:
        return _synthesize(self.data, self.dim, self.grid)

    @property
    def coefficients(self) -> np.ndarray:
        """Coefficients of exp(i pi k v / L), indexed k = -K..K per axis."""
        k = self.modes
        phase = (-1.0) ** np.arange(-k, k + 1)
        if self.dim == 1:
            cent = np.concatenate([np.conj(self.data[:0:-1]), self.data])
            return cent * phase / self.grid
        right = np.concatenate([self.data[k + 1:], self.data[:k + 1]])  # k2 >= 0
        left = np.conj(right[::-1, :0:-1])       # c(k1, -k2) = conj c(-k1, k2)
        cent = np.concatenate([left, right], axis=1)
        return cent * np.outer(phase, phase) / self.grid**2

    def mass(self) -> float:
        """Integral of the density: the k = 0 coefficient times (2L)^d."""
        return (float(self.data.flat[0].real) * (2.0 * self.box) ** self.dim
                / self.grid ** self.dim)


def _block_shape(dim: int, modes: int) -> tuple:
    return (modes + 1,) if dim == 1 else (2 * modes + 1, modes + 1)


def _project(values: np.ndarray, modes: int) -> np.ndarray:
    """Retained block of the rfft of grid values, transforming axis by axis.

    In 2D the real transform along axis 1 comes first; only its K+1
    retained columns go through the transform along axis 0, and only the
    2K+1 retained rows of that are kept.
    """
    if values.ndim == 1:
        return sfft.rfft(values)[:modes + 1]
    m = values.shape[0]
    rows = sfft.fft(sfft.rfft(values, axis=1)[:, :modes + 1], axis=0)
    return np.concatenate([rows[:modes + 1], rows[m - modes:]])


def _synthesize(block: np.ndarray, dim: int, grid: int) -> np.ndarray:
    """Grid values of a retained block, the inverse of `_project`.

    In 2D only the K+1 retained columns are transformed along axis 0; the
    real inverse along axis 1 pads them to the full half spectrum.  Both
    passes are unnormalized and the result is scaled once by 1/M^2, which
    reproduces the bits of a 2-D inverse rfft for every M.
    """
    if dim == 1:
        return sfft.irfft(block, n=grid)
    modes = block.shape[-1] - 1
    cols = np.zeros((grid, modes + 1), dtype=complex)
    cols[:modes + 1] = block[:modes + 1]
    cols[grid - modes:] = block[modes + 1:]
    out = sfft.irfft(sfft.ifft(cols, axis=0, norm="forward"), n=grid, axis=1,
                     norm="forward")
    out *= 1.0 / grid**2
    return out


@functools.lru_cache(maxsize=32)
def _wavenumbers(dim: int, modes: int, box: float):
    """i kappa_j along each axis of the retained block, and |kappa|^2."""
    scale = np.pi / box
    k_half = scale * np.arange(modes + 1)
    if dim == 1:
        kappa = (k_half,)
    else:
        k_rows = scale * np.r_[0:modes + 1, -modes:0]     # rows k1 = 0..K, -K..-1
        kappa = (k_rows[:, None], k_half[None, :])
    return tuple(1j * k for k in kappa), sum(k**2 for k in kappa)


# ---------------------------------------------------------------------------
# problems


@dataclass
class PDEProblem:
    """Equation form, coefficients, and solver policy for one run.

    For the cbo form the coefficients are generated from the consensus
    point: either a frozen path t -> v_a(t), or self-consistently from the
    current density via Gibbs weighting of the objective (`valpha_mode` =
    "self_consistent", re-evaluated at every integrator stage).

    One problem may be evolved on several field layouts, also from several
    threads at once: per-layout grids live in a cache keyed by the layout.
    """

    form: str                                   # gradient | divergence | cbo
    cutoff: CutoffSpec
    coefficients: Optional[CoefficientField] = None
    objective: Optional[Objective] = None
    alpha: float = 0.0
    valpha_mode: str = "frozen"
    valpha_path: Optional[Callable[[float], np.ndarray]] = None
    integrator: str = "rkc"                     # rkc | rk4 (reference)
    c_cfl: float = 2.78
    # cbo assembly route: "gradient" rewrites the diffusion under a single
    # divergence (the rewritten form); "divergence" assembles the original
    # conservation form div(J rho) + Lap(G rho), whose k=0 mode is exactly
    # constant, so mass is conserved to rounding no matter what the box
    # boundary does.  The two agree to dealiasing accuracy on resolved
    # fields (that agreement is itself a tested property).
    cbo_assembly: str = "gradient"
    _workspaces: dict = dataclass_field(default_factory=dict, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        if self.form not in ("gradient", "divergence", "cbo"):
            raise ConfigurationError(f"unknown equation form {self.form!r}")
        if self.valpha_mode not in ("frozen", "self_consistent"):
            raise ConfigurationError(f"unknown valpha mode {self.valpha_mode!r}")
        if self.integrator not in ("rk4", "rkc"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")
        if self.cbo_assembly not in ("gradient", "divergence"):
            raise ConfigurationError(f"unknown cbo assembly {self.cbo_assembly!r}")
        if self.form == "cbo":
            if self.valpha_mode == "frozen" and self.valpha_path is None:
                raise ConfigurationError("frozen cbo form needs a consensus path")
            if self.valpha_mode == "self_consistent" and self.objective is None:
                raise ConfigurationError("self-consistent cbo form needs an objective")
        elif self.coefficients is None:
            raise ConfigurationError(f"{self.form} form needs a coefficient field")


class _Plan(NamedTuple):
    """The coefficients G and J at one time, as weight grids and a matrix.

    Row 0 of `matrix` gives G and rows 1..d give J_1..J_d as combinations of
    the weight grids W_1..W_n and the constant 1 (last column).  Because
    the transform is linear, the same rows combine F(W_b rho) and F(rho)
    into F(G rho) and F(J_j rho).
    """

    weights: np.ndarray              # (n, *grid)
    matrix: np.ndarray               # (1 + d, n + 1)
    source: Optional[np.ndarray]     # truncated g on the grid (general forms)

    def combine(self, transforms: np.ndarray) -> np.ndarray:
        """[F(G rho), F(J_1 rho), ...] from [F(W_1 rho), ..., F(W_n rho), F(rho)].

        The matrix is real, so it acts on real and imaginary parts alike:
        one real matrix product on the float view of the stacked blocks.
        """
        flat = transforms.reshape(len(transforms), -1).view(np.float64)
        out = (self.matrix @ flat).view(complex)
        return out.reshape((len(self.matrix),) + transforms.shape[1:])

    def grids(self, rows=slice(None)) -> np.ndarray:
        """The selected rows of [G, J_1, ..., J_d] on the collocation grid."""
        c = self.matrix[rows]
        const = c[..., -1].reshape(c.shape[:-1] + (1,) * (self.weights.ndim - 1))
        return np.tensordot(c[..., :-1], self.weights, axes=1) + const


class _AxisProducts:
    """F(|x|^2 rho), F(x_1 rho), F(x_2 rho) of a 2-D block, in mode space.

    A product with a function w of one coordinate convolves the spectrum
    along that axis with DFT(w) / M, exactly for every M, so on the retained
    block it is a Toeplitz matrix along that axis alone: T @ B along axis 0,
    and along axis 1, whose negative columns the block holds only through
    conjugate symmetry, B @ A + conj(B[-k1, 1:]) @ A_minus.  On the grid
    x_{M-i} = -x_i, so DFT(x^2) is real and DFT(x) / M is -L/M + i odd(m),
    the -L/M coming from x_0 = -L, which has no mirror point.  Every
    operator is thus real up to the factor i and that rank-one term, and
    acts as one real matrix product per axis on the planes of the block.
    """

    def __init__(self, box: float, modes: int, grid: int):
        x = SpectralField.zeros(1, box, modes, grid).axis_points()
        odd = sfft.fft(x).imag / grid
        even = sfft.fft(x * x).real / grid
        k = np.r_[0:modes + 1, -modes:0]               # rows k1 of the block
        h = np.arange(modes + 1)                       # columns k2
        # axis 0, output row k1 from input row j: [odd; even] Toeplitz
        self.rows = np.concatenate([odd[(k[:, None] - k) % grid],
                                    even[(k[:, None] - k) % grid]])
        # axis 1, input columns j = 0..K then mirrored j = 1..K: [even, odd]
        lag = np.concatenate([h - h[:, None], h + h[1:, None]]) % grid
        self.cols = np.concatenate([even[lag], odd[lag]], axis=1)
        self.mirror = -k % len(k)                      # row of -k1
        self.offset = -box / grid                      # Re DFT(x) / M

    def __call__(self, block: np.ndarray) -> np.ndarray:
        """[F(|x|^2 rho), F(x_1 rho), F(x_2 rho), F(rho)] for rho's block."""
        block = np.ascontiguousarray(block)
        n, h = block.shape
        tail = block[self.mirror, 1:]
        planes = np.empty((2 * n, 2 * h - 1))          # [Re; Im] of (B, conj tail)
        planes[:n, :h], planes[:n, h:] = block.real, tail.real
        planes[n:, :h], planes[n:, h:] = block.imag, -tail.imag
        right = planes @ self.cols                     # (2n, 2h)
        left = (self.rows @ block.view(np.float64)).view(complex)
        sums = self.offset * planes.sum(axis=1)
        out = np.empty((4, n, h), dtype=complex)
        out[0].real, out[0].imag = right[:n, :h], right[n:, :h]
        out[0] += left[n:]
        out[1] = 1j * left[:n]
        out[1] += self.offset * block.sum(axis=0)
        out[2].real = sums[:n, None] - right[n:, h:]
        out[2].imag = sums[n:, None] + right[:n, h:]
        # the k2 = 0 column of a real field's transform is Hermitian; the
        # products meet it only up to rounding, so restore it exactly
        col = out[:3, :, 0]
        col[...] = 0.5 * (col + np.conj(col[:, self.mirror]))
        out[3] = block
        return out


class _Workspace:
    """Static grids and cached coefficients of one problem on one layout."""

    def __init__(self, problem: PDEProblem, dim: int, box: float, modes: int,
                 grid: int):
        self.dim, self.grid, self.modes = dim, grid, modes
        self.ikappa, self.kappa_sq = _wavenumbers(dim, modes, box)
        self.points = SpectralField.zeros(dim, box, modes, grid).grid_points()
        coords = np.moveaxis(self.points, -1, 0)
        self.geometry = truncation_geometry(problem.cutoff, self.points)
        inactive = (float(self.geometry.shell.max()) == 0.0
                    and float(self.geometry.plateau.min()) == 1.0)
        self.cbo = problem.form == "cbo"
        # with the truncation inactive on this box (the common production
        # case) the cbo coefficients are affine in the consensus point v:
        # G = |x|^2 - 2 v.x + |v|^2 and J_j = x_j - v_j, so one fixed set of
        # weight grids serves every stage
        self.affine = None
        if self.cbo and inactive:
            self.affine = np.concatenate([np.sum(coords**2, axis=0)[None], coords])
        # in 2D the products with those weights are formed in mode space
        # (see `_AxisProducts`); 1D keeps the grid products, where the FFT
        # beats an O(K^2) operator, and so does an active truncation, whose
        # weights are not functions of one coordinate each
        self.products = None
        if self.affine is not None and dim == 2:
            self.products = _AxisProducts(box, modes, grid)
        self.quadrature = None
        if self.cbo and problem.valpha_mode == "self_consistent":
            self.quadrature = gibbs_quadrature(problem.objective, problem.alpha,
                                               self.points)
        self._cached = None      # (key, plan) of the last truncated coefficients

    def project(self, values: np.ndarray) -> np.ndarray:
        """Retained block of the transform of grid values."""
        return _project(values, self.modes)

    def synthesize(self, block: np.ndarray) -> np.ndarray:
        return _synthesize(block, self.dim, self.grid)

    def consensus(self, rho_grid: np.ndarray) -> np.ndarray:
        return density_consensus(self.quadrature, rho_grid)

    def plan(self, problem: PDEProblem, t: float, vbar) -> _Plan:
        d = self.dim
        if self.affine is not None:
            c = np.zeros((1 + d, 2 + d))
            c[0, 0] = 1.0
            c[0, 1:1 + d] = -2.0 * vbar
            c[0, -1] = float(np.dot(vbar, vbar))
            c[1:, 1:1 + d] = np.eye(d)
            c[1:, -1] = -vbar
            return _Plan(self.affine, c, None)
        # truncated coefficients on the grid, cached for the last time (or
        # consensus point): frozen paths hit the cache at every stage
        key = tuple(vbar) if self.cbo else t
        cached = self._cached
        if cached is None or cached[0] != key:
            if self.cbo:
                field = cbo_coefficients(lambda s: vbar, d)
                source = None
            else:
                field = problem.coefficients
                source = truncated_source(field, problem.cutoff, self.points, t)
            g = truncated_G(field, problem.cutoff, self.points, t, self.geometry)
            j = truncated_J(field, problem.cutoff, self.points, t, self.geometry)
            weights = np.concatenate([g[None], np.moveaxis(j, -1, 0)])
            identity = np.eye(1 + d, 2 + d)
            cached = (key, _Plan(weights, identity, source))
            self._cached = cached
        return cached[1]


def _workspace(problem: PDEProblem, f: SpectralField) -> _Workspace:
    key = (f.dim, f.box, f.modes, f.grid)
    ws = problem._workspaces.get(key)
    if ws is None:
        ws = problem._workspaces.setdefault(key, _Workspace(problem, *key))
    return ws


def _consensus_at(problem: PDEProblem, ws: _Workspace, t: float,
                  f: SpectralField, rho_grid: Optional[np.ndarray] = None):
    if problem.valpha_mode == "frozen":
        return np.asarray(problem.valpha_path(t), dtype=float)
    return ws.consensus(f.grid_values() if rho_grid is None else rho_grid)


# ---------------------------------------------------------------------------
# right-hand sides


def rhs(f: SpectralField, problem: PDEProblem, t: float,
        vbar: Optional[np.ndarray] = None) -> SpectralField:
    """Time derivative of the field under the problem's equation form.

    Pseudospectral assembly: spatial derivatives of the density are taken
    in mode space (exact for the retained modes), coefficient products are
    formed on the M-grid, and the result is projected back onto |k| <= K.
    `vbar` is the cbo consensus point at (f, t) when the caller has it.
    """
    if problem.form == "cbo" and problem.cbo_assembly == "divergence":
        return cbo_divergence_rhs(f, problem, t, vbar)
    ws = _workspace(problem, f)
    ikappa = ws.ikappa
    d = f.dim
    if problem.form == "cbo" and vbar is None:
        vbar = _consensus_at(problem, ws, t, f)
    plan = ws.plan(problem, t, vbar)
    gi, *ji = plan.grids()
    grad = [ws.synthesize(ik * f.data) for ik in ikappa]
    out = sum(ikappa[j] * ws.project(gi * grad[j]) for j in range(d))
    if problem.form == "divergence":
        rho = f.grid_values()
        for j in range(d):
            out -= ikappa[j] * ws.project(ji[j] * rho)
    else:
        drift = ws.project(sum(ji[j] * grad[j] for j in range(d)))
        out += 3.0 * drift if problem.form == "cbo" else drift
    if problem.form == "cbo":
        out += (3.0 * d) * f.data
    else:
        out += f.data            # the + rho term
        if np.any(plan.source):
            out += ws.project(plan.source)
    return SpectralField(d, f.box, f.modes, f.grid, out)


def cbo_divergence_rhs(f: SpectralField, problem: PDEProblem, t: float,
                       vbar: Optional[np.ndarray] = None) -> SpectralField:
    """The consensus density equation assembled in its conservation form,
    div(J rho) + Laplacian(G rho), with the same coefficients as the cbo
    right-hand side.  Used to certify that the rewritten form agrees.

    F(G rho) and F(J_j rho) are combined on the retained block from the
    transforms of rho times the plan's weight grids and from the field's
    own data F(rho) (see `_Plan`).  Where the workspace forms those
    products in mode space, the grid is synthesized only for a consensus
    point that the caller did not pass."""
    if problem.form != "cbo":
        raise ConfigurationError("divergence assembly is defined for the cbo form")
    ws = _workspace(problem, f)
    rho = None if ws.products is not None else f.grid_values()
    if vbar is None:
        vbar = _consensus_at(problem, ws, t, f, rho)
    plan = ws.plan(problem, t, vbar)
    if rho is None:
        transforms = ws.products(f.data)
    else:
        transforms = np.empty((len(plan.weights) + 1,) + f.data.shape,
                              dtype=complex)
        for b, w in enumerate(plan.weights):
            transforms[b] = ws.project(w * rho)
        transforms[-1] = f.data
    fg, *fj = plan.combine(transforms)
    out = -ws.kappa_sq * fg
    for ik, fjj in zip(ws.ikappa, fj):
        out += ik * fjj
    return SpectralField(f.dim, f.box, f.modes, f.grid, out)


# ---------------------------------------------------------------------------
# stability bound and integrators


def spectral_radius_bound(f: SpectralField, problem: PDEProblem, t: float,
                          vbar: Optional[np.ndarray] = None) -> float:
    """max_grid(G_trunc) * |kappa_max|^2, the explicit-stability yardstick."""
    ws = _workspace(problem, f)
    if problem.form == "cbo" and vbar is None:
        vbar = _consensus_at(problem, ws, t, f)
    g_max = float(np.max(ws.plan(problem, t, vbar).grids(0)))
    return g_max * f.dim * (np.pi * f.modes / f.box) ** 2


def _rk4_step(f, problem, t, dt, vbar):
    k1 = rhs(f, problem, t, vbar)
    f2 = SpectralField(f.dim, f.box, f.modes, f.grid, f.data + 0.5 * dt * k1.data)
    k2 = rhs(f2, problem, t + 0.5 * dt)
    f3 = SpectralField(f.dim, f.box, f.modes, f.grid, f.data + 0.5 * dt * k2.data)
    k3 = rhs(f3, problem, t + 0.5 * dt)
    f4 = SpectralField(f.dim, f.box, f.modes, f.grid, f.data + dt * k3.data)
    k4 = rhs(f4, problem, t + dt)
    new = f.data + (dt / 6.0) * (k1.data + 2.0 * k2.data + 2.0 * k3.data + k4.data)
    return SpectralField(f.dim, f.box, f.modes, f.grid, new)


# damping eps of the second-order Chebyshev scheme: w0 = 1 + eps / s^2
_RKC_DAMPING = 2.0 / 13.0


@functools.lru_cache(maxsize=64)
def _rkc_coefficients(s: int):
    """Damped second-order Chebyshev scheme coefficients for s stages."""
    w0 = 1.0 + _RKC_DAMPING / s**2
    tj = np.empty(s + 1)
    dtj = np.empty(s + 1)
    ddtj = np.empty(s + 1)
    tj[0], tj[1] = 1.0, w0
    dtj[0], dtj[1] = 0.0, 1.0
    ddtj[0], ddtj[1] = 0.0, 0.0
    for j in range(2, s + 1):
        tj[j] = 2.0 * w0 * tj[j - 1] - tj[j - 2]
        dtj[j] = 2.0 * tj[j - 1] + 2.0 * w0 * dtj[j - 1] - dtj[j - 2]
        ddtj[j] = 4.0 * dtj[j - 1] + 2.0 * w0 * ddtj[j - 1] - ddtj[j - 2]
    w1 = dtj[s] / ddtj[s]
    b = np.empty(s + 1)
    for j in range(2, s + 1):
        b[j] = ddtj[j] / dtj[j] ** 2
    b[0] = b[1] = b[2]
    a = 1.0 - b * tj
    c = np.empty(s + 1)
    c[0] = 0.0
    for j in range(2, s + 1):
        c[j] = (dtj[s] / ddtj[s]) * (ddtj[j] / dtj[j])
    c[1] = c[2] / 4.0 if s >= 2 else w1
    c[s] = 1.0
    beta = (w0 + 1.0) * ddtj[s] / dtj[s]
    return w0, w1, b, a, c, beta


def rkc_interval(s: int) -> float:
    """Length of the negative-real stability interval of the s-stage scheme."""
    return _rkc_coefficients(s)[-1]


def rkc_stages_for(dt: float, lam_bound: float) -> int:
    """Smallest stage count whose stability interval covers dt * lam_bound."""
    target = dt * lam_bound
    s = max(2, int(np.ceil(np.sqrt(target / 0.65))))
    while rkc_interval(s) < target:
        s += 1
    return s


def _rkc_step(f, problem, t, dt, s, vbar):
    """One step of the s-stage scheme; `vbar` drives the first stage."""
    w0, w1, b, a, c, _ = _rkc_coefficients(s)
    f0 = rhs(f, problem, t, vbar).data
    y0 = f.data
    mu1 = b[1] * w1
    yjm1, yjm2 = y0 + mu1 * dt * f0, y0
    for j in range(2, s + 1):
        mu = 2.0 * b[j] * w0 / b[j - 1]
        nu = -b[j] / b[j - 2]
        mut = mu * w1 / w0
        gat = -a[j - 1] * mut
        fj = rhs(SpectralField(f.dim, f.box, f.modes, f.grid, yjm1),
                 problem, t + c[j - 1] * dt).data
        ynew = ((1.0 - mu - nu) * y0 + mu * yjm1 + nu * yjm2
                + mut * dt * fj + gat * dt * f0)
        yjm2, yjm1 = yjm1, ynew
    return SpectralField(f.dim, f.box, f.modes, f.grid, yjm1)


def step(f: SpectralField, problem: PDEProblem, t: float, dt: float) -> SpectralField:
    """Advance one time step with the problem's integrator.

    RK4 refuses dt beyond c_cfl over the spectral-radius estimate; the
    Chebyshev integrator instead raises its stage count to cover dt.  The
    consensus point at the start of the step serves both the estimate and
    the first stage.
    """
    vbar = None
    if problem.form == "cbo":
        vbar = _consensus_at(problem, _workspace(problem, f), t, f)
    lam = spectral_radius_bound(f, problem, t, vbar)
    if problem.integrator == "rk4":
        limit = problem.c_cfl / lam if lam > 0.0 else np.inf
        if dt > limit:
            raise ConfigurationError(
                f"dt={dt:g} exceeds the stability bound {limit:g}; "
                "reduce dt or the resolution")
        return _rk4_step(f, problem, t, dt, vbar)
    return _rkc_step(f, problem, t, dt, rkc_stages_for(dt, lam), vbar)


# ---------------------------------------------------------------------------
# initial data, probes, monitors


def project_initial(sampler: Callable[[np.ndarray], np.ndarray],
                    problem: PDEProblem, dim: int, box: float,
                    modes: int, grid: int) -> SpectralField:
    """Sample a density, taper it to zero near the plateau radius, project.

    The taper multiplies by 1 - step(|v| - n) with n the cutoff's plateau
    scale, which is a no-op whenever the sampler's support stays inside
    radius n; it exists so active-cutoff runs start from periodic data.
    """
    probe = SpectralField.zeros(dim, box, modes, grid)
    pts = probe.grid_points()
    values = np.asarray(sampler(pts), dtype=float)
    taper = problem.cutoff.taper(np.linalg.norm(pts, axis=-1))
    return SpectralField.from_grid(values * taper, box, modes)


def positivity_probe(f: SpectralField, v_alpha, r_exclude: float,
                     r_outer: float):
    """Minimum of the raw density over the annulus around the consensus point.

    Returns (min value, location).  Values are not clamped: a negative
    minimum reports the solver's ringing floor honestly.
    """
    if not (0.0 <= r_exclude < r_outer):
        raise DomainError("need 0 <= r_exclude < r_outer")
    pts = f.grid_points()
    dist = np.linalg.norm(pts - np.asarray(v_alpha, dtype=float), axis=-1)
    sel = (dist >= r_exclude) & (dist <= r_outer)
    if not np.any(sel):
        raise DomainError("annulus contains no grid points")
    vals = f.grid_values()[sel]
    arg = int(np.argmin(vals))
    return float(vals[arg]), pts[sel][arg]


def confinement_probe_1d(f: SpectralField, v_star: float) -> float:
    """Quadrature of max(rho, 0) over (v_star, L].

    Each grid node owns the cell [x - h/2, x + h/2]; a cell straddling
    v_star contributes only its right fraction, so a density symmetric
    about v_star integrates to exactly half its mass.
    """
    if f.dim != 1:
        raise DomainError("confinement probe is one-dimensional")
    x = f.axis_points()
    vals = np.maximum(f.grid_values(), 0.0)
    h = f.cell_volume
    frac = np.clip((x + 0.5 * h - v_star) / h, 0.0, 1.0)
    return float(np.sum(vals * frac) * h)


def energy_monitor(times, fields, problem: PDEProblem):
    """(t, L2 norm squared, weighted H1 seminorm) per snapshot."""
    if len(fields) == 0:
        raise DomainError("empty field history")
    rows = []
    for t, f in zip(times, fields):
        ws = _workspace(problem, f)
        rho = f.grid_values()
        l2 = float(np.sum(rho**2)) * f.cell_volume
        grads = [ws.synthesize(ik * f.data) for ik in ws.ikappa]
        grad_sq = sum(g**2 for g in grads)
        vbar = _consensus_at(problem, ws, t, f, rho) if problem.form == "cbo" else None
        gi = ws.plan(problem, t, vbar).grids(0)
        h1 = float(np.sum(gi * grad_sq)) * f.cell_volume
        rows.append((t, l2, h1))
    return rows


# ---------------------------------------------------------------------------
# evolution driver


@dataclass
class EvolveResult:
    times: np.ndarray
    mass_series: np.ndarray
    valpha_series: Optional[np.ndarray]     # (n_records, d) for the cbo form
    observed: dict
    snapshots: list
    final: SpectralField
    wall_time: float


def evolve(f: SpectralField, problem: PDEProblem, horizon: float, dt: float,
           record_every: int = 1, snapshot_times=(), observers=None) -> EvolveResult:
    """March the field to the horizon, recording cheap diagnostics.

    Mass is read off the k=0 coefficient at every recording step; for the
    cbo form the consensus point is recorded too.  `observers` maps names
    to callables (t, field) -> float evaluated at recording steps;
    `snapshot_times` are rounded to the nearest step and the field copied.
    """
    import time as _time

    n_steps = max(1, int(round(horizon / dt)))
    dt = horizon / n_steps
    snap_steps = {int(round(ts / dt)): ts for ts in snapshot_times}
    observers = observers or {}

    times, masses, vbars = [], [], []
    observed = {name: [] for name in observers}
    snapshots = []
    is_cbo = problem.form == "cbo"
    t0 = _time.perf_counter()

    def record(k, t, fld):
        times.append(t)
        masses.append(fld.mass())
        if is_cbo:
            vbars.append(_consensus_at(problem, _workspace(problem, fld), t, fld))
        for name, fn in observers.items():
            observed[name].append(fn(t, fld))
        if k in snap_steps:
            snapshots.append((t, fld.copy()))

    record(0, 0.0, f)
    for k in range(n_steps):
        f = step(f, problem, k * dt, dt)
        if (k + 1) % record_every == 0 or (k + 1) == n_steps or (k + 1) in snap_steps:
            record(k + 1, (k + 1) * dt, f)

    return EvolveResult(
        times=np.asarray(times),
        mass_series=np.asarray(masses),
        valpha_series=np.asarray(vbars) if is_cbo else None,
        observed={k: np.asarray(v) for k, v in observed.items()},
        snapshots=snapshots,
        final=f,
        wall_time=_time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# dense Galerkin oracle (small K only)


def galerkin_matrix_rhs(f: SpectralField, problem: PDEProblem, t: float) -> np.ndarray:
    """Time derivative computed from the densely assembled Galerkin system.

    Builds the mass matrix (diagonal for the trigonometric basis), the
    stiffness/transport matrix and the source vector by quadrature on the
    field's own grid, then solves for the coefficient derivatives.  Cost is
    O(K^2d) per entry pair, so this is an oracle for tiny K, kept to certify
    that the fast transform assembly is the same projection.

    Returns centered coefficients (index -K..K per axis) of the derivative.
    """
    if f.dim != 1:
        raise ConfigurationError("the dense oracle is assembled in 1D")
    ws = _workspace(problem, f)
    x = f.axis_points()
    ks = np.arange(-f.modes, f.modes + 1)
    psi = np.exp(1j * np.pi * np.outer(ks, x) / f.box)       # (n_modes, M)
    dpsi = (1j * np.pi * ks / f.box)[:, None] * psi
    cell = f.cell_volume

    vbar = _consensus_at(problem, ws, t, f) if problem.form == "cbo" else None
    plan = ws.plan(problem, t, vbar)
    gi_grid, j_grid = plan.grids()
    source = plan.source
    if problem.form == "cbo":
        drift_scale, reaction = 3.0, 3.0 * f.dim
    else:
        drift_scale, reaction = 1.0, 1.0

    a_diag = np.full(len(ks), 2.0 * f.box)
    # <div(G grad psi_j), psi_k> integrates by parts to -<G dpsi_j, dpsi_k>
    # on the torus; with rectangle quadrature this is the identical sum the
    # transform route evaluates, so agreement is a floating-point property.
    stiff = -(dpsi * gi_grid) @ np.conj(dpsi).T * cell
    if problem.form == "divergence":
        # <-div(J psi_j), psi_k> = <J psi_j, dpsi_k>
        transport = (psi * j_grid) @ np.conj(dpsi).T * cell
    else:
        transport = drift_scale * (dpsi * j_grid) @ np.conj(psi).T * cell
    react = reaction * (psi @ np.conj(psi).T) * cell
    b_mat = stiff + transport + react

    coeffs = f.coefficients
    rhs_vec = b_mat.T @ coeffs
    if source is not None and np.any(source):
        rhs_vec = rhs_vec + (np.conj(psi) @ source) * cell
    return rhs_vec / a_diag
