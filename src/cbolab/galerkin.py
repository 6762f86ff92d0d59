"""Pseudospectral solver for the consensus density equation on a periodic box.

The density lives on the box [-L, L]^d (d = 1 or 2) identified as a torus
and is represented by its Fourier coefficients up to |k| <= K per axis.
Nonlinear terms (variable-coefficient products) are evaluated on an M-point
collocation grid per axis and projected back onto the retained modes; with
M >= 4K the retained modes of a product of two resolved fields are free of
aliasing (the usual two-thirds-style truncation with extra margin).

The one equation is the consensus density equation in conservation form,

    drho/dt = div(J rho) + Lap(G rho),  G = |v - v_a|^2,  J = v - v_a,

assembled by `rhs` (`cbo_divergence_rhs`).  The consensus point v_a is
either one frozen point or the Gibbs-weighted consensus of rho itself, so
the equation is autonomous: no layer takes a time.  Its k = 0 mode is
exactly zero, so mass is conserved to rounding whatever the box boundary
does.  The general drift-diffusion forms, the grid route for the rewritten
equation, the dense Galerkin oracle and an RK4 stepper live in
`tests/reference.py`, outside the package, so the tests compare the solver
with code it does not contain.

Coefficients always pass through the cutoff module's truncation, so runs
where the shell and plateau are placed outside the box solve the raw
equation, while runs with active cutoffs solve the periodized one.

Fields store only the retained block of modes (see `SpectralField`), so
truncation is slicing.  Transforms run axis by axis through numpy.fft and
skip the discarded modes: in 2D only the K+1 retained columns are
transformed along the first axis (`_project`, `_synthesize`), with results
bit-identical to full n-dimensional real transforms.

A layout forms the products G rho and J rho in one of two ways.  In 2D
with the truncation inactive on the box, G and J are affine in the
consensus point v, G = |x|^2 - 2 v.x + |v|^2 and J_j = x_j - v_j, so the
transforms of rho times |x|^2 and x_j are formed in mode space, as per-axis
Toeplitz operators on the retained block (`_AxisProducts`), and the point's
scalars combine them (`_affine_combine`); only the grid rows that the
density consensus reads are synthesized.  Every other layout, 1D and
active truncations, multiplies rho by the truncated coefficient grids on
the grid and projects (`_Workspace.coefficients`); in 1D the two real
products share one complex transform.  On an even 1-D grid both of a
stage's transforms run at half length H = M / 2, each on a complex grid
that holds the even and odd samples of a real one: rho comes from one
H-point inverse transform (`_grid_1d`), and the packed products' even and
odd samples are transformed at once (`_packed_modes`).  An odd grid keeps
the M-point irfft and fft.

A self-consistent layout keeps one Gibbs weight grid, stored on its
support box (`consensus.GibbsBox`): the rows and columns where some weight
has not underflowed to 0.  Each consensus point is one call of
`consensus.density_consensus`, which reads the box's core or, failing its
certificate, the box, asking a sampler for the samples of the box it
reads.  `_consensus_at` passes it that sampler, the bound of |rho| read off
the field's block (`_sample_bound`) and the field's k = 0 coefficient,
the sum of its samples, which guards the clamp.  A 2-D sampler
synthesizes only the rows of the box it is asked for.

`step` is an s-stage Runge-Kutta-Chebyshev method (second order, damped)
whose stability interval grows like 0.65 s^2, with a spectral-radius
estimate max G * |kmax|^2 deciding the stage count.  The first stage,
which `rhs` returns with the consensus point it read, runs before the
estimate is taken at that point; `step` returns the point with the next
field, and `evolve` records it, so each field's point is read once.  Each
layout owns one set of buffers (`_Workspace`): the stage slots, the 1-D
transform buffers and the 2-D consensus column buffer.  The stages rotate
through the slots and are combined in place, with the package's
floating-point operations in their order, so outputs are byte-identical
to those of fresh arrays per stage.  A 1-D stage writes every transform
into the layout's buffers and allocates no grid-sized array (a
self-consistent one clamps the samples of its Gibbs weight core into a
new array), while a 2-D stage allocates its products and their
transforms.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np
from numpy import fft as sfft

from .consensus import DomainError, density_consensus, gibbs_box
from .cutoffs import (CutoffSpec, cbo_coefficients, truncated_G, truncated_J,
                      truncation_geometry)
from .objectives import ConfigurationError, Objective, time_grid


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

    box: float       # half-width L
    grid: int        # M, collocation points per axis
    data: np.ndarray  # the block, whose shape fixes d and K: `dim`, `modes`

    def __post_init__(self):
        # the rank is checked before K is read off the block's last axis
        block = _block_shape(self.dim, self.modes if self.dim else 0)
        if self.data.shape != block:
            raise ConfigurationError(
                f"data shape {self.data.shape} is not the retained block {block}")
        if self.grid < 4 * self.modes:
            raise ConfigurationError(
                f"grid M={self.grid} must be at least 4K={4 * self.modes}")

    @property
    def dim(self) -> int:
        return self.data.ndim

    @property
    def modes(self) -> int:
        return self.data.shape[-1] - 1      # K, largest retained |k| per axis

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(dim: int, box: float, modes: int, grid: int) -> "SpectralField":
        return SpectralField(box, grid,
                             np.zeros(_block_shape(dim, modes), dtype=complex))

    @staticmethod
    def from_grid(values: np.ndarray, box: float, modes: int) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        return SpectralField(box, values.shape[0], _project(values, modes))

    def like(self, data: np.ndarray) -> "SpectralField":
        """The field of `data` on this field's box and grid."""
        return SpectralField(self.box, self.grid, data)

    def copy(self) -> "SpectralField":
        return self.like(self.data.copy())

    # -- geometry ----------------------------------------------------------

    @property
    def cell_volume(self) -> float:
        return (2.0 * self.box / self.grid) ** self.dim

    def axis_points(self) -> np.ndarray:
        return _grid_points(self.box, self.grid, 1)[:, 0]

    def grid_points(self) -> np.ndarray:
        return _grid_points(self.box, self.grid, self.dim)

    # -- transforms --------------------------------------------------------

    def grid_values(self) -> np.ndarray:
        return _synthesize(self.data, self.grid)

    def grid_rows(self):
        """The rows of `grid_values` along axis 0 in 2D (the one row in
        1D), synthesized one at a time: the column pass is made once and
        the row pass row by row, in the bits of `grid_values`."""
        if self.dim == 1:
            yield self.grid_values()
            return
        half = _column_pass(self.data, self.grid)
        for i in range(self.grid):
            yield _row_pass(half[i:i + 1], self.grid)[0]

    @property
    def coefficients(self) -> np.ndarray:
        """Coefficients of exp(i pi k v / L), indexed k = -K..K per axis."""
        rows = np.stack(list(self.coefficient_rows()))
        return rows.reshape((2 * self.modes + 1,) * self.dim)

    def coefficient_rows(self):
        """The rows of `coefficients`, k1 = -K..K in 2D (the one row in
        1D), built one at a time from the stored block."""
        k = self.modes
        phase = (-1.0) ** np.arange(-k, k + 1)
        if self.dim == 1:
            row = np.concatenate([np.conj(self.data[:0:-1]), self.data])
            yield row * phase / self.grid
            return
        # block row k1 sits at index k1 (mod 2K+1); c(k1, -k2) = conj c(-k1, k2)
        for k1, p in zip(range(-k, k + 1), phase):
            row = np.concatenate([np.conj(self.data[-k1, :0:-1]), self.data[k1]])
            yield row * (p * phase) / self.grid**2

    def mass(self) -> float:
        """Integral of the density: the k = 0 coefficient times (2L)^d."""
        return (float(self.data.flat[0].real) * (2.0 * self.box) ** self.dim
                / self.grid ** self.dim)


def _block_shape(dim: int, modes: int) -> tuple:
    if dim not in (1, 2):
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}")
    return (modes + 1,) if dim == 1 else (2 * modes + 1, modes + 1)


def _grid_points(box: float, grid: int, dim: int) -> np.ndarray:
    x = -box + 2.0 * box * np.arange(grid) / grid
    return (x[:, None] if dim == 1
            else np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1))


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


def _synthesize(block: np.ndarray, grid: int,
                cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Grid values of a retained block, the inverse of `_project`.

    In 2D only the K+1 retained columns are transformed along axis 0
    (`_column_pass`); the real inverse along axis 1 pads them to the full
    half spectrum (`_row_pass`), and may run on any rows of the first pass.
    `cols` may pass a zeroed (M, K+1) complex buffer: only its retained
    rows are written, so it stays zero elsewhere and can be reused.  Both
    passes are unnormalized and the result is scaled once by 1/M^2, which
    reproduces the bits of a 2-D inverse rfft for every M, row by row.
    """
    if block.ndim == 1:
        return sfft.irfft(block, n=grid)
    return _row_pass(_column_pass(block, grid, cols), grid)


def _column_pass(block: np.ndarray, grid: int,
                 cols: Optional[np.ndarray] = None) -> np.ndarray:
    """The unnormalized inverse along axis 0 of a 2-D block's K+1 retained
    columns, shape (M, K+1): the first pass of `_synthesize`."""
    modes = block.shape[-1] - 1
    if cols is None:
        cols = np.zeros((grid, modes + 1), dtype=complex)
    cols[:modes + 1] = block[:modes + 1]
    cols[grid - modes:] = block[modes + 1:]
    return sfft.ifft(cols, axis=0, norm="forward")


def _row_pass(half: np.ndarray, grid: int) -> np.ndarray:
    """Grid rows from rows of `_column_pass`: the second pass of
    `_synthesize`, scaled by 1/M^2."""
    out = sfft.irfft(half, n=grid, axis=1, norm="forward")
    out *= 1.0 / grid**2
    return out


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
    """The consensus density equation of one run and its cutoff.

    The coefficients G = |v - v_a|^2 and J = v - v_a, truncated by
    `cutoff`, come from the consensus point v_a: the frozen point `valpha`
    when it is given, or else the Gibbs-weighted consensus of the current
    density under `objective` and `alpha`, re-evaluated at every
    Runge-Kutta stage.  Exactly one of `valpha` and `objective` is set.

    One problem may be evolved on several field layouts: per-layout grids
    and buffers live in a cache keyed by the layout.  A problem and its
    layouts are used from one thread.
    """

    cutoff: CutoffSpec
    objective: Optional[Objective] = None
    alpha: float = 0.0
    valpha: Optional[np.ndarray] = None
    _workspaces: dict = dataclass_field(default_factory=dict, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        if (self.valpha is None) == (self.objective is None):
            raise ConfigurationError(
                "a consensus is either frozen (valpha) or self-consistent "
                "(objective): set exactly one")
        if self.valpha is not None:
            self.valpha = np.asarray(self.valpha, dtype=float)


class _AxisProducts:
    """F(|x|^2 rho), F(x_1 rho), F(x_2 rho) of blocks of `layout`, in mode space.

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

    def __init__(self, layout: SpectralField):
        box, modes, grid = layout.box, layout.modes, layout.grid
        x = layout.axis_points()
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


def _affine_combine(products: np.ndarray, vbar) -> np.ndarray:
    """[F(G rho), F(J_1 rho), F(J_2 rho)] at the consensus point vbar from
    the mode-space products [F(|x|^2 rho), F(x_1 rho), F(x_2 rho), F(rho)].

    G = |x|^2 - 2 v.x + |v|^2 and J_j = x_j - v_j, so one real matrix
    combines them; it acts on real and imaginary parts alike: one real
    matrix product on the float view of the stacked blocks.
    """
    d = len(vbar)
    c = np.zeros((1 + d, 2 + d))
    c[0, 0] = 1.0
    c[0, 1:1 + d] = -2.0 * vbar
    c[0, -1] = float(np.dot(vbar, vbar))
    c[1:, 1:1 + d] = np.eye(d)
    c[1:, -1] = -vbar
    flat = products.reshape(len(products), -1).view(np.float64)
    return (c @ flat).view(complex).reshape((1 + d,) + products.shape[1:])


class _Workspace:
    """Static grids, cached coefficients and the buffers of one problem on
    the layout of the field `layout`, reused by every step and stage.

    `slots` holds the six RKC stage slots (see `_rkc_step`).  `cols` is the
    zeroed (M, K+1) column buffer of a 2-D synthesis (see `_synthesize`).
    A 1-D layout, always on the grid route, adds the density grid `rho`,
    the complex grid `packed` of G rho + i J rho, which is transformed in
    place, and the K-entry buffer `mirror` of the mirrored modes (see
    `cbo_divergence_rhs`).  On an even grid M = 2H both transforms run at
    half length with the factors `twiddles`: `rho` is the float view of
    the complex H-point output of the synthesis, whose input is the first
    half of `packed`; `packed`, as an (H, 2) array, is replaced by the
    transforms of its even and odd samples; and `mirror` is the scratch of
    both.  An odd grid has no `twiddles`, and `rho` is a float grid.  A
    2-D layout keeps no transform buffers: its stage allocates them, on
    either route.  The workspace keeps no reference to `layout`'s block.

    The route is decided on the grid radii, built from the axis, so only a
    grid-route layout builds the point grid `points` and its truncation
    geometry `geometry`; a mode-space layout never forms either.
    """

    def __init__(self, problem: PDEProblem, layout: SpectralField):
        dim, modes, grid = layout.dim, layout.modes, layout.grid
        self.ikappa, kappa_sq = _wavenumbers(dim, modes, layout.box)
        self.laplacian = -kappa_sq              # the symbol of Lap
        # 1D: the weights c+- = (Lap +- kappa) / 2 of the packed transform's
        # modes k and M - k (see `cbo_divergence_rhs`); both vanish at k = 0
        self.packing = None
        if dim == 1:
            kappa = self.ikappa[0].imag
            self.packing = (0.5 * (self.laplacian + kappa),
                            0.5 * (self.laplacian - kappa))
        self.axis = layout.axis_points()
        # the radii of the grid points, built from the axis: in 2D the bits
        # of np.linalg.norm(layout.grid_points(), axis=-1)
        if dim == 1:
            radii = np.abs(self.axis)
        else:
            sq = np.square(self.axis)
            radii = np.sqrt(sq[:, None] + sq)
        self.cutoff = cutoff = problem.cutoff
        inactive = (float(cutoff.shell(radii).max()) == 0.0
                    and float(cutoff.radial_plateau(radii).min()) == 1.0)
        del radii       # freed before the set-up below: it sets pde2d's peak
        # a 2-D layout with the truncation inactive on its box (the common
        # production case) forms the products in mode space (see
        # `_AxisProducts`) and never builds the point grids; 1D keeps the
        # grid products, where the FFT beats an O(K^2) operator, and so
        # does an active truncation, whose coefficients are not affine in
        # the consensus point: it truncates on the points at each new point
        # (in 1D a view of the axis, whose bits `grid_points()` repeats)
        self.products = self.points = self.geometry = None
        if inactive and dim == 2:
            self.products = _AxisProducts(layout)
        else:
            self.points = (self.axis[:, None] if dim == 1
                           else layout.grid_points())
            self.geometry = truncation_geometry(cutoff, self.points)
        self._cached = None      # (vbar, grids) of the last coefficients
        # a self-consistent consensus reads the Gibbs weights on their
        # support box's core, or on the box; in 2D it synthesizes their
        # rows from one column pass through `cols`
        self.gibbs = None
        if problem.valpha is None:
            self.gibbs = gibbs_box(problem.objective, problem.alpha,
                                   [self.axis] * dim)
        self.slots = np.empty((6,) + layout.data.shape, dtype=complex)
        self.cols = (np.zeros((grid, modes + 1), dtype=complex) if dim == 2
                     else None)
        self.rho = self.packed = self.mirror = None
        self.twiddles = None
        if dim == 1:
            self.packed = np.empty(grid, dtype=complex)
            self.mirror = np.empty(modes, dtype=complex)
            if grid % 2:
                self.rho = np.empty(grid)
            else:
                # rho is the float view of the half-length complex grid y
                self.rho = np.empty(grid // 2, dtype=complex).view(np.float64)
                self.twiddles = _half_length_twiddles(modes, grid)

    def coefficients(self, vbar) -> np.ndarray:
        """[G, J_1, ..., J_d] truncated on the grid at the consensus point
        vbar, cached for the last point: a frozen point hits the cache at
        every stage.  Only the grid route calls this."""
        key = tuple(vbar)
        cached = self._cached
        if cached is None or cached[0] != key:
            field = cbo_coefficients(vbar)
            g = truncated_G(field, self.cutoff, self.points, self.geometry)
            j = truncated_J(field, self.cutoff, self.points, self.geometry)
            cached = (key, np.concatenate([g[None], np.moveaxis(j, -1, 0)]))
            self._cached = cached
        return cached[1]

    def g_max(self, vbar) -> float:
        """The maximum over the grid of the truncated G at vbar."""
        if self.products is None:
            return float(np.max(self.coefficients(vbar)[0]))
        # untruncated, G = sum_j (x_j - v_j)^2 is separable, and rounded
        # addition is monotone, so the sum of the axis maxima is the
        # maximum of G over the grid, to the bit
        return sum(float(np.max(np.square(self.axis - v))) for v in vbar)


def _workspace(problem: PDEProblem, f: SpectralField) -> _Workspace:
    key = (f.box, f.grid, f.data.shape)
    ws = problem._workspaces.get(key)
    if ws is None:
        ws = problem._workspaces[key] = _Workspace(problem, f)
    return ws


def _half_length_twiddles(modes: int, grid: int):
    """The factors of the half-length 1-D transforms, with w = e^{2 pi i/M}:
    (1 + i w^k) / M for the synthesis of modes k = 0..K and of the mirrors
    k = -K..-1, and w^-k (k = 0..K) and w^m (m = 1..K) for the spectrum of
    the packed products (see `_grid_1d` and `_packed_modes`)."""
    w = np.exp(2j * np.pi * np.arange(modes + 1) / grid)
    return ((1 + 1j * w) / grid, ((1 + 1j * np.conj(w)) / grid)[:0:-1],
            np.conj(w), w[1:])


def _grid_1d(ws: _Workspace, block: np.ndarray) -> np.ndarray:
    """The grid values of a 1-D block in `ws.rho`: those of `_synthesize`
    to rounding, from one transform of half length on an even grid.

    With H = M / 2, the complex H-point grid y_n = rho_2n + i rho_2n+1 is
    the unnormalized inverse transform of b, where mode c_k enters at
    r = k twiddled by (1 + i w^k) / M and its mirror conj(c_k) at r = H - k
    twiddled by (1 + i w^-k) / M; at M = 4K the modes K and -K share
    r = K, where w^K = i, so that only the mirror's term is nonzero.  The
    float view of y is rho in grid order.  Like irfft, the synthesis reads
    only the real part of c_0.  An odd grid keeps irfft.
    """
    if ws.twiddles is None:
        return sfft.irfft(block, n=len(ws.rho), out=ws.rho)
    k, h = len(block) - 1, len(ws.rho) // 2
    pos, neg = ws.twiddles[:2]
    b = ws.packed[:h]
    tail = np.conjugate(block[k:0:-1], out=ws.mirror)   # modes -K..-1
    np.multiply(block, pos, out=b[:k + 1])
    b[0] = block[0].real * pos[0]
    b[k + 1:] = 0
    b[h - k:] += np.multiply(tail, neg, out=tail)
    sfft.ifft(b, norm="forward", out=ws.rho.view(complex))
    return ws.rho


def _packed_modes(ws: _Workspace, out: np.ndarray):
    """The modes Z_k (k = 0..K) and Z_{M-m} (m = 1..K) of the transform Z
    of `ws.packed`, which is transformed in place.  An even grid
    transforms the packed grid's even and odd samples at once, as the
    columns of an (H, 2) view, into E and O; then Z_k = E_k + w^-k O_k and
    Z_{M-m} = E_{H-m} + w^m O_{H-m}, written to `out` and `ws.mirror`.  An
    odd grid makes one M-point transform and returns views of it."""
    k, m = len(out) - 1, len(ws.packed)
    if ws.twiddles is None:
        spectrum = sfft.fft(ws.packed, out=ws.packed)
        return spectrum[:k + 1], spectrum[m - 1:m - k - 1:-1]
    h = m // 2
    w_neg, w_pos = ws.twiddles[2:]
    halves = ws.packed.reshape(h, 2)
    sfft.fft(halves, axis=0, out=halves)
    even, odd = halves[:, 0], halves[:, 1]
    head = np.multiply(w_neg, odd[:k + 1], out=out)
    head += even[:k + 1]
    tail = np.multiply(w_pos, odd[h - 1:h - k - 1:-1], out=ws.mirror)
    tail += even[h - 1:h - k - 1:-1]
    return head, tail


def _sample_bound(f: SpectralField) -> float:
    """B = 2 sum(|Re c| + |Im c|) / M^d over f's stored block, a bound of
    |rho| at every point: rho is the sum of c e^{i k.x} / M^d over the full
    spectrum, and the block stores at most half of it, the rest being the
    conjugate mirrors of stored modes."""
    return 2.0 * float(np.abs(f.data.view(np.float64)).sum()) / f.grid**f.dim


def _consensus_at(problem: PDEProblem, ws: _Workspace, f: SpectralField,
                  rho_grid: Optional[np.ndarray] = None):
    """The consensus point that drives f: the frozen point, or the Gibbs
    consensus of f's grid samples (`density_consensus`), read from
    `rho_grid` when passed.  Otherwise a 1-D field is synthesized as the
    stages do (`_grid_1d`), and a 2-D one through one column pass, whose
    rows are synthesized only for the boxes the consensus reads."""
    if problem.valpha is not None:
        return problem.valpha
    if rho_grid is None and f.dim == 1:
        rho_grid = _grid_1d(ws, f.data)
    if rho_grid is None:
        half = _column_pass(f.data, f.grid, ws.cols)

        def samples(index):
            return _row_pass(half[index[0]], f.grid)[:, index[1]]
    else:
        samples = rho_grid.__getitem__
    return density_consensus(ws.gibbs, samples, _sample_bound(f),
                             f.data.flat[0].real)


# ---------------------------------------------------------------------------
# right-hand sides


def cbo_divergence_rhs(f: SpectralField, problem: PDEProblem,
                       out: Optional[np.ndarray] = None):
    """The consensus density equation assembled in its conservation form,
    div(J rho) + Laplacian(G rho), and the consensus point of f that drove
    it: the pair (field, point).  `rhs` is this function.

    A layout with mode-space products takes the point from the grid rows
    that the consensus reads (`_consensus_at`) and combines F(G rho) and
    F(J_j rho) from the transforms of rho times |x|^2 and x_j and from the
    field's own data F(rho) (`_affine_combine`).  Every other layout
    synthesizes rho once, reads the point off it, and multiplies rho by the
    truncated coefficient grids on the grid; in 2D it projects each
    product, in 1D it works in the layout's buffers.
    In 1D both products are real, so they share one complex transform Z of
    G rho + i J rho: F(G rho)_k = (Z_k + conj Z_{M-k}) / 2 and
    F(J rho)_k = (Z_k - conj Z_{M-k}) / 2i, and the result is
    c+ Z_k + c- conj Z_{M-k} with c+- = (-kappa^2 +- kappa) / 2, which
    vanish at k = 0.  On an even grid rho and Z come from transforms of
    half length (`_grid_1d`, `_packed_modes`).  `out` may pass the array of
    f's shape that the result is written to, which the returned field then
    holds."""
    ws = _workspace(problem, f)
    if out is None:
        out = np.empty_like(f.data)
    if ws.products is not None:
        vbar = _consensus_at(problem, ws, f)
        terms = iter(_affine_combine(ws.products(f.data), vbar))
    else:
        rho = (_grid_1d(ws, f.data) if f.dim == 1
               else _synthesize(f.data, f.grid, cols=ws.cols))
        vbar = _consensus_at(problem, ws, f, rho)
        if f.dim == 1:
            g, j = ws.coefficients(vbar)
            packed = ws.packed
            np.multiply(g, rho, out=packed.real)
            np.multiply(j, rho, out=packed.imag)
            # modes 0..K, and M-1 .. M-K: the mirrors of k = 1..K
            head, tail = _packed_modes(ws, out)
            c_plus, c_minus = ws.packing
            np.multiply(c_plus, head, out=out)
            mirror = np.conjugate(tail, out=ws.mirror)
            out[1:] += np.multiply(c_minus[1:], mirror, out=mirror)
            return f.like(out), vbar
        terms = (_project(w * rho, f.modes) for w in ws.coefficients(vbar))
    np.multiply(ws.laplacian, next(terms), out=out)          # -|k|^2 F(G rho)
    for ik, fj in zip(ws.ikappa, terms):
        out += np.multiply(ik, fj, out=fj)                   # i k_j F(J_j rho)
    return f.like(out), vbar


# the right-hand side of the one equation; `step` looks it up at call time
rhs = cbo_divergence_rhs


# ---------------------------------------------------------------------------
# stability bound and time steppers


def spectral_radius_bound(f: SpectralField, problem: PDEProblem,
                          vbar: np.ndarray) -> float:
    """max_grid(G_trunc) * |kappa_max|^2 at f's consensus point vbar, the
    explicit-stability yardstick."""
    return (_workspace(problem, f).g_max(vbar)
            * f.dim * (np.pi * f.modes / f.box) ** 2)


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
    beta = (w0 + 1.0) * ddtj[s] / dtj[s]
    return w0, w1, b, a, beta


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


def _rkc_step(rhs_fn, f, f0, problem, dt, s, slots):
    """One step of the s-stage scheme for the right-hand side
    `rhs_fn(field, problem, out=array)`, which returns the pair (field,
    point), from f and its first stage F_0 = f0, which `slots[0]` holds.

    The step runs on six arrays of f's shape, the first axis of `slots`:
    F_0, F_j, one product buffer and three stages that rotate, y_j in slot
    j mod 3, so no stage is copied; y_0 is f.data, which is only read.
    Each stage is combined in place,

        y_j = (1 - mu - nu) y_0 + mu y_{j-1} + nu y_{j-2}
              + (mu~ dt) F_j + (gamma~ dt) F_0,

    one product at a time, added left to right: every floating-point
    operation of the expression, in its order, so the bits are those of
    the expression evaluated with fresh arrays.  The returned field owns a
    copy of y_s.
    """
    w0, w1, b, a, _ = _rkc_coefficients(s)
    _, fj_out, term, *ring = slots
    stages = [f.like(y) for y in ring]
    y0 = f.data
    mu1 = b[1] * w1
    np.add(y0, np.multiply(mu1 * dt, f0, out=ring[1]), out=ring[1])
    for j in range(2, s + 1):
        mu = 2.0 * b[j] * w0 / b[j - 1]
        nu = -b[j] / b[j - 2]
        mut = mu * w1 / w0
        gat = -a[j - 1] * mut
        fj = rhs_fn(stages[(j - 1) % 3], problem, out=fj_out)[0].data
        yjm1, yjm2 = ring[(j - 1) % 3], y0 if j == 2 else ring[(j - 2) % 3]
        ynew = np.multiply(1.0 - mu - nu, y0, out=ring[j % 3])
        ynew += np.multiply(mu, yjm1, out=term)
        ynew += np.multiply(nu, yjm2, out=term)
        ynew += np.multiply(mut * dt, fj, out=term)
        ynew += np.multiply(gat * dt, f0, out=term)
    return f.like(ring[s % 3].copy())


def step(f: SpectralField, problem: PDEProblem, dt: float):
    """Advance one Runge-Kutta-Chebyshev step: the pair (next field, f's
    consensus point).  The first stage runs first and reads the point;
    the stage count is then raised until the stability interval covers dt
    times the spectral-radius estimate at that point.  The stages run on
    the layout's stage slots and call the module's `rhs` once each."""
    slots = _workspace(problem, f).slots
    f0, vbar = rhs(f, problem, out=slots[0])
    s = rkc_stages_for(dt, spectral_radius_bound(f, problem, vbar))
    return _rkc_step(rhs, f, f0.data, problem, dt, s, slots), vbar


# ---------------------------------------------------------------------------
# initial data and probes


def project_initial(sampler: Callable[[np.ndarray], np.ndarray],
                    problem: PDEProblem, dim: int, box: float,
                    modes: int, grid: int) -> SpectralField:
    """Sample a density, taper it to zero near the plateau radius, project.

    The taper multiplies by 1 - step(|v| - n) with n the cutoff's plateau
    scale, which is a no-op whenever the sampler's support stays inside
    radius n; it exists so active-cutoff runs start from periodic data.
    """
    pts = _grid_points(box, grid, dim)
    values = np.asarray(sampler(pts), dtype=float)
    taper = problem.cutoff.taper(np.linalg.norm(pts, axis=-1))
    return SpectralField.from_grid(values * taper, box, modes)


_TIE_ULPS = 16


def positivity_probe(f: SpectralField, v_alpha, r_exclude: float,
                     r_outer: float):
    """Minimum of the raw density over the grid points whose distance to
    the consensus point lies in [r_exclude, r_outer].

    Returns (min value, location); an annulus without a grid point is a
    DomainError.  Values are not clamped: a negative minimum reports the
    solver's ringing floor honestly.  The location is the lexicographically
    smallest grid point whose value lies within `_TIE_ULPS` ulps of the
    grid's largest |value| (the scale of the synthesis' rounding) of the
    minimum, so points tied by a symmetry report one fixed point however
    rounding breaks the tie.
    """
    pts = f.grid_points()
    dist = np.linalg.norm(pts - np.asarray(v_alpha, dtype=float), axis=-1)
    sel = (dist >= r_exclude) & (dist <= r_outer)
    if not np.any(sel):
        raise DomainError("annulus contains no grid points")
    grid = f.grid_values()
    vals, pts = grid[sel], pts[sel]
    low = np.min(vals)
    ties = pts[vals <= low + _TIE_ULPS * np.spacing(np.max(np.abs(grid)))]
    return float(low), ties[np.lexsort(ties.T[::-1])[0]]


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


# ---------------------------------------------------------------------------
# evolution driver


@dataclass
class EvolveResult:
    times: np.ndarray
    mass_series: np.ndarray
    valpha_series: np.ndarray               # (n_records, d)
    observed: dict
    snapshots: list
    final: SpectralField
    wall_time: float


def evolve(f: SpectralField, problem: PDEProblem, horizon: float, dt: float,
           record_every: int = 1, snapshot_times=(), observers=None) -> EvolveResult:
    """March the field to the horizon, recording cheap diagnostics.

    Mass, read off the k=0 coefficient, and the consensus point are
    recorded at every recording step; the point of a field is the one that
    its step returns, so it is read once, and only the final field, from
    which no step is taken, reads its own.
    `observers` maps names to callables field -> float evaluated at
    recording steps; `snapshot_times` are rounded to the nearest step and
    the field copied.  Arguments that cannot be honoured raise
    `ConfigurationError` whose message starts with the argument's name:
    dt or horizon not positive, record_every below 1, a snapshot time that
    is not a number in [0, horizon], or two that round to one step.
    """
    import time as _time

    n_steps, dt = time_grid(horizon, dt)
    if record_every < 1:
        raise ConfigurationError(f"record_every: need at least 1, got {record_every}")
    snap_steps = {}
    for ts in snapshot_times:
        if not (isinstance(ts, numbers.Real) and 0.0 <= ts <= horizon):
            raise ConfigurationError(
                f"snapshot_times: {ts!r} is not a time in [0, {horizon}]")
        k = int(round(ts / dt))
        if k in snap_steps:
            raise ConfigurationError(
                f"snapshot_times: {snap_steps[k]} and {ts} both round to "
                f"step {k} of dt = {dt:g}")
        snap_steps[k] = ts
    observers = observers or {}

    times, masses, vbars = [], [], []
    observed = {name: [] for name in observers}
    snapshots = []
    t0 = _time.perf_counter()

    def record(k, fld, vbar):
        times.append(k * dt)
        masses.append(fld.mass())
        vbars.append(vbar)
        for name, fn in observers.items():
            observed[name].append(fn(fld))
        if k in snap_steps:
            snapshots.append((k * dt, fld.copy()))

    for k in range(n_steps):
        nxt, vbar = step(f, problem, dt)
        if k % record_every == 0 or k in snap_steps:
            record(k, f, vbar)
        f = nxt
    record(n_steps, f, _consensus_at(problem, _workspace(problem, f), f))

    return EvolveResult(
        times=np.asarray(times),
        mass_series=np.asarray(masses),
        valpha_series=np.asarray(vbars),
        observed={k: np.asarray(v) for k, v in observed.items()},
        snapshots=snapshots,
        final=f,
        wall_time=_time.perf_counter() - t0,
    )

