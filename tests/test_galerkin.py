import collections
import gc
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

import cbolab.galerkin as spectral
import reference
from cbolab.consensus import (DomainError, NumericalBreakdownError,
                              density_consensus, gibbs_box)
from cbolab.config import load_config
from cbolab.cutoffs import (CoefficientField, CutoffSpec, cbo_coefficients,
                            truncated_G, truncated_J, truncation_geometry)
from cbolab.experiments import _build_problem, _initial_field
from cbolab.objectives import builtin_objective
from cbolab.galerkin import (PDEProblem, SpectralField, cbo_divergence_rhs,
                             confinement_probe_1d, evolve,
                             positivity_probe, project_initial, rhs,
                             rkc_interval, rkc_stages_for,
                             spectral_radius_bound)
from cbolab.objectives import ConfigurationError

# a cutoff placed far outside every box used here: the raw equation
WIDE = CutoffSpec(shell_radius=1e6, plateau_scale=1e7)
# shell from radius 2 and plateau roll-off from 4.5: active on a box of 6
ACTIVE = CutoffSpec(shell_radius=3.0, plateau_scale=0.5)
QUAD = builtin_objective("quadratic")
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _axis(box, m):
    return -box + 2 * box * np.arange(m) / m


def _gather(full, modes):
    """Retained block of a full rfft-layout array."""
    if full.ndim == 1:
        return full[:modes + 1]
    m = full.shape[0]
    return np.concatenate([full[:modes + 1, :modes + 1],
                           full[m - modes:, :modes + 1]])


def _const_problem(dim, g_value, j_value=0.0, source=None):
    """The gradient form of the reference with constant G and J."""
    coeffs = CoefficientField(
        G=lambda p: np.full(np.shape(p)[:-1], g_value),
        J=lambda p: np.full(np.shape(p), j_value))
    return reference.GeneralProblem(form="gradient", coefficients=coeffs,
                                    cutoff=WIDE, source=source)


def test_mass_examples():
    f = SpectralField.from_grid(np.full((64, 64), 0.7), box=4.0, modes=8)
    assert f.mass() == pytest.approx(0.7 * 8.0**2, rel=1e-13)
    z = SpectralField.zeros(2, 4.0, 8, 64)
    assert z.mass() == 0.0


def test_grid_shape_guard():
    # a field reads d and K off its block, so the guard refuses a block of
    # an unsupported dimension, a 2-D block that is not (2K+1, K+1), and a
    # grid below 4K, each by its own message
    with pytest.raises(ConfigurationError, match="at least 4K=80"):
        SpectralField.zeros(2, 4.0, 20, 64)
    with pytest.raises(ConfigurationError, match="dim must be 1 or 2, got 3"):
        SpectralField.zeros(3, 4.0, 4, 16)
    with pytest.raises(ConfigurationError, match="dim must be 1 or 2, got 3"):
        SpectralField(4.0, 16, np.zeros((9, 9, 5), dtype=complex))
    with pytest.raises(ConfigurationError, match="dim must be 1 or 2, got 0"):
        SpectralField(4.0, 16, np.zeros((), dtype=complex))   # no K to read
    with pytest.raises(ConfigurationError, match="not the retained block"):
        SpectralField(4.0, 16, np.zeros((8, 5), dtype=complex))   # 2K rows
    with pytest.raises(ConfigurationError, match="at least 4K=20"):
        SpectralField(4.0, 16, np.zeros(6, dtype=complex))        # K = 5
    # `like` keeps the box and grid and takes d and K from its block
    f = SpectralField.zeros(2, 4.0, 4, 16)
    g = f.like(np.ones(3, dtype=complex))
    assert (g.box, g.grid, g.dim, g.modes) == (4.0, 16, 1, 2)
    assert (f.dim, f.modes) == (2, 4)
    with pytest.raises(ConfigurationError, match="at least 4K=20"):
        f.like(np.zeros(6, dtype=complex))


@pytest.mark.parametrize("dim", [1, 2])
def test_compact_layout_round_trip(dim):
    box, k, m = 4.0, 8, 40
    rng = np.random.default_rng(7)
    values = rng.normal(size=(m,) * dim)
    f = SpectralField.from_grid(values, box, k)
    full = sfft.rfftn(values)
    if dim == 1:
        assert f.data.shape == (k + 1,)
        assert np.array_equal(f.data, full[:k + 1])
    else:
        # rows k1 = 0..K, -K..-1 and columns k2 = 0..K of the rfft layout
        assert f.data.shape == (2 * k + 1, k + 1)
        assert np.array_equal(f.data[:k + 1], full[:k + 1, :k + 1])
        assert np.array_equal(f.data[k + 1:], full[m - k:, :k + 1])
    again = SpectralField.from_grid(f.grid_values(), box, k)
    assert np.allclose(again.data, f.data, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(f.data)))
    # the uncompacted layout: in 2D its M rows are not 2K'+1 for the K' =
    # M/2 its K'+1 columns give; in 1D its M/2+1 entries are the valid
    # block of K' = M/2, which only M >= 4K' refuses
    message = "at least 4K=80" if dim == 1 else "not the retained block"
    with pytest.raises(ConfigurationError, match=message):
        SpectralField(box, m, full)


@pytest.mark.parametrize("dim,k,m", [
    (1, 8, 40), (1, 5, 23), (1, 1792, 7168),
    (2, 8, 40), (2, 5, 21), (2, 64, 256)])
def test_pruned_transforms_equal_full_real_transforms(dim, k, m):
    # the axis-by-axis transforms skip the discarded modes, but must give
    # the bits of the full n-D real transforms, odd grids included
    rng = np.random.default_rng(m)
    values = rng.normal(size=(m,) * dim)
    f = SpectralField.from_grid(values, 3.0, k)
    assert np.array_equal(f.data, _gather(sfft.rfftn(values), k))
    full = np.zeros(sfft.rfftn(values).shape, dtype=complex)
    if dim == 1:
        full[:k + 1] = f.data
    else:
        full[:k + 1, :k + 1] = f.data[:k + 1]
        full[m - k:, :k + 1] = f.data[k + 1:]
    assert np.array_equal(f.grid_values(), sfft.irfftn(full, s=(m,) * dim))


def _bump_field(dim, box, k, m, center):
    x = _axis(box, m)
    pts = np.stack(np.meshgrid(*([x] * dim), indexing="ij"), axis=-1)
    vals = np.exp(-np.sum(np.square(pts - center[:dim]), axis=-1) / 0.6)
    f = SpectralField.from_grid(vals, box, k)
    f.data /= f.mass()
    return f


def _rhs_and_oracle(dim, mode, spec, k, m):
    """`rhs` and `reference.conservation_rhs` of a bump on [-6, 6]^dim at a
    frozen point or at the bump's own Gibbs consensus."""
    f = _bump_field(dim, 6.0, k, m, np.array([1.0, 0.5]))
    if mode == "self_consistent":
        prob = PDEProblem(cutoff=spec, objective=QUAD, alpha=3.0)
        gibbs = gibbs_box(QUAD, 3.0, [f.axis_points()] * dim)
        vbar = density_consensus(gibbs, f.grid_values().__getitem__,
                                 spectral._sample_bound(f), f.data.flat[0].real)
    else:
        vbar = np.array([0.4, -0.3])[:dim]
        prob = PDEProblem(cutoff=spec, valpha=vbar)
    return rhs(f, prob)[0].data, reference.conservation_rhs(f, prob, vbar).data


@pytest.mark.parametrize("dim,mode,spec", [
    (2, "self_consistent", WIDE), (2, "frozen", ACTIVE), (1, "frozen", ACTIVE),
    (1, "self_consistent", WIDE), (2, "frozen", WIDE)])
def test_divergence_kernel_matches_direct_grid_assembly(dim, mode, spec):
    # the mode-space route (2-D, WIDE) and the grid route (the rest)
    fast, direct = _rhs_and_oracle(dim, mode, spec, 16, 64)
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert fast.flat[0] == 0.0          # k = 0: mass is conserved exactly


@pytest.mark.parametrize("k,m,mode,spec", [
    (48, 192, "frozen", ACTIVE), (24, 96, "self_consistent", WIDE),
    (13, 55, "frozen", ACTIVE), (20, 90, "frozen", ACTIVE),
    (20, 90, "self_consistent", WIDE)])
def test_packed_1d_transform_matches_one_transform_per_product(k, m, mode,
                                                                spec):
    # the 1-D route transforms G rho + i J rho at once; the oracle projects
    # each real product on its own.  ACTIVE truncates on the box.  An even
    # grid runs both transforms at half length H = M / 2: at M = 4K the
    # modes K and -K share an entry of the synthesis, at M = 90 > 4K none
    # does, and M = 55 is odd
    got, want = _rhs_and_oracle(1, mode, spec, k, m)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))
    assert got[0] == 0                  # k = 0: mass is conserved exactly


AXIS_LAYOUTS = [(4, 16, 1.0), (8, 33, 3.0), (16, 67, 6.0), (64, 256, 8.0)]


@pytest.mark.parametrize("k,m,box", AXIS_LAYOUTS)
def test_axis_products_match_grid_products(k, m, box):
    # the mode-space operators give the transforms of rho times |x|^2, x_1
    # and x_2 that the grid route computes, odd and non-power-of-two M too
    rng = np.random.default_rng(m)
    block = spectral._project(rng.normal(size=(m, m)), k)
    got = spectral._AxisProducts(SpectralField(box, m, block))(block)
    x1, x2 = np.meshgrid(_axis(box, m), _axis(box, m), indexing="ij")
    rho = spectral._synthesize(block, m)
    for prod, w in zip(got, (x1**2 + x2**2, x1, x2)):
        want = spectral._project(w * rho, k)
        assert np.max(np.abs(prod - want)) <= 1e-13 * np.max(np.abs(want))
        # the k2 = 0 column of a real field's transform stays Hermitian
        col = prod[:, 0]
        mirror = np.r_[0, 2 * k:0:-1]                # row of -k1
        assert (np.max(np.abs(col[mirror] - np.conj(col)))
                <= 1e-15 * np.max(np.abs(col)))
    assert np.array_equal(got[3], block)


@pytest.mark.parametrize("k,m,box", AXIS_LAYOUTS)
def test_axis_weight_dft_structure(k, m, box):
    # DFT(x) / M is -L/M + i (L/M) cot(pi m / M) and DFT(x^2) is real; the
    # operators keep only those parts, so what they drop must be rounding
    x = _axis(box, m)
    xh = np.fft.fft(x) / m
    assert np.max(np.abs(xh.real + box / m)) <= 1e-14 * box**2
    assert np.max(np.abs(np.fft.fft(x * x).imag / m)) <= 1e-14 * box**2
    cot = box / m / np.tan(np.pi * np.arange(1, m) / m)
    assert np.allclose(xh.imag[1:], cot, rtol=0.0, atol=1e-13 * box)


def _config_workspace(name, **sets):
    cfg = load_config(str(CONFIGS / name),
                      [f"{key}={value}" for key, value in sets.items()])
    p = cfg["pde"]
    f = SpectralField.zeros(len(p["init_center"]), p["L"], p["K"], p["M"])
    return spectral._workspace(_build_problem(cfg), f)


def test_mode_space_products_dispatch():
    # the shipped 2-D self-consistent configs take the mode-space products;
    # 1-D layouts and active truncations take the grid products
    for name in ("pde-run.json", "positivity.json"):
        assert _config_workspace(name).products is not None
    assert _config_workspace("confinement-1d.json").products is None
    for dim, spec in ((1, WIDE), (1, ACTIVE), (2, WIDE), (2, ACTIVE)):
        prob = PDEProblem(cutoff=spec, valpha=np.zeros(dim))
        ws = spectral._workspace(prob, SpectralField.zeros(dim, 6.0, 8, 32))
        assert (ws.products is not None) == (dim == 2 and spec is WIDE)


def test_affine_workspace_keeps_no_point_grids(monkeypatch):
    # a mode-space layout reads only its operators and its Gibbs weight
    # box after set-up, not quadrature rows over the grid, and its route is
    # read off radii built from the axis, so it keeps no point grid and
    # builds no truncation geometry (set-up still evaluates the objective
    # and the initial bump once on the full grid); the active truncation of
    # confinement-1d re-truncates on the points
    calls = []

    def counted(*args):
        calls.append(args)
        return truncation_geometry(*args)

    monkeypatch.setattr(spectral, "truncation_geometry", counted)
    ws = _config_workspace("pde-run.json")
    assert ws.products is not None
    assert ws.points is None and ws.geometry is None
    assert len(calls) == 0
    ws = _config_workspace("confinement-1d.json")
    assert ws.products is None
    assert ws.points is not None and ws.geometry is not None
    assert len(calls) == 1


@pytest.mark.parametrize("k,m", [(5, 21), (64, 256)])
def test_synthesized_rows_are_rows_of_the_grid(k, m):
    # a 2-D consensus makes one column pass, through a reused buffer, and
    # synthesizes only the rows of its weight core or box from it: they
    # are the bits of the full synthesis
    rng = np.random.default_rng(m)
    f = SpectralField.from_grid(rng.normal(size=(m, m)), 3.0, k)
    full = f.grid_values()
    cols = np.zeros((m, k + 1), dtype=complex)
    for rows in (slice(3, m - 4), slice(0, 1), slice(None)):
        half = spectral._column_pass(f.data, m, cols)
        assert np.array_equal(spectral._row_pass(half[rows], m), full[rows])


@pytest.mark.parametrize("k,m", [(16, 64), (20, 90), (1792, 7168)])
def test_half_length_synthesis_is_the_irfft_to_rounding(k, m):
    # an even 1-D grid synthesizes rho from one transform of length M / 2,
    # into the layout's buffer; like irfft it reads only Re c_0
    rng = np.random.default_rng(m)
    f = SpectralField.from_grid(rng.normal(size=m), 3.0, k)
    f.data[0] += 0.25j
    ws = spectral._workspace(PDEProblem(cutoff=WIDE, valpha=[0.0]), f)
    got = spectral._grid_1d(ws, f.data)
    want = f.grid_values()
    assert got is ws.rho
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim,k,m", [(1, 5, 21), (2, 5, 21), (2, 64, 256)])
def test_grid_rows_are_the_grid_values(dim, k, m):
    # a snapshot synthesizes its grid one row at a time, in the same bits
    rng = np.random.default_rng(m + dim)
    f = SpectralField.from_grid(rng.normal(size=(m,) * dim), 3.0, k)
    rows = np.stack(list(f.grid_rows()))
    assert np.array_equal(rows.reshape((m,) * dim), f.grid_values())


def _ridge_field(dim, level):
    """level - cos(pi x_1 / 6) - 0.05 sin(pi x_1 / 6) on [-6, 6)^dim, K = 16,
    M = 64: one mode, so the grid holds it to rounding.  Its samples are
    negative where |x_1| is small and positive beyond, further out on the
    right than on the left."""
    x = _axis(6.0, 64)
    pts = np.stack(np.meshgrid(*([x] * dim), indexing="ij"), axis=-1)
    phase = np.pi * pts[..., 0] / 6.0
    return SpectralField.from_grid(
        level - np.cos(phase) - 0.05 * np.sin(phase), 6.0, 16)


def _counted_consensus(monkeypatch):
    """Record, per `density_consensus` call, the boxes whose samples it
    asked for: the core, then the support box on a fallback."""
    calls = []

    def counted(box, samples, bound, total):
        asked = []
        calls.append(asked)

        def sampler(index):
            asked.append("core" if index == box.core.index else "box")
            return samples(index)

        return density_consensus(box, sampler, bound, total)

    monkeypatch.setattr(spectral, "density_consensus", counted)
    return calls


@pytest.mark.parametrize("dim,branch", [
    (1, "core"), (2, "core"), (1, "box"), (2, "box")],
    ids=["1", "2", "1-box", "2-box"])
def test_self_consistent_consensus_matches_dense_rows(monkeypatch, dim,
                                                      branch):
    # oracle: the dense quadrature of the whole synthesized grid, on a
    # field whose clamp fraction lies in (0, 0.5).  The bump is certified
    # on the core of the weight box; the ridge has no positive sample on
    # the core (|x_j| <= 1.216 at alpha = 60), so the consensus falls back
    # to the support box (|x_j| <= 3.52)
    if branch == "core":
        f = _bump_field(dim, 6.0, 16, 64, np.array([1.0, 0.5]))
        f.data.flat[0] *= 0.5           # lowers every sample by a constant
    else:
        f = _ridge_field(dim, 0.77)
    prob = PDEProblem(cutoff=WIDE, objective=QUAD, alpha=60.0)
    ws = spectral._workspace(prob, f)
    assert ws.gibbs.weights.size < f.grid ** dim
    assert ws.gibbs.core.weights.size < ws.gibbs.weights.size
    want, clamped = reference.dense_density_consensus(
        reference.gibbs_rows(prob.objective, 60.0, f.grid_points()),
        f.grid_values())
    assert 0.0 < clamped < 0.5
    calls = _counted_consensus(monkeypatch)
    got = spectral._consensus_at(prob, ws, f)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert calls == [["core"] if branch == "core" else ["core", "box"]]


@pytest.mark.parametrize("dim", [1, 2])
def test_no_positive_density_on_the_support_box_breaks_down(dim):
    # at alpha = 200 the weights underflow beyond |x_j| = 1.93, where the
    # ridge is negative: the mass is positive, but no sample that a weight
    # reaches is, on the core or on the box
    f = _ridge_field(dim, 0.5)
    assert f.mass() > 0.0
    prob = PDEProblem(cutoff=WIDE, objective=QUAD, alpha=200.0)
    ws = spectral._workspace(prob, f)
    assert np.all(f.grid_values()[ws.gibbs.index] < 0.0)
    with pytest.raises(NumericalBreakdownError, match="no positive density"):
        spectral._consensus_at(prob, ws, f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 5, 21), (1, 16, 64), (2, 5, 21), (2, 8, 32)]),
       st.integers(0, 2**31 - 1), st.floats(0.0, 1.0), st.floats(-30.0, 30.0))
def test_sample_bound_bounds_the_grid_values(layout, seed, density, exponent):
    # a sparse block may meet the bound: one real mode k >= 1 peaks at
    # 2 |c| / M^d on a grid point, so the samples may pass it by rounding
    dim, k, m = layout
    rng = np.random.default_rng(seed)
    shape = spectral._block_shape(dim, k)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data *= (rng.random(shape) < density) * 10.0**exponent
    f = SpectralField(3.0, m, data)
    bound = spectral._sample_bound(f)
    assert np.max(np.abs(f.grid_values())) <= bound * (1.0 + 1e-13)


def test_pde_run_consensus_is_read_on_the_core(monkeypatch):
    # pde-run's layout at K = 16, M = 64 (the golden mode-space run): the
    # weights' support box is 49 x 49 grid points and their core 17 x 17.
    # The consensus of the initial field, of every stage of one step and of
    # the field after it is certified on the core, so the synthesis makes
    # only the core's rows
    cfg = load_config(str(CONFIGS / "pde-run.json"), ["pde.K=16", "pde.M=64"])
    prob = _build_problem(cfg)
    f = _initial_field(cfg, prob)
    ws = spectral._workspace(prob, f)
    assert ws.products is not None
    assert ws.gibbs.weights.shape == (49, 49)
    assert ws.gibbs.core.weights.shape == (17, 17)
    rows = []
    row_pass = spectral._row_pass

    def counted(half, grid):
        rows.append(len(half))
        return row_pass(half, grid)

    monkeypatch.setattr(spectral, "_row_pass", counted)
    calls = _counted_consensus(monkeypatch)
    f, _ = spectral.step(f, prob, cfg["pde"]["dt"])
    spectral._consensus_at(prob, ws, f)
    assert len(rows) >= 3 and set(rows) == {17}
    assert calls and all(asked == ["core"] for asked in calls)


def test_mass_guard_is_the_clamp_rule():
    # a field of negative mass clamps more than half of its absolute mass
    f = _bump_field(2, 6.0, 16, 64, np.array([1.0, 0.5]))
    prob = PDEProblem(cutoff=WIDE, objective=QUAD, alpha=3.0)
    ws = spectral._workspace(prob, f)
    g = f.copy()
    g.data.flat[0] = -0.01 * abs(g.data.flat[0])
    with pytest.raises(reference.NumericalBreakdownError):
        reference.dense_density_consensus(
            reference.gibbs_rows(QUAD, 3.0, g.grid_points()), g.grid_values())
    with pytest.raises(NumericalBreakdownError, match="mass is negative"):
        spectral._consensus_at(prob, ws, g)
    with pytest.raises(NumericalBreakdownError, match="mass is negative"):
        rhs(g, prob)


def test_single_mode_projection():
    box, k0, m = 5.0, 3, 64
    x = _axis(box, m)
    f = SpectralField.from_grid(np.cos(np.pi * k0 * x / box), box, 8)
    c = f.coefficients
    center = len(c) // 2
    assert c[center + k0] == pytest.approx(0.5, abs=1e-14)
    assert c[center - k0] == pytest.approx(0.5, abs=1e-14)
    others = np.delete(c, [center - k0, center + k0])
    assert np.max(np.abs(others)) < 1e-14


def test_gaussian_projection_spectrally_accurate():
    box, m = 8.0, 192
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    g = np.exp(-((X - 1.0) ** 2 + (Y + 0.5) ** 2) / (2 * 0.6**2))
    f = SpectralField.from_grid(g, box, 48)
    assert np.max(np.abs(f.grid_values() - g)) < 1e-8


def test_spectral_convergence_under_mode_doubling():
    box, m = 8.0, 256
    x = _axis(box, m)
    g = np.exp(-x**2 / (2 * 0.4**2))
    errs = []
    for k in (16, 32, 64):
        f = SpectralField.from_grid(g, box, k)
        errs.append(np.max(np.abs(f.grid_values() - g)))
    # super-algebraic: each doubling gains far more than the 16x of a
    # fourth-order method
    assert errs[0] / errs[1] > 100
    assert errs[1] / errs[2] > 100


@pytest.mark.parametrize("dim", [1, 2])
def test_coefficients_are_the_direct_dft(dim):
    # c_k = M^-d sum_x rho(x) exp(-i pi k.x / L) over the grid, k = -K..K
    # per axis, at an M that is not 4K
    box, modes, m = 3.0, 4, 18
    rng = np.random.default_rng(dim)
    f = SpectralField.from_grid(rng.normal(size=(m,) * dim), box, modes)
    x, ks = _axis(box, m), np.arange(-modes, modes + 1)
    basis = np.exp(-1j * np.pi * np.outer(ks, x) / box) / m   # (2K+1, M)
    rho = f.grid_values()
    direct = basis @ rho if dim == 1 else basis @ rho @ basis.T
    assert np.allclose(f.coefficients, direct, rtol=0, atol=1e-13)


def test_conjugate_symmetry_of_coefficients():
    rng = np.random.default_rng(0)
    f = SpectralField.from_grid(rng.normal(size=(64, 64)), 4.0, 8)
    prob = PDEProblem(cutoff=WIDE, valpha=np.array([0.2, -0.1]))
    out = reference.rewritten_rhs(f, prob)
    c = out.coefficients
    assert np.allclose(c, np.conj(c[::-1, ::-1]), atol=1e-12)


def test_rhs_constant_field_gradient_form():
    prob = _const_problem(2, 2.0)
    f = SpectralField.from_grid(np.full((64, 64), 0.3), 4.0, 8)
    out = reference.rewritten_rhs(f, prob)
    assert np.allclose(out.grid_values(), 0.3, atol=1e-13)


def test_rhs_constant_field_cbo_form():
    prob = PDEProblem(cutoff=WIDE, valpha=np.zeros(2))
    f = SpectralField.from_grid(np.full((64, 64), 0.5), 4.0, 8)
    out = reference.rewritten_rhs(f, prob)
    assert np.allclose(out.grid_values(), 3 * 2 * 0.5, atol=1e-12)


def test_rhs_plane_wave_eigenvalue():
    box, k0, m = 4.0, (3, 5), 96
    prob = _const_problem(2, 2.0)
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    wave = np.cos(np.pi * (k0[0] * X + k0[1] * Y) / box)
    f = SpectralField.from_grid(wave, box, 16)
    out = reference.rewritten_rhs(f, prob)
    kappa_sq = (np.pi / box) ** 2 * (k0[0] ** 2 + k0[1] ** 2)
    assert np.allclose(out.grid_values(), (-2.0 * kappa_sq + 1.0) * wave,
                       atol=1e-10)


def test_rhs_manufactured_cancellation_keeps_field_fixed():
    # G = J = 0 and a frozen source g = -rho0: the rhs is rho - rho0,
    # which vanishes on the initial state and stays zero
    box, m, k = 4.0, 64, 8
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    rho0 = 0.4 + 0.1 * np.cos(np.pi * X / box) * np.cos(np.pi * Y / box)

    def source(p):
        return -(0.4 + 0.1 * np.cos(np.pi * p[..., 0] / box)
                 * np.cos(np.pi * p[..., 1] / box))

    prob = _const_problem(2, 0.0, source=source)
    f = SpectralField.from_grid(rho0, box, k)
    out = reference.rewritten_rhs(f, prob)
    assert np.max(np.abs(out.grid_values())) < 1e-12
    stepped = reference.rk4_step(f, prob, 0.01)
    assert np.max(np.abs(stepped.grid_values() - rho0)) < 1e-12


def test_rhs_linearity_frozen_path():
    prob = PDEProblem(cutoff=WIDE, valpha=np.array([0.3, 0.1]))
    rng = np.random.default_rng(3)
    f1 = SpectralField.from_grid(rng.normal(size=(96, 96)), 6.0, 16)
    f2 = SpectralField.from_grid(rng.normal(size=(96, 96)), 6.0, 16)
    combo = f1.like(0.7 * f1.data - 1.3 * f2.data)
    lhs = reference.rewritten_rhs(combo, prob).data
    rhs_sum = (0.7 * reference.rewritten_rhs(f1, prob).data
               - 1.3 * reference.rewritten_rhs(f2, prob).data)
    assert np.max(np.abs(lhs - rhs_sum)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_form_equivalence_on_smooth_fields():
    box, k, m = 8.0, 48, 192
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    rng = np.random.default_rng(42)
    for _ in range(3):
        cx, cy = rng.uniform(-1.2, 1.2, 2)
        s = rng.uniform(0.5, 0.7)
        grid = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s))
        f = SpectralField.from_grid(grid, box, k)
        vb = rng.uniform(-1, 1, 2)
        prob = PDEProblem(cutoff=WIDE, valpha=vb)
        a = reference.rewritten_rhs(f, prob).grid_values()
        b = cbo_divergence_rhs(f, prob)[0].grid_values()
        assert np.max(np.abs(a - b)) < 1e-8


def test_divergence_assembly_conserves_mass_exactly():
    prob = PDEProblem(cutoff=WIDE, valpha=np.array([0.5, 0.5]))
    rng = np.random.default_rng(1)
    f = SpectralField.from_grid(np.abs(rng.normal(size=(96, 96))), 6.0, 16)
    assert rhs(f, prob)[0].mass() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("form", ["gradient", "divergence", "cbo"])
def test_dense_matrix_oracle_matches_fast_path(form):
    box, k, m = 5.0, 4, 16
    x = _axis(box, m)
    coeffs = CoefficientField(
        G=lambda p: 2.0 + np.cos(np.pi * p[..., 0] / box),
        J=lambda p: (0.5 + 0.3 * np.sin(np.pi * p[..., 0] / box))[..., None])
    if form == "cbo":
        prob = PDEProblem(cutoff=WIDE, valpha=np.array([0.2]))
    else:
        prob = reference.GeneralProblem(
            form=form, coefficients=coeffs, cutoff=WIDE,
            source=lambda p: 0.2 * np.cos(2 * np.pi * p[..., 0] / box))
    vals = 0.3 + 0.1 * np.cos(np.pi * x / box) + 0.05 * np.sin(3 * np.pi * x / box)
    f = SpectralField.from_grid(vals, box, k)
    fast = reference.rewritten_rhs(f, prob).coefficients
    dense = reference.galerkin_matrix_rhs(f, prob)
    assert np.max(np.abs(fast - dense)) < 1e-10


def test_rk4_fourth_order_on_plane_wave():
    box, k0, k, m = 4.0, 3, 8, 32
    prob = _const_problem(1, 1.5)
    x = _axis(box, m)
    f0 = SpectralField.from_grid(np.cos(np.pi * k0 * x / box), box, k)
    lam = -1.5 * (np.pi * k0 / box) ** 2 + 1.0
    horizon = 0.05
    errs = []
    for n in (8, 16, 32):
        f = f0.copy()
        dt = horizon / n
        for _ in range(n):
            f = reference.rk4_step(f, prob, dt)
        exact = np.cos(np.pi * k0 * x / box) * np.exp(lam * horizon)
        errs.append(np.max(np.abs(f.grid_values() - exact)))
    assert 14.0 < errs[0] / errs[1] < 18.0
    assert 14.0 < errs[1] / errs[2] < 18.0


def test_rk4_single_step_local_error_fifth_order():
    box, k0 = 4.0, 3
    prob = _const_problem(1, 1.5)
    x = _axis(box, 32)
    f0 = SpectralField.from_grid(np.cos(np.pi * k0 * x / box), box, 8)
    lam = -1.5 * (np.pi * k0 / box) ** 2 + 1.0
    errors = []
    for dt in (2e-3, 1e-3):
        f = reference.rk4_step(f0.copy(), prob, dt)
        exact = np.cos(np.pi * k0 * x / box) * np.exp(lam * dt)
        errors.append(np.max(np.abs(f.grid_values() - exact)))
    assert errors[0] / errors[1] > 25.0   # ~2^5 for one step


def test_rk4_guard_refuses_unstable_step():
    prob = _const_problem(1, 10.0)
    f = SpectralField.zeros(1, 4.0, 16, 64)
    limit = reference._RK4_CFL / reference.spectral_radius_bound(f, prob)
    with pytest.raises(ConfigurationError):
        reference.rk4_step(f, prob, 1.5 * limit)
    reference.rk4_step(f, prob, 0.9 * limit)


@pytest.mark.parametrize("spec", [WIDE, ACTIVE], ids=["wide", "active"])
@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_radius_bound_value(dim, spec):
    # max over the grid of the truncated G, times d |kappa_max|^2, on the
    # mode-space route (2-D, WIDE) and on the grid route
    prob = PDEProblem(cutoff=spec, valpha=np.array([0.3, -0.7])[:dim])
    f = SpectralField.zeros(dim, 4.0, 16, 64)
    expected = reference.spectral_radius_bound(f, prob)
    assert (spectral_radius_bound(f, prob, prob.valpha)
            == pytest.approx(expected, rel=1e-12))


def test_rkc_stability_polynomial_and_interval():
    for s in (5, 13, 24):
        beta = rkc_interval(s)
        assert beta > 0.6 * s**2
        w0, w1, b, a, _ = spectral._rkc_coefficients(s)
        for z in np.linspace(-beta, 0.0, 1501):
            y0, f0 = 1.0, z
            yjm1, yjm2 = y0 + b[1] * w1 * f0, y0
            for j in range(2, s + 1):
                mu = 2 * b[j] * w0 / b[j - 1]
                nu = -b[j] / b[j - 2]
                mut = mu * w1 / w0
                gat = -a[j - 1] * mut
                ynew = ((1 - mu - nu) * y0 + mu * yjm1 + nu * yjm2
                        + mut * z * yjm1 + gat * f0)
                yjm2, yjm1 = yjm1, ynew
            assert abs(yjm1) <= 1.0 + 1e-10


def test_rkc_stage_count_covers_requested_step():
    lam = 2.5e5
    for dt in (1e-4, 1e-3, 5e-3):
        s = rkc_stages_for(dt, lam)
        assert rkc_interval(s) >= dt * lam
        assert s <= rkc_stages_for(dt, lam * 4)


def test_rkc_second_order_on_plane_wave():
    # the production RKC stepper driven by the reference gradient form,
    # whose plane wave decays exactly
    box, k0 = 4.0, 2
    prob = _const_problem(1, 1.0)
    x = _axis(box, 64)
    f0 = SpectralField.from_grid(np.cos(np.pi * k0 * x / box), box, 16)
    lam = -1.0 * (np.pi * k0 / box) ** 2 + 1.0
    horizon = 0.4
    errs = []

    def paired(g, problem, out=None):
        # the stepper's protocol: the right-hand side and a consensus point
        return reference.rewritten_rhs(g, problem, out=out), None

    for n in (10, 20, 40):
        f = f0.copy()
        dt = horizon / n
        # pin the stage count so only dt varies between refinement levels
        assert rkc_interval(10) >= dt * reference.spectral_radius_bound(f, prob)
        slots = np.empty((6,) + f.data.shape, dtype=complex)
        for _ in range(n):
            first = paired(f, prob, out=slots[0])[0].data
            f = spectral._rkc_step(paired, f, first, prob, dt, 10, slots)
        exact = np.cos(np.pi * k0 * x / box) * np.exp(lam * horizon)
        errs.append(np.max(np.abs(f.grid_values() - exact)))
    assert 3.2 < errs[0] / errs[1] < 5.0
    assert 3.2 < errs[1] / errs[2] < 5.0


# the four stage routes: 1-D grid products with an active truncation (the
# confinement-1d route) and self-consistent; 2-D mode-space products with
# the truncation inactive, and 2-D grid products with it active
STAGE_LAYOUTS = {
    "1d-frozen-active": (1, lambda: PDEProblem(cutoff=ACTIVE, valpha=[0.3])),
    "1d-self-consistent": (1, lambda: PDEProblem(cutoff=WIDE, objective=QUAD,
                                                 alpha=3.0)),
    "2d-products": (2, lambda: PDEProblem(cutoff=WIDE, objective=QUAD,
                                          alpha=3.0)),
    "2d-active": (2, lambda: PDEProblem(cutoff=ACTIVE, objective=QUAD,
                                        alpha=3.0)),
}


def _stage_count(f, prob, dt):
    """The stage count of the step from f, sized at the consensus point
    that its first stage reads."""
    return rkc_stages_for(dt, spectral_radius_bound(f, prob, rhs(f, prob)[1]))


@pytest.mark.parametrize("layout", sorted(STAGE_LAYOUTS))
def test_in_place_stages_are_the_allocating_bits(layout):
    # oracle: the RKC step with a fresh array for every stage and term
    dim, make = STAGE_LAYOUTS[layout]
    prob = make()
    f = _bump_field(dim, 6.0, 16, 64, np.array([1.0, 0.5]))
    for _ in range(3):
        want = reference.rkc_step(rhs, f, prob, 0.01, _stage_count(f, prob, 0.01))
        f, _ = spectral.step(f, prob, 0.01)
        assert np.array_equal(f.data, want.data)


@pytest.mark.parametrize("layout", sorted(STAGE_LAYOUTS))
def test_a_step_result_survives_the_next_step(layout):
    # the stages run on slots that the next step reuses: a result must
    # not alias them
    dim, make = STAGE_LAYOUTS[layout]
    prob = make()
    first, _ = spectral.step(
        _bump_field(dim, 6.0, 16, 64, np.array([1.0, 0.5])), prob, 0.01)
    kept = first.data.copy()
    spectral.step(first, prob, 0.01)
    spectral.step(_bump_field(dim, 6.0, 16, 64, np.array([-0.5, 1.0])),
                  prob, 0.01)
    assert np.array_equal(first.data, kept)


@pytest.mark.parametrize("layout", ["1d-frozen-active", "2d-products"])
def test_a_step_calls_rhs_once_per_stage_with_out(monkeypatch, layout):
    # the benchmark counts stages as calls of the module-level `rhs`
    dim, make = STAGE_LAYOUTS[layout]
    prob = make()
    f = _bump_field(dim, 6.0, 16, 64, np.array([1.0, 0.5]))
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return cbo_divergence_rhs(*args, **kwargs)

    monkeypatch.setattr(spectral, "rhs", counted)
    spectral.step(f, prob, 0.01)
    assert len(calls) == _stage_count(f, prob, 0.01)
    assert all(kwargs.get("out") is not None for kwargs in calls)


def test_a_1d_stage_allocates_no_grid_array():
    # confinement-1d's route: every transform writes into the layout's
    # buffers, since a fresh transform output per stage costs page faults
    cfg = load_config(str(CONFIGS / "confinement-1d.json"),
                      ["pde.K=224", "pde.M=896"])
    prob = _build_problem(cfg)
    f = _bump_field(1, 56.0, 224, 896, np.array([-2.25]))
    out = np.empty_like(f.data)
    rhs(f, prob, out=out)               # the layout's set-up is not counted
    tracemalloc.start()
    try:
        rhs(f, prob, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 896 * 8


class _CountingFFT:
    """numpy.fft with a count of the calls of each transform."""

    def __init__(self):
        self.calls = collections.Counter()

    def __getattr__(self, name):
        transform = getattr(np.fft, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return transform(*args, **kwargs)
        return counted


@pytest.mark.parametrize("layout,calls", [
    ("1d-frozen-active", {"ifft": 1, "fft": 1}),
    ("1d-self-consistent", {"ifft": 1, "fft": 1}),
    ("2d-products", {"ifft": 1, "irfft": 1}),
    ("2d-active", {"ifft": 1, "irfft": 1, "rfft": 3, "fft": 3}),
    ("1d-frozen-active/M=67", {"irfft": 1, "fft": 1}),
])
def test_transforms_per_rhs(monkeypatch, layout, calls):
    # a 1-D rhs synthesizes rho and makes one complex transform of both
    # products, each at half length on an even grid (an odd one keeps the
    # M-point irfft); a 2-D rhs synthesizes the grid (mode space: the
    # consensus rows) and, on the grid route, projects each of its three
    # products.  The grid is M = 64 unless the layout names another
    name, _, grid = layout.partition("/M=")
    dim, make = STAGE_LAYOUTS[name]
    prob = make()
    f = _bump_field(dim, 6.0, 16, int(grid or 64), np.array([1.0, 0.5]))
    spectral._workspace(prob, f)        # set-up transforms are not counted
    counting = _CountingFFT()
    monkeypatch.setattr(spectral, "sfft", counting)
    rhs(f, prob)
    assert counting.calls == calls


def _pde_run_1d():
    cfg = load_config(str(CONFIGS / "pde-run.json"), [
        "pde.K=224", "pde.M=896", "pde.L=8", "pde.init_center=[2.0]"])
    prob = _build_problem(cfg)
    return _initial_field(cfg, prob), prob, cfg["pde"]["dt"]


def _2d_active():
    prob = STAGE_LAYOUTS["2d-active"][1]()
    return _bump_field(2, 6.0, 16, 64, np.array([1.0, 0.5])), prob, 0.01


@pytest.mark.parametrize("make,per_stage", [
    pytest.param(_pde_run_1d, {"ifft": 1, "fft": 1}, id="pde-run-1d"),
    pytest.param(_2d_active, {"ifft": 1, "irfft": 1, "rfft": 3, "fft": 3},
                 id="2d-active"),
])
def test_a_self_consistent_step_synthesizes_as_its_stages(monkeypatch, make,
                                                          per_stage):
    # on the grid route the first stage reads the step's consensus point
    # off the rho it synthesizes, so a step makes the transforms of its s
    # stages and no more: in 1D one half-length ifft and one fft per stage,
    # never an M-point irfft
    f, prob, dt = make()
    s = _stage_count(f, prob, dt)
    counting = _CountingFFT()
    monkeypatch.setattr(spectral, "sfft", counting)
    spectral.step(f, prob, dt)
    assert counting.calls == {name: s * n for name, n in per_stage.items()}


def test_project_initial_taper_inactive_inside():
    prob = PDEProblem(cutoff=CutoffSpec(5.0, 50.0), valpha=np.zeros(2))
    sampler = lambda p: np.exp(-np.sum(np.square(p - 1.0), axis=-1))
    f = project_initial(sampler, prob, 2, 8.0, 32, 128)
    direct = SpectralField.from_grid(sampler(f.grid_points()), 8.0, 32)
    assert np.allclose(f.data, direct.data)


def test_project_initial_taper_active_outside():
    # plateau scale inside the box: the taper must kill the far field;
    # comparison is against the analytically tapered sampler, so only the
    # mode-truncation ringing remains
    from cbolab.cutoffs import smooth_step
    prob = PDEProblem(cutoff=CutoffSpec(2.0, 3.0), valpha=np.zeros(1))
    sampler = lambda p: np.ones(p.shape[:-1])
    errs = []
    for k, m in ((32, 128), (64, 256), (128, 512)):
        f = project_initial(sampler, prob, 1, 8.0, k, m)
        x = f.axis_points()
        expected = 1.0 - smooth_step(np.abs(x) - 3.0)
        errs.append(np.max(np.abs(f.grid_values() - expected)))
    # the mollified taper is smooth, so the projection converges in K
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01
    vals = f.grid_values()
    assert np.all(np.abs(vals[np.abs(x) > 4.0]) < 0.01)
    assert np.all(np.abs(vals[np.abs(x) < 2.5] - 1.0) < 0.01)


def test_positivity_probe_constant_and_errors():
    f = SpectralField.from_grid(np.full((64, 64), 0.4), 4.0, 8)
    val, _ = positivity_probe(f, [0.0, 0.0], 0.5, 3.0)
    assert val == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(DomainError):
        positivity_probe(f, [0.0, 0.0], 3.0, 0.5)
    with pytest.raises(DomainError):
        # a sliver thinner than the grid spacing holds no grid points
        positivity_probe(f, [0.0, 0.0], 0.0101, 0.0102)


def test_positivity_probe_sees_empty_support():
    box, m = 8.0, 192
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    bump = np.exp(-((X - 2.0) ** 2 + (Y - 2.0) ** 2) / (2 * 0.5**2))
    f = SpectralField.from_grid(bump, box, 48)
    val, _ = positivity_probe(f, [2.0, 2.0], 3.0, 5.0)
    assert abs(val) < 1e-6      # support has not filled the annulus yet


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_positivity_probe_argmin_is_stable_under_rounding(sign):
    # 3 + cos(k(v1 + v2)) + cos(2k(v1 - v2)) is symmetric under v1 <-> v2
    # and takes its minimum 1 on the mirror points (3, 1) and (1, 3) of the
    # annulus; a rounding-level antisymmetric term lowers either one, and
    # the probe must still report the lexicographically smaller point
    box, m = 4.0, 32
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    k = np.pi / box
    rho = 3.0 + np.cos(k * (X + Y)) + np.cos(2 * k * (X - Y))
    delta = sign * 3 * np.spacing(5.0)
    f = SpectralField.from_grid(rho + delta * (np.cos(k * X) - np.cos(k * Y)),
                                box, 8)
    val, arg = positivity_probe(f, [2.0, 2.0], 0.5, 2.0)
    assert val == pytest.approx(1.0, abs=1e-13)
    assert arg.tolist() == [1.0, 3.0]


def test_confinement_probe_values():
    box, m = 8.0, 256
    x = _axis(box, m)
    sym = SpectralField.from_grid(np.exp(-x**2 / 0.5), box, 64)
    half = confinement_probe_1d(sym, 0.0) / sym.mass()
    assert half == pytest.approx(0.5, abs=1e-9)
    left = SpectralField.from_grid(np.exp(-(x + 4.0) ** 2 / (2 * 0.5**2)), box, 64)
    assert confinement_probe_1d(left, 0.0) < 1e-8
    with pytest.raises(DomainError):
        confinement_probe_1d(SpectralField.zeros(2, 4.0, 8, 32), 0.0)


def test_l2_energy_bounded_along_run():
    # no blow-up: the squared L2 norm along a short run stays under a mild
    # exponential envelope of its initial value
    prob = PDEProblem(cutoff=WIDE, valpha=np.zeros(2))
    box, m = 6.0, 96
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f0 = SpectralField.from_grid(np.exp(-((X - 1) ** 2 + Y**2) / 0.5), box, 24)
    f0.data /= f0.mass()
    res = evolve(f0, prob, horizon=0.1, dt=5e-3, record_every=4,
                 snapshot_times=[0.0, 0.05, 0.1])
    l2 = np.array([np.sum(f.grid_values() ** 2) * f.cell_volume
                   for _, f in res.snapshots])
    assert np.all(np.isfinite(l2))
    assert np.all(l2 > 0)
    envelope = l2[0] * np.exp(20.0 * np.array([t for t, _ in res.snapshots]))
    assert np.all(l2 <= envelope)


def test_evolve_records_and_snapshots():
    prob = PDEProblem(cutoff=WIDE, valpha=np.zeros(2))
    box, m = 6.0, 96
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f0 = SpectralField.from_grid(np.exp(-((X - 1) ** 2 + Y**2) / 0.5), box, 24)
    f0.data /= f0.mass()
    res = evolve(f0, prob, horizon=0.02, dt=2e-3, record_every=2,
                 snapshot_times=[0.01],
                 observers={"peak": lambda f: float(f.grid_values().max())})
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.02)
    assert np.max(np.abs(res.mass_series - 1.0)) < 1e-12
    assert res.valpha_series.shape[1] == 2
    assert len(res.snapshots) == 1
    assert res.snapshots[0][0] == pytest.approx(0.01)
    assert np.all(res.observed["peak"] > 0)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_recorded_consensus_drives_the_next_step(monkeypatch, dim):
    # recording every step, the point that a step's first stage reads is
    # the one recorded for the field it starts from: one consensus per
    # stage, plus the record of the final field.  In 1D each consensus
    # reads the rho of one half-length ifft, so the recorded run makes
    # sum(s) + 1 inverse transforms, not one more per recorded field
    prob = PDEProblem(cutoff=WIDE, objective=QUAD, alpha=3.0)
    f0 = _bump_field(dim, 6.0, 16, 64, np.array([1.0, 0.5]))
    horizon, dt = 0.03, 0.01
    stages, points = [], []
    f = f0
    for _ in range(3):
        stages.append(_stage_count(f, prob, dt))
        f, point = spectral.step(f, prob, dt)
        points.append(point)
    calls = []

    def counted(*args):
        calls.append(args)
        return density_consensus(*args)

    monkeypatch.setattr(spectral, "density_consensus", counted)
    counting = _CountingFFT()
    monkeypatch.setattr(spectral, "sfft", counting)
    res = spectral.evolve(f0, prob, horizon, dt, record_every=1)
    assert len(calls) == sum(stages) + 1
    assert np.array_equal(res.final.data, f.data)
    assert np.array_equal(res.valpha_series[:-1], points)
    if dim == 1:
        assert counting.calls == {"ifft": sum(stages) + 1, "fft": sum(stages)}


@pytest.mark.parametrize("kwargs,key", [
    ({"dt": 0.0}, "dt"),
    ({"dt": -0.001}, "dt"),
    ({"horizon": 0.0}, "horizon"),
    ({"horizon": -0.01}, "horizon"),
    ({"record_every": 0}, "record_every"),
    ({"snapshot_times": [0.0, 0.5]}, "snapshot_times"),
    ({"snapshot_times": [-0.5]}, "snapshot_times"),
    ({"snapshot_times": ["a"]}, "snapshot_times"),
    ({"snapshot_times": [0.004, 0.0041]}, "snapshot_times"),  # both step 2
])
def test_evolve_rejects_arguments_it_cannot_honour(kwargs, key):
    prob = PDEProblem(cutoff=WIDE, valpha=np.zeros(1))
    f0 = _bump_field(1, 6.0, 8, 32, np.array([1.0]))
    with pytest.raises(ConfigurationError, match=f"^{key}: "):
        evolve(f0, prob, **{"horizon": 0.01, "dt": 0.002, **kwargs})


@pytest.mark.parametrize("kwargs", [
    {},                                                   # neither
    {"objective": QUAD, "alpha": 3.0, "valpha": [0.0, 0.0]},   # both
])
def test_problem_needs_exactly_one_consensus(kwargs):
    # the consensus is one frozen point or the density's own: a problem
    # that sets both, or neither, does not say which equation it solves
    with pytest.raises(ConfigurationError, match="exactly one"):
        PDEProblem(cutoff=WIDE, **kwargs)


def test_problem_settable_fields():
    import dataclasses
    assert [f.name for f in dataclasses.fields(PDEProblem) if f.init] == [
        "cutoff", "objective", "alpha", "valpha"]
    frozen = PDEProblem(cutoff=WIDE, valpha=[0.5, -0.5])
    assert frozen.valpha.dtype == float
    assert np.array_equal(frozen.valpha, [0.5, -0.5])


@pytest.mark.parametrize("dim,cutoff", [(1, WIDE), (2, WIDE), (2, ACTIVE)])
def test_workspace_keeps_no_reference_to_its_field(dim, cutoff):
    # a layout's workspace is built from the first field stepped on it, on
    # either route, but must not pin that field's block for the problem's
    # lifetime
    f = _bump_field(dim, 6.0, 8, 32, np.array([1.0, 0.5]))
    problem = PDEProblem(cutoff=cutoff, objective=QUAD, alpha=3.0)
    block = weakref.ref(f.data)
    ws = spectral._workspace(problem, f)
    assert (ws.products is not None) == (cutoff is WIDE and dim == 2)
    del f
    gc.collect()
    assert block() is None


def test_interleaved_fields_match_serial_runs():
    # a layout's buffers and its cached coefficient grids carry nothing from
    # one field to the next: two fields stepped alternately, on one layout
    # or on two layouts of one problem, match each field evolved alone.
    # The self-consistent truncation is active, so each new consensus point
    # refreshes the cached grids; the frozen 1-D problem takes the
    # confinement-1d route.  A layout is keyed by its box, grid and block
    # shape: the pairs of (K, M) are one layout, two that differ in K and
    # M, and (1D) two on one grid that differ only in K
    def self_consistent():
        return PDEProblem(cutoff=ACTIVE, objective=QUAD, alpha=3.0)

    def frozen():
        return PDEProblem(cutoff=ACTIVE, valpha=[0.3])

    centers = (np.array([1.0, 0.5]), np.array([-0.5, 1.0]))
    dt, n_steps = 2.5e-3, 4

    def alone(make, f):
        problem = make()
        for _ in range(n_steps):
            f, _ = spectral.step(f, problem, dt)
        return f.data

    cases = ((self_consistent, 2, [((8, 32), (8, 32)), ((8, 32), (12, 48))]),
             (frozen, 1, [((48, 192), (48, 192)), ((48, 192), (64, 256)),
                          ((48, 256), (64, 256))]))
    for make, dim, pairs in cases:
        for pair in pairs:
            fields = [_bump_field(dim, 6.0, k, m, c)
                      for (k, m), c in zip(pair, centers)]
            want = [alone(make, f) for f in fields]
            problem = make()
            for _ in range(n_steps):
                fields = [spectral.step(f, problem, dt)[0] for f in fields]
            assert len(problem._workspaces) == len(set(pair))
            for f, w in zip(fields, want):
                assert np.array_equal(f.data, w)
