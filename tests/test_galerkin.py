import sys
import threading

import numpy as np
import pytest
import scipy.fft as sfft

import cbolab.galerkin as spectral
from cbolab.consensus import DomainError, consensus_point_density
from cbolab.cutoffs import (CoefficientField, CutoffSpec, cbo_coefficients,
                            truncated_G, truncated_J)
from cbolab.objectives import builtin_objective
from cbolab.galerkin import (PDEProblem, SpectralField, cbo_divergence_rhs,
                             cfl_limit, confinement_probe_1d, energy_monitor,
                             evolve, galerkin_matrix_rhs, mass,
                             positivity_probe, project_initial, rhs,
                             rkc_interval, rkc_stages_for,
                             spectral_radius_bound, step)
from cbolab.objectives import ConfigurationError

# a cutoff placed far outside every box used here: the raw equation
WIDE = CutoffSpec(shell_radius=1e6, plateau_scale=1e7)
# shell from radius 2 and plateau roll-off from 4.5: active on a box of 6
ACTIVE = CutoffSpec(shell_radius=3.0, plateau_scale=0.5)
QUAD2 = builtin_objective("quadratic", 2)


def _axis(box, m):
    return -box + 2 * box * np.arange(m) / m


def _gather(full, modes):
    """Retained block of a full rfft-layout array."""
    if full.ndim == 1:
        return full[:modes + 1]
    m = full.shape[0]
    return np.concatenate([full[:modes + 1, :modes + 1],
                           full[m - modes:, :modes + 1]])


def _const_coeffs(dim, g_value, j_value=0.0, source=None):
    return CoefficientField(
        dim=dim,
        G=lambda p, t: np.full(np.shape(p)[:-1], g_value),
        J=lambda p, t: np.full(np.shape(p), j_value),
        g=source or (lambda p, t: np.zeros(np.shape(p)[:-1])))


def test_mass_examples():
    f = SpectralField.from_grid(np.full((64, 64), 0.7), box=4.0, modes=8)
    assert mass(f) == pytest.approx(0.7 * 8.0**2, rel=1e-13)
    z = SpectralField.zeros(2, 4.0, 8, 64)
    assert mass(z) == 0.0


def test_grid_shape_guard():
    with pytest.raises(ConfigurationError):
        SpectralField.zeros(2, 4.0, 20, 64)   # M < 4K
    with pytest.raises(ConfigurationError):
        SpectralField.zeros(3, 4.0, 4, 16)    # dim not supported


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
    with pytest.raises(ConfigurationError):
        SpectralField(dim, box, k, m, full)      # the uncompacted layout


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


def _direct_divergence_rhs(f, spec, vbar):
    """div(J rho) + Lap(G rho) assembled on the full rfft layout of the grid,
    from the truncated coefficient grids, then cut to the retained block."""
    pts = f.grid_points()
    field = cbo_coefficients(lambda t: vbar, f.dim)
    g = truncated_G(field, spec, pts, 0.0)
    j = truncated_J(field, spec, pts, 0.0)
    rho = f.grid_values()
    k_full = np.fft.fftfreq(f.grid, d=1.0 / f.grid) * np.pi / f.box
    k_half = np.arange(f.grid // 2 + 1) * np.pi / f.box
    kappa = [k_half] if f.dim == 1 else [k_full[:, None], k_half[None, :]]
    out = -sum(k**2 for k in kappa) * sfft.rfftn(g * rho)
    for a, k in enumerate(kappa):
        out += 1j * k * sfft.rfftn(j[..., a] * rho)
    return _gather(out, f.modes)


@pytest.mark.parametrize("dim,mode,spec", [
    (2, "self_consistent", WIDE), (2, "frozen", ACTIVE), (1, "frozen", ACTIVE)])
def test_divergence_kernel_matches_direct_grid_assembly(dim, mode, spec):
    box, k, m = 6.0, 16, 64
    f = _bump_field(dim, box, k, m, np.array([1.0, 0.5]))
    path_point = np.array([0.4, -0.3])[:dim]
    prob = PDEProblem(form="cbo", cutoff=spec, cbo_assembly="divergence",
                      valpha_mode=mode, objective=QUAD2, alpha=3.0,
                      valpha_path=lambda t: path_point)
    if mode == "self_consistent":
        vbar = consensus_point_density(f, QUAD2, 3.0)
    else:
        vbar = path_point
    fast = rhs(f, prob, 0.0).data
    direct = _direct_divergence_rhs(f, spec, vbar)
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert fast.flat[0] == 0.0          # k = 0: mass is conserved exactly


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


def test_conjugate_symmetry_of_coefficients():
    rng = np.random.default_rng(0)
    f = SpectralField.from_grid(rng.normal(size=(64, 64)), 4.0, 8)
    prob = PDEProblem(form="cbo", cutoff=WIDE, valpha_mode="frozen",
                      valpha_path=lambda t: np.array([0.2, -0.1]))
    out = rhs(f, prob, 0.0)
    c = out.coefficients
    assert np.allclose(c, np.conj(c[::-1, ::-1]), atol=1e-12)


def test_rhs_constant_field_gradient_form():
    coeffs = _const_coeffs(2, 2.0)
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs)
    f = SpectralField.from_grid(np.full((64, 64), 0.3), 4.0, 8)
    out = rhs(f, prob, 0.0)
    assert np.allclose(out.grid_values(), 0.3, atol=1e-13)


def test_rhs_constant_field_cbo_form():
    prob = PDEProblem(form="cbo", cutoff=WIDE, valpha_mode="frozen",
                      valpha_path=lambda t: np.zeros(2))
    f = SpectralField.from_grid(np.full((64, 64), 0.5), 4.0, 8)
    out = rhs(f, prob, 0.0)
    assert np.allclose(out.grid_values(), 3 * 2 * 0.5, atol=1e-12)


def test_rhs_plane_wave_eigenvalue():
    box, k0, m = 4.0, (3, 5), 96
    coeffs = _const_coeffs(2, 2.0)
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs)
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    wave = np.cos(np.pi * (k0[0] * X + k0[1] * Y) / box)
    f = SpectralField.from_grid(wave, box, 16)
    out = rhs(f, prob, 0.0)
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

    def source(p, t):
        return -(0.4 + 0.1 * np.cos(np.pi * p[..., 0] / box)
                 * np.cos(np.pi * p[..., 1] / box))

    coeffs = _const_coeffs(2, 0.0, source=source)
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs,
                      integrator="rk4", c_cfl=np.inf)
    f = SpectralField.from_grid(rho0, box, k)
    out = rhs(f, prob, 0.0)
    assert np.max(np.abs(out.grid_values())) < 1e-12
    stepped = step(f, prob, 0.0, 0.01)
    assert np.max(np.abs(stepped.grid_values() - rho0)) < 1e-12


def test_rhs_linearity_frozen_path():
    prob = PDEProblem(form="cbo", cutoff=WIDE, valpha_mode="frozen",
                      valpha_path=lambda t: np.array([0.3, 0.1]))
    rng = np.random.default_rng(3)
    f1 = SpectralField.from_grid(rng.normal(size=(96, 96)), 6.0, 16)
    f2 = SpectralField.from_grid(rng.normal(size=(96, 96)), 6.0, 16)
    combo = SpectralField(2, 6.0, 16, 96, 0.7 * f1.data - 1.3 * f2.data)
    lhs = rhs(combo, prob, 0.0).data
    rhs_sum = 0.7 * rhs(f1, prob, 0.0).data - 1.3 * rhs(f2, prob, 0.0).data
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
        prob = PDEProblem(form="cbo", cutoff=WIDE, valpha_mode="frozen",
                          valpha_path=lambda t, vb=vb: vb)
        a = rhs(f, prob, 0.0).grid_values()
        b = cbo_divergence_rhs(f, prob, 0.0).grid_values()
        assert np.max(np.abs(a - b)) < 1e-8


def test_divergence_assembly_conserves_mass_exactly():
    prob = PDEProblem(form="cbo", cutoff=WIDE, valpha_mode="frozen",
                      valpha_path=lambda t: np.array([0.5, 0.5]),
                      cbo_assembly="divergence")
    rng = np.random.default_rng(1)
    f = SpectralField.from_grid(np.abs(rng.normal(size=(96, 96))), 6.0, 16)
    assert rhs(f, prob, 0.0).mass() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("form", ["gradient", "divergence", "cbo"])
def test_dense_matrix_oracle_matches_fast_path(form):
    box, k, m = 5.0, 4, 16
    x = _axis(box, m)
    coeffs = CoefficientField(
        dim=1,
        G=lambda p, t: 2.0 + np.cos(np.pi * p[..., 0] / box),
        J=lambda p, t: (0.5 + 0.3 * np.sin(np.pi * p[..., 0] / box))[..., None],
        g=lambda p, t: 0.2 * np.cos(2 * np.pi * p[..., 0] / box))
    if form == "cbo":
        prob = PDEProblem(form="cbo", cutoff=WIDE, valpha_mode="frozen",
                          valpha_path=lambda t: np.array([0.2]))
    else:
        prob = PDEProblem(form=form, cutoff=WIDE, coefficients=coeffs)
    vals = 0.3 + 0.1 * np.cos(np.pi * x / box) + 0.05 * np.sin(3 * np.pi * x / box)
    f = SpectralField.from_grid(vals, box, k)
    fast = rhs(f, prob, 0.0).coefficients
    dense = galerkin_matrix_rhs(f, prob, 0.0)
    assert np.max(np.abs(fast - dense)) < 1e-10


def test_rk4_fourth_order_on_plane_wave():
    box, k0, k, m = 4.0, 3, 8, 32
    coeffs = _const_coeffs(1, 1.5)
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs,
                      integrator="rk4")
    x = _axis(box, m)
    f0 = SpectralField.from_grid(np.cos(np.pi * k0 * x / box), box, k)
    lam = -1.5 * (np.pi * k0 / box) ** 2 + 1.0
    horizon = 0.05
    errs = []
    for n in (8, 16, 32):
        f = f0.copy()
        dt = horizon / n
        for i in range(n):
            f = step(f, prob, i * dt, dt)
        exact = np.cos(np.pi * k0 * x / box) * np.exp(lam * horizon)
        errs.append(np.max(np.abs(f.grid_values() - exact)))
    assert 14.0 < errs[0] / errs[1] < 18.0
    assert 14.0 < errs[1] / errs[2] < 18.0


def test_rk4_single_step_local_error_fifth_order():
    box, k0 = 4.0, 3
    coeffs = _const_coeffs(1, 1.5)
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs)
    x = _axis(box, 32)
    f0 = SpectralField.from_grid(np.cos(np.pi * k0 * x / box), box, 8)
    lam = -1.5 * (np.pi * k0 / box) ** 2 + 1.0
    errors = []
    for dt in (2e-3, 1e-3):
        f = step(f0.copy(), prob, 0.0, dt)
        exact = np.cos(np.pi * k0 * x / box) * np.exp(lam * dt)
        errors.append(np.max(np.abs(f.grid_values() - exact)))
    assert errors[0] / errors[1] > 25.0   # ~2^5 for one step


def test_rk4_guard_refuses_unstable_step():
    coeffs = _const_coeffs(1, 10.0)
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs,
                      integrator="rk4")
    f = SpectralField.zeros(1, 4.0, 16, 64)
    limit = cfl_limit(f, prob, 0.0)
    with pytest.raises(ConfigurationError):
        step(f, prob, 0.0, 1.5 * limit)
    step(f, prob, 0.0, 0.9 * limit)


def test_spectral_radius_bound_value():
    coeffs = _const_coeffs(2, 3.0)
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs)
    f = SpectralField.zeros(2, 4.0, 16, 64)
    expected = 3.0 * 2 * (np.pi * 16 / 4.0) ** 2
    assert spectral_radius_bound(f, prob, 0.0) == pytest.approx(expected, rel=1e-12)


def test_rkc_stability_polynomial_and_interval():
    for s in (5, 13, 24):
        beta = rkc_interval(s)
        assert beta > 0.6 * s**2
        w0, w1, b, a, c, _ = spectral._rkc_coefficients(s, 2.0 / 13.0)
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
    box, k0 = 4.0, 2
    coeffs = _const_coeffs(1, 1.0)
    # pin the stage count so only dt varies between refinement levels
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs,
                      integrator="rkc", rkc_stages=10)
    x = _axis(box, 64)
    f0 = SpectralField.from_grid(np.cos(np.pi * k0 * x / box), box, 16)
    lam = -1.0 * (np.pi * k0 / box) ** 2 + 1.0
    horizon = 0.4
    errs = []
    for n in (10, 20, 40):
        f = f0.copy()
        dt = horizon / n
        for i in range(n):
            f = step(f, prob, i * dt, dt)
        exact = np.cos(np.pi * k0 * x / box) * np.exp(lam * horizon)
        errs.append(np.max(np.abs(f.grid_values() - exact)))
    assert 3.2 < errs[0] / errs[1] < 5.0
    assert 3.2 < errs[1] / errs[2] < 5.0


def test_project_initial_taper_inactive_inside():
    prob = PDEProblem(form="cbo", cutoff=CutoffSpec(5.0, 50.0),
                      valpha_mode="frozen", valpha_path=lambda t: np.zeros(2))
    sampler = lambda p: np.exp(-np.sum(np.square(p - 1.0), axis=-1))
    f = project_initial(sampler, prob, 2, 8.0, 32, 128)
    direct = SpectralField.from_grid(sampler(f.grid_points()), 8.0, 32)
    assert np.allclose(f.data, direct.data)


def test_project_initial_taper_active_outside():
    # plateau scale inside the box: the taper must kill the far field;
    # comparison is against the analytically tapered sampler, so only the
    # mode-truncation ringing remains
    from cbolab.cutoffs import smooth_step
    prob = PDEProblem(form="cbo", cutoff=CutoffSpec(2.0, 3.0),
                      valpha_mode="frozen", valpha_path=lambda t: np.zeros(1))
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


def test_energy_monitor_values():
    box, m, amp, k0 = 4.0, 64, 0.7, 3
    x = _axis(box, m)
    coeffs = _const_coeffs(1, 2.0)
    prob = PDEProblem(form="gradient", cutoff=WIDE, coefficients=coeffs)
    zero = SpectralField.zeros(1, box, 16, m)
    wave = SpectralField.from_grid(amp * np.cos(np.pi * k0 * x / box), box, 16)
    rows = energy_monitor([0.0, 0.0], [zero, wave], prob)
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0
    assert rows[1][1] == pytest.approx(amp**2 * (2 * box) / 2, rel=1e-12)
    kappa_sq = (np.pi * k0 / box) ** 2
    assert rows[1][2] == pytest.approx(2.0 * amp**2 * kappa_sq * (2 * box) / 2,
                                       rel=1e-12)
    with pytest.raises(DomainError):
        energy_monitor([], [], prob)


def test_energy_monitor_bounded_along_run():
    # no blow-up: the L2 norm along a short run stays under a mild
    # exponential envelope of its initial value
    prob = PDEProblem(form="cbo", cutoff=WIDE, valpha_mode="frozen",
                      valpha_path=lambda t: np.zeros(2),
                      cbo_assembly="divergence", integrator="rkc")
    box, m = 6.0, 96
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f0 = SpectralField.from_grid(np.exp(-((X - 1) ** 2 + Y**2) / 0.5), box, 24)
    f0.data /= f0.mass()
    res = evolve(f0, prob, horizon=0.1, dt=5e-3, record_every=4,
                 snapshot_times=[0.0, 0.05, 0.1])
    rows = energy_monitor([t for t, _ in res.snapshots],
                          [f for _, f in res.snapshots], prob)
    l2 = np.array([r[1] for r in rows])
    h1 = np.array([r[2] for r in rows])
    assert np.all(np.isfinite(l2)) and np.all(np.isfinite(h1))
    assert np.all(l2 > 0)
    envelope = l2[0] * np.exp(20.0 * np.array([t for t, _ in res.snapshots]))
    assert np.all(l2 <= envelope)


def test_evolve_records_and_snapshots():
    prob = PDEProblem(form="cbo", cutoff=WIDE, valpha_mode="frozen",
                      valpha_path=lambda t: np.zeros(2),
                      cbo_assembly="divergence", integrator="rkc")
    box, m = 6.0, 96
    x = _axis(box, m)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f0 = SpectralField.from_grid(np.exp(-((X - 1) ** 2 + Y**2) / 0.5), box, 24)
    f0.data /= f0.mass()
    res = evolve(f0, prob, horizon=0.02, dt=2e-3, record_every=2,
                 snapshot_times=[0.01],
                 observers={"peak": lambda t, f: float(f.grid_values().max())})
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.02)
    assert np.max(np.abs(res.mass_series - 1.0)) < 1e-12
    assert res.valpha_series.shape[1] == 2
    assert len(res.snapshots) == 1
    assert res.snapshots[0][0] == pytest.approx(0.01)
    assert np.all(res.observed["peak"] > 0)


def test_threads_sharing_a_problem_match_serial_runs():
    # one problem, two layouts, each evolved from two initial data at once;
    # the truncation is active, so every stage refreshes the cached
    # coefficient grids of its layout
    prob = PDEProblem(form="cbo", cutoff=ACTIVE, objective=QUAD2, alpha=3.0,
                      valpha_mode="self_consistent", integrator="rkc",
                      cbo_assembly="divergence")
    cases = [(k, c) for k in (8, 12) for c in ((1.0, 0.5), (-0.5, 1.0))]

    def run(k, center):
        f0 = _bump_field(2, 6.0, k, 4 * k, np.array(center))
        return evolve(f0, prob, horizon=0.01, dt=2.5e-3).final.data

    serial = [run(*case) for case in cases]
    results = [None] * len(cases)

    def worker(i):
        results[i] = run(*cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(cases))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)
