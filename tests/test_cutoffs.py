import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from cbolab.cutoffs import (CoefficientField, CutoffSpec, cbo_coefficients,
                            growth_sups, mollifier_cdf, plateau, smooth_step,
                            truncated_cloud, truncated_G, truncated_J,
                            truncation_geometry, _bump_unscaled, _cdf_table,
                            _fd_gradient, _GL_NODES, _GL_WEIGHTS)
from cbolab.galerkin import SpectralField
from cbolab.objectives import ConfigurationError, sample_box

VBAR = np.array([0.3, -0.2])
FIELD = cbo_coefficients(VBAR)
SPEC = CutoffSpec(shell_radius=5.0, plateau_scale=50.0)


def _bump_at(t):
    """`_bump_unscaled` at one point, as a scalar callback for `quad`."""
    return float(np.exp(-1.0 / (1.0 - t * t))) if abs(t) < 1.0 else 0.0


def test_step_function_endpoints_and_midpoint():
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(0.375) == 0.0
    assert smooth_step(0.625) == 1.0
    assert smooth_step(0.5) == pytest.approx(0.5, abs=1e-10)


def test_step_function_monotone_and_bounded():
    x = np.linspace(-0.5, 1.5, 4001)
    s = smooth_step(x)
    assert np.all(np.diff(s) >= -1e-15)
    assert np.all((s >= 0.0) & (s <= 1.0))


def test_step_function_never_dips_below_zero():
    # the cubic Hermite interpolant of the cdf table overshoots below the
    # table's 0 between its first two nodes, which 0.3762975 maps into
    assert smooth_step(0.3762975) == 0.0
    assert CutoffSpec(7.0, 4.5).shell(6.3762975) == 0.0
    cdf = mollifier_cdf(np.linspace(-1.0, 1.0, 400_001)[1:-1])
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))


def test_step_function_matches_adaptive_quadrature():
    # oracle: integrate the width-1/8 mollifier directly
    total = quad(_bump_at, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]

    def direct(x):
        val, _ = quad(lambda t: np.exp(-1.0 / (1.0 - (8 * t) ** 2)) * 8 / total
                      if abs(8 * t) < 1 else 0.0,
                      -0.125, x - 0.5, epsabs=1e-14, limit=200)
        return val

    for x in (0.40, 0.47, 0.52, 0.58, 0.61):
        assert smooth_step(x) == pytest.approx(direct(x), abs=1e-10)


def test_cdf_table_within_rounding_of_adaptive_quadrature():
    # oracle: the table rebuilt from quad's adaptive panels, driven through
    # the vectorized bump one 1-element array per call; the fixed
    # Gauss-Legendre table must agree to rounding
    x, w = leggauss(10)
    assert np.array_equal(x[5:], _GL_NODES)
    assert np.array_equal(w[5:], _GL_WEIGHTS)
    nodes, cdf, dens = _cdf_table()
    bump = lambda t: float(_bump_unscaled(np.array([t]))[0])
    ref_nodes = np.linspace(-1.0, 1.0, int(np.ceil(2.0 / 1e-3)) + 1)
    panels = [quad(bump, a, b, epsabs=1e-14, epsrel=1e-13)[0]
              for a, b in zip(ref_nodes[:-1], ref_nodes[1:])]
    ref_cdf = np.concatenate([[0.0], np.cumsum(panels)])
    total = ref_cdf[-1]
    assert np.array_equal(nodes, ref_nodes)
    assert np.max(np.abs(cdf - ref_cdf / total)) <= 1e-15
    # the density is the bump over the normalizer, which may sit an ulp
    # away from the reference's
    np.testing.assert_allclose(dens, _bump_unscaled(nodes) / total,
                               rtol=1e-15, atol=0.0)


def test_shipped_cdf_table_within_rounding_of_quad_table():
    # the same on the shipped table's own nodes with the scalar callback,
    # including the 4 edge panels that quad bisects
    nodes, cdf, _ = _cdf_table()
    panels = [quad(_bump_at, a, b, epsabs=1e-14, epsrel=1e-13)[0]
              for a, b in zip(nodes[:-1], nodes[1:])]
    ref_cdf = np.concatenate([[0.0], np.cumsum(panels)])
    assert np.max(np.abs(cdf - ref_cdf / ref_cdf[-1])) <= 1e-15


def test_cutoffs_off_the_transition_build_no_table():
    # pde-run's grid lies inside the shell and the plateau, where every
    # factor is exactly 0 or 1 and needs no table
    _cdf_table.cache_clear()
    points = SpectralField.zeros(2, 8.0, 64, 256).grid_points()
    geo = truncation_geometry(CutoffSpec(14.0, 324.0), points)
    assert np.all(geo.shell == 0.0) and np.all(geo.plateau == 1.0)
    assert _cdf_table.cache_info().currsize == 0


def test_plateau_window():
    assert plateau(0.0) == 1.0
    assert plateau(9.0) == 1.0
    assert plateau(-9.0) == 1.0
    assert plateau(11.0) == 0.0
    assert plateau(-11.0) == 0.0
    assert 0.0 < plateau(10.0) < 1.0
    x = np.linspace(-12, 12, 2001)
    h = plateau(x)
    assert np.all((h >= 0.0) & (h <= 1.0))


@pytest.mark.parametrize("fn", [smooth_step, plateau])
def test_scalar_is_the_one_element_array_value(fn):
    # a scalar takes the array path: bit for bit the value of [x]
    for x in (-10.3, -9.0, 0.0, 0.4, 0.5, 0.6, 1.0, 9.5, 10.0, 10.7, 12.0):
        assert (np.asarray(fn(x), dtype=float).tobytes()
                == fn(np.array([x]))[0].tobytes())


def test_shell_cutoff_values():
    r = SPEC.shell_radius
    assert SPEC.shell(r - 1.0) == 0.0
    assert SPEC.shell(r) == 1.0
    assert SPEC.shell(r - 0.5) == pytest.approx(0.5, abs=1e-10)
    assert SPEC.shell(0.0) == 0.0


def test_cutoff_spec_validation():
    # errors name the bad field first, so the driver can name its key
    with pytest.raises(ConfigurationError, match="^shell_radius: "):
        CutoffSpec(shell_radius=0.9, plateau_scale=1.0)
    with pytest.raises(ConfigurationError, match="^plateau_scale: "):
        CutoffSpec(shell_radius=2.0, plateau_scale=0.0)


def test_truncated_inside_shell_is_raw():
    v = np.array([[1.0, 2.0]])
    gi = truncated_G(FIELD, SPEC, v)[0]
    ji = truncated_J(FIELD, SPEC, v)[0]
    grad = _fd_gradient(lambda p: truncated_G(FIELD, SPEC, p), v)[0]
    assert gi == pytest.approx(np.sum((v[0] - VBAR) ** 2), rel=1e-14)
    assert np.allclose(ji, v[0] - VBAR, atol=1e-14)
    assert np.allclose(grad, 2 * (v[0] - VBAR), atol=1e-7)


def test_truncated_beyond_plateau_vanishes():
    v = np.array([[12.0 * SPEC.plateau_scale, 0.0]])
    assert truncated_G(FIELD, SPEC, v)[0] == 0.0
    assert np.allclose(truncated_J(FIELD, SPEC, v)[0], 0.0)


def test_truncated_on_shell_sphere():
    v = np.array([[SPEC.shell_radius, 0.0]])
    proj = SPEC.shell_radius * v[0] / np.linalg.norm(v[0])
    expected_g = 1.0 + np.sum((proj - VBAR) ** 2)
    assert truncated_G(FIELD, SPEC, v)[0] == pytest.approx(expected_g, rel=1e-12)
    assert np.allclose(truncated_J(FIELD, SPEC, v)[0],
                       np.sqrt(expected_g) * np.ones(2), rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_truncated_fields_equal_written_out_formulas(dim):
    # the formulas with full-axis reductions, evaluated bit for bit: points
    # inside the shell, in its band, on the shell sphere, under the plateau
    # roll-off and beyond it
    vbar = np.linspace(0.3, -0.2, dim)
    field = cbo_coefficients(vbar)
    spec = CutoffSpec(shell_radius=3.0, plateau_scale=0.5)
    dirs = np.random.default_rng(dim).normal(size=(7, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.array([0.5, 1.9, 2.5, 3.0, 4.6, 5.3, 6.0])
    pts = radii[:, None] * dirs
    geo = truncation_geometry(spec, pts)
    assert 0.0 < geo.shell[2] < 1.0 and geo.shell[3] == 1.0
    assert 0.0 < geo.plateau[4] < 1.0 and geo.plateau[-1] == 0.0

    def raw_G(p):
        return np.sum(np.square(p - vbar), axis=-1)

    s = geo.shell
    g_old = geo.plateau * geo.plateau * (
        raw_G(pts) * (1.0 - s) + (1.0 + raw_G(geo.projection)) * s)
    amp = np.sqrt(raw_G(geo.projection) + 1.0)[:, None]
    j_old = geo.plateau[:, None] * (
        (pts - vbar) * (1.0 - s[:, None]) + amp * np.ones(dim) * s[:, None])
    assert np.array_equal(field.G(pts), raw_G(pts))
    assert np.array_equal(truncated_G(field, spec, pts), g_old)
    assert np.array_equal(truncated_J(field, spec, pts), j_old)


def test_truncated_bounded_by_plateau_scale():
    # with the matched schedule n = (R + sup|v_a| + 1)^2, the replaced
    # diffusion is everywhere at most n + 1
    spec = CutoffSpec(shell_radius=5.0, plateau_scale=(5.0 + 1.0 + 1.0) ** 2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-spec.plateau_scale, spec.plateau_scale, (4000, 2))
    g = truncated_G(FIELD, spec, pts)
    assert np.max(g) <= spec.plateau_scale + 1.0 + 1e-9


def test_truncated_continuity_across_shell():
    delta = 1e-6
    for radius in (SPEC.shell_radius - 1.0, SPEC.shell_radius):
        lo = truncated_G(FIELD, SPEC, np.array([[radius - delta, 0.0]]))[0]
        hi = truncated_G(FIELD, SPEC, np.array([[radius + delta, 0.0]]))[0]
        assert abs(hi - lo) < 1e-3


def test_base_growth_cbo_ratios():
    sups = growth_sups(FIELD.G, FIELD.J, sample_box(2, -4, 4, 3000, 2))
    # grad ratio 2r/(r(1+r)) <= 2 and |J|/sqrt(G) = 1 exactly
    assert sups["grad_G"] <= 2.0 + 1e-6
    assert sups["J_vs_sqrtG"] == pytest.approx(1.0, abs=1e-9)
    assert sups["grad_J"] <= np.sqrt(2.0) + 1e-6


def test_base_growth_quartic_sup_is_two():
    quartic = CoefficientField(
        G=lambda p: np.sum(np.square(p), axis=-1) ** 2,
        J=lambda p: np.asarray(p, dtype=float))
    sups = growth_sups(quartic.G, quartic.J, sample_box(2, -3, 3, 8000, 1))
    # the ratio 4r/(1+r^2) peaks at 2; the loose algebraic bound is 4
    assert sups["grad_G"] <= 4.0
    assert sups["grad_G"] == pytest.approx(2.0, abs=0.02)


def test_growth_flags_drift_over_degenerate_diffusion():
    # J = O(1) where G = 0 must be flagged as an outright violation
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    sups = growth_sups(lambda p: np.sum(np.square(p), axis=-1),
                       lambda p: np.ones(np.shape(p)), pts)
    assert sups["J_vs_sqrtG"] == np.inf


def _truncated_sups(count, seed):
    return growth_sups(lambda p: truncated_G(FIELD, SPEC, p),
                       lambda p: truncated_J(FIELD, SPEC, p),
                       truncated_cloud(SPEC, 2, count, seed))


def test_truncated_growth_finite_and_refinement_stable():
    r1, r2 = _truncated_sups(4000, 3), _truncated_sups(8000, 3)
    for name, s1 in r1.items():
        s2 = r2[name]
        assert np.isfinite(s1) and np.isfinite(s2)
        assert s2 >= s1 - 1e-12          # nested samples: sups cannot drop
        assert abs(s2 - s1) <= 0.05 * max(s1, 1e-12)


def test_truncated_growth_matches_base_inside_shell():
    # sampling only the deep interior reproduces the raw-field ratios
    inner = growth_sups(FIELD.G, FIELD.J, sample_box(2, -2, 2, 2000, 6))
    pts = np.random.default_rng(6).uniform(-2, 2, (2000, 2))
    sups = growth_sups(lambda p: truncated_G(FIELD, SPEC, p),
                       lambda p: truncated_J(FIELD, SPEC, p), pts)
    assert sups["J_vs_sqrtG"] == pytest.approx(inner["J_vs_sqrtG"], abs=1e-6)


def test_mollifier_cdf_normalized():
    assert mollifier_cdf(np.array([-1.0]))[0] == 0.0
    assert mollifier_cdf(np.array([1.0]))[0] == 1.0
    assert mollifier_cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
