import numpy as np
import pytest
from scipy.integrate import quad

from cbolab.cutoffs import (CoefficientField, CutoffSpec, cbo_coefficients,
                            check_base_growth, check_static_weight,
                            check_truncated_growth, mollifier_cdf, plateau,
                            smooth_step, truncated_G, truncated_J,
                            truncated_coefficients, _bump_at,
                            _bump_unscaled, _cdf_table, _growth_ratios)

VBAR = np.array([0.3, -0.2])
FIELD = cbo_coefficients(lambda t: VBAR, dim=2)
SPEC = CutoffSpec(shell_radius=5.0, plateau_scale=50.0)


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


def test_cdf_table_equals_array_callback_reference():
    # reference: the same quadrature driven through the vectorized bump, one
    # 1-element array per call; the scalar callback must not move a bit
    h = 1e-3
    nodes, cdf, dens = _cdf_table(h)
    bump = lambda t: float(_bump_unscaled(np.array([t]))[0])
    ref_nodes = np.linspace(-1.0, 1.0, int(np.ceil(2.0 / h)) + 1)
    panels = [quad(bump, a, b, epsabs=1e-14, epsrel=1e-13)[0]
              for a, b in zip(ref_nodes[:-1], ref_nodes[1:])]
    ref_cdf = np.concatenate([[0.0], np.cumsum(panels)])
    total = ref_cdf[-1]
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(cdf, ref_cdf / total)
    assert np.array_equal(dens, _bump_unscaled(ref_nodes) / total)
    ref_norm = quad(bump, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    assert quad(_bump_at, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0] == ref_norm


@pytest.mark.parametrize("h", [1e-2, 4e-3, 2e-3, 5e-4, 0.25])
def test_cdf_table_equals_quad_table(h):
    # the vectorized Gauss-Kronrod panels must reproduce quad's bits, on
    # the edge panels quad bisects too; at h = 0.25 two edge panels need
    # more than one bisection and are left to quad itself
    nodes, cdf, _ = _cdf_table(h)
    panels = [quad(_bump_at, a, b, epsabs=1e-14, epsrel=1e-13)[0]
              for a, b in zip(nodes[:-1], nodes[1:])]
    ref_cdf = np.concatenate([[0.0], np.cumsum(panels)])
    assert np.array_equal(cdf, ref_cdf / ref_cdf[-1])


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


def test_shell_cutoff_values():
    r = SPEC.shell_radius
    assert SPEC.shell(r - 1.0) == 0.0
    assert SPEC.shell(r) == 1.0
    assert SPEC.shell(r - 0.5) == pytest.approx(0.5, abs=1e-10)
    assert SPEC.shell(0.0) == 0.0


def test_cutoff_spec_validation():
    with pytest.raises(ValueError):
        CutoffSpec(shell_radius=0.9, plateau_scale=1.0)
    with pytest.raises(ValueError):
        CutoffSpec(shell_radius=2.0, plateau_scale=0.0)


def test_truncated_inside_shell_is_raw():
    v = np.array([1.0, 2.0])
    gi, ji, grad = truncated_coefficients(FIELD, SPEC, v, 0.0)
    assert gi == pytest.approx(np.sum((v - VBAR) ** 2), rel=1e-14)
    assert np.allclose(ji, v - VBAR, atol=1e-14)
    assert np.allclose(grad, 2 * (v - VBAR), atol=1e-7)


def test_truncated_beyond_plateau_vanishes():
    v = np.array([12.0 * SPEC.plateau_scale, 0.0])
    gi, ji, _ = truncated_coefficients(FIELD, SPEC, v, 0.0)
    assert gi == 0.0
    assert np.allclose(ji, 0.0)


def test_truncated_on_shell_sphere():
    v = np.array([SPEC.shell_radius, 0.0])
    proj = SPEC.shell_radius * v / np.linalg.norm(v)
    expected_g = 1.0 + np.sum((proj - VBAR) ** 2)
    gi, ji, _ = truncated_coefficients(FIELD, SPEC, v, 0.0)
    assert gi == pytest.approx(expected_g, rel=1e-12)
    assert np.allclose(ji, np.sqrt(expected_g) * np.ones(2), rtol=1e-12)


def test_truncated_bounded_by_plateau_scale():
    # with the matched schedule n = (R + sup|v_a| + 1)^2, the replaced
    # diffusion is everywhere at most n + 1
    spec = CutoffSpec.for_bounded_consensus(5.0, 1.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-spec.plateau_scale, spec.plateau_scale, (4000, 2))
    g = truncated_G(FIELD, spec, pts, 0.0)
    assert np.max(g) <= spec.plateau_scale + 1.0 + 1e-9


def test_truncated_continuity_across_shell():
    delta = 1e-6
    for radius in (SPEC.shell_radius - 1.0, SPEC.shell_radius):
        lo = truncated_G(FIELD, SPEC, np.array([[radius - delta, 0.0]]), 0.0)[0]
        hi = truncated_G(FIELD, SPEC, np.array([[radius + delta, 0.0]]), 0.0)[0]
        assert abs(hi - lo) < 1e-3


def test_base_growth_cbo_ratios():
    rep = check_base_growth(FIELD, [-4, -4], [4, 4], 3000, seed=2)
    # grad ratio 2r/(r(1+r)) <= 2 and |J|/sqrt(G) = 1 exactly
    assert rep["grad_G"].sup <= 2.0 + 1e-6
    assert rep["J_vs_sqrtG"].sup == pytest.approx(1.0, abs=1e-9)
    assert rep["grad_J"].sup <= np.sqrt(2.0) + 1e-6


def test_base_growth_quartic_sup_is_two():
    quartic = CoefficientField(
        dim=2,
        G=lambda p, t: np.sum(np.square(p), axis=-1) ** 2,
        J=lambda p, t: np.asarray(p, dtype=float),
        g=lambda p, t: np.zeros(np.shape(p)[:-1]))
    rep = check_base_growth(quartic, [-3, -3], [3, 3], 8000, seed=1)
    # the ratio 4r/(1+r^2) peaks at 2; the loose algebraic bound is 4
    assert rep["grad_G"].sup <= 4.0
    assert rep["grad_G"].sup == pytest.approx(2.0, abs=0.02)


def test_growth_flags_drift_over_degenerate_diffusion():
    # J = O(1) where G = 0 must be flagged as an outright violation
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    entries = _growth_ratios(
        lambda p: np.sum(np.square(p), axis=-1),
        lambda p: np.ones(np.shape(p)),
        pts, 1e-5, None, 2)
    assert entries["J_vs_sqrtG"].sup == np.inf


def test_bounds_mark_satisfaction():
    rep = check_base_growth(FIELD, [-4, -4], [4, 4], 1000, seed=2,
                            bounds={"grad_G": 2.5, "J_vs_sqrtG": 1.5})
    assert rep["grad_G"].satisfied is True
    assert rep.all_satisfied()
    rep = check_base_growth(FIELD, [-4, -4], [4, 4], 1000, seed=2,
                            bounds={"grad_G": 0.1})
    assert rep["grad_G"].satisfied is False
    assert not rep.all_satisfied()


def test_truncated_growth_finite_and_refinement_stable():
    r1 = check_truncated_growth(FIELD, SPEC, 4000, seed=3)
    r2 = check_truncated_growth(FIELD, SPEC, 8000, seed=3)
    for name in r1.entries:
        s1, s2 = r1[name].sup, r2[name].sup
        assert np.isfinite(s1) and np.isfinite(s2)
        assert s2 >= s1 - 1e-12          # nested samples: sups cannot drop
        assert abs(s2 - s1) <= 0.05 * max(s1, 1e-12)


def test_truncated_growth_matches_base_inside_shell():
    # sampling only the deep interior reproduces the raw-field ratios
    inner = check_base_growth(FIELD, [-2, -2], [2, 2], 2000, seed=6)
    pts = np.random.default_rng(6).uniform(-2, 2, (2000, 2))
    entries = _growth_ratios(
        lambda p: truncated_G(FIELD, SPEC, p, 0.0),
        lambda p: truncated_J(FIELD, SPEC, p, 0.0),
        pts, SPEC.h_fd, None, 2000)
    assert entries["J_vs_sqrtG"].sup == pytest.approx(inner["J_vs_sqrtG"].sup,
                                                      abs=1e-6)


def test_static_weight_time_independent_comparability_is_one():
    rep = check_static_weight(FIELD, SPEC, 800, 0.0, [0.0, 0.5, 1.0],
                              [-4, -4], [4, 4], seed=2)
    assert rep["premise_time_comparability"].sup == pytest.approx(1.0, abs=1e-12)
    assert rep["Q_comparability_upper"].sup == pytest.approx(1.0, abs=1e-12)
    assert rep["Q_comparability_lower"].sup == pytest.approx(1.0, abs=1e-12)
    assert rep["weighted_source_integral"].sup == 0.0


def test_static_weight_moving_consensus_stays_finite():
    moving = cbo_coefficients(lambda t: np.array([0.3 * np.sin(t), 0.1 * t]), dim=2)
    rep = check_static_weight(moving, SPEC, 800, 0.0, [0.0, 0.4, 0.8],
                              [-4, -4], [4, 4], seed=4)
    upper = rep["Q_comparability_upper"].sup
    lower = rep["Q_comparability_lower"].sup
    assert 1.0 <= upper < 10.0 and 1.0 <= lower < 10.0
    assert np.isfinite(rep["grad_Q"].sup)


def test_mollifier_cdf_normalized():
    assert mollifier_cdf(np.array([-1.0]))[0] == 0.0
    assert mollifier_cdf(np.array([1.0]))[0] == 1.0
    assert mollifier_cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
