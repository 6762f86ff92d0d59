import numpy as np
import pytest

from cbolab.objectives import (ConfigurationError, Objective, builtin_objective,
                               check_growth_conditions, component_sum,
                               sample_box)


def test_quadratic_values():
    q2 = builtin_objective("quadratic", 2)
    assert q2.eval(np.zeros((1, 2)))[0] == 0.0
    q3 = builtin_objective("quadratic", 3)
    assert q3.eval(np.ones((1, 3)))[0] == 3.0


def test_rastrigin_at_origin_and_formula():
    r1 = builtin_objective("rastrigin", 1)
    assert r1.eval(np.zeros((1, 1)))[0] == pytest.approx(0.0, abs=1e-14)
    x = np.array([[0.37]])
    expected = 10.0 + (0.37**2 - 10.0 * np.cos(2 * np.pi * 0.37))
    assert r1.eval(x)[0] == pytest.approx(expected, rel=1e-14)


def test_ackley_at_origin():
    a = builtin_objective("ackley", 2)
    assert a.eval(np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-12)


def test_unknown_name_is_configuration_error():
    with pytest.raises(ConfigurationError):
        builtin_objective("rosenbrock", 2)
    with pytest.raises(ConfigurationError):
        builtin_objective("quadratic", 0)


@pytest.mark.parametrize("name", ["quadratic", "rastrigin"])
def test_analytic_derivatives_match_finite_differences(name):
    obj = builtin_objective(name, 3)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (20, 3))
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (obj.eval(pts + e) - obj.eval(pts - e)) / (2 * h)
        assert np.allclose(obj.grad(pts)[:, j], fd, atol=1e-5)
    lap_fd = np.zeros(20)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        lap_fd += (obj.eval(pts + e) - 2 * obj.eval(pts) + obj.eval(pts - e)) / h**2
    assert np.allclose(obj.laplacian(pts), lap_fd, rtol=1e-3, atol=1e-3)


def test_minimizer_is_minimal_on_grid():
    for name in ("quadratic", "rastrigin", "ackley"):
        obj = builtin_objective(name, 2)
        pts = sample_box(2, -4, 4, 512, seed=1)
        at_min = obj.eval(obj.known_minimizer[None, :])[0]
        assert np.all(obj.eval(pts) >= at_min - 1e-12)


def test_quadratic_growth_all_satisfied():
    q = builtin_objective("quadratic", 2)
    rep = check_growth_conditions(q, [-3, -3], [3, 3], 4000,
                                  {"L_f": 1.0, "c_u": 1.0, "c_l": 1.0, "M": 0.0})
    assert rep.lipschitz_ratio_max <= 1.0 + 1e-12
    assert rep.all_satisfied()


def test_rastrigin_growth_prescan_then_check():
    r = builtin_objective("rastrigin", 2)
    scan = check_growth_conditions(r, [-4, -4], [4, 4], 10000, {"M": 2.0}, seed=3)
    fitted = {"L_f": scan.lipschitz_ratio_max * 1.001,
              "c_u": scan.upper_quadratic_ratio_max * 1.001,
              "c_l": scan.lower_quadratic_ratio_min * 0.999,
              "M": 2.0}
    rep = check_growth_conditions(r, [-4, -4], [4, 4], 10000, fitted, seed=3)
    assert rep.all_satisfied()


def test_linear_objective_violates_lower_quadratic():
    lin = Objective(dim=1, eval=lambda x: np.linalg.norm(x, axis=-1),
                    lower_bound=0.0)
    rep = check_growth_conditions(lin, [1.5], [50.0], 2000,
                                  {"c_l": 1.0, "M": 1.0})
    assert rep.satisfied["lower_quadratic"] is False


def test_lipschitz_ratio_shift_invariant():
    q = builtin_objective("quadratic", 2)
    shifted = Objective(dim=2, eval=lambda x: q.eval(x) + 17.5, lower_bound=17.5)
    a = check_growth_conditions(q, [-3, -3], [3, 3], 2000, seed=5)
    b = check_growth_conditions(shifted, [-3, -3], [3, 3], 2000, seed=5)
    assert a.lipschitz_ratio_max == pytest.approx(b.lipschitz_ratio_max, rel=1e-9)


def test_degenerate_box_rejected():
    q = builtin_objective("quadratic", 2)
    with pytest.raises(ConfigurationError):
        check_growth_conditions(q, [0, 0], [0, 1], 100)
    with pytest.raises(ConfigurationError):
        check_growth_conditions(q, [-1, -1], [1, 1], 1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 9])
def test_component_sum_equals_numpy_sum(dim):
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(5, 2000, dim)) * rng.uniform(0.0, 1e3, size=(5, 2000, dim))
    assert np.array_equal(component_sum(x), np.sum(x, axis=-1))
    assert np.array_equal(component_sum(x[0, 0]), np.sum(x[0, 0]))
    rastrigin = builtin_objective("rastrigin", dim)
    ref = 10.0 * dim + np.sum(np.square(x) - 10.0 * np.cos(2.0 * np.pi * x),
                              axis=-1)
    assert np.array_equal(rastrigin.eval(x), ref)
