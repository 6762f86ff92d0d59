import numpy as np
import pytest

from cbolab.objectives import (ConfigurationError, builtin_objective,
                               component_sum, particle_sum, sample_box)


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


def test_minimizer_is_minimal_on_grid():
    for name in ("quadratic", "rastrigin", "ackley"):
        obj = builtin_objective(name, 2)
        pts = sample_box(2, -4, 4, 512, seed=1)
        at_min = obj.eval(obj.known_minimizer[None, :])[0]
        assert np.all(obj.eval(pts) >= at_min - 1e-12)


@pytest.mark.parametrize("dim,count", [(1, 5), (2, 1000), (3, 4096)])
def test_unit_box_sample_is_the_scrambled_sobol_prefix(dim, count):
    from scipy.stats import qmc
    block = 1 << int(np.ceil(np.log2(count)))
    expected = qmc.Sobol(dim, scramble=True, seed=9).random(block)[:count]
    assert np.array_equal(sample_box(dim, 0.0, 1.0, count, 9), expected)


def test_sample_box_refinement_is_nested():
    # cutoff-check's refinement study needs the shorter draw as a prefix
    coarse = sample_box(2, 0.0, 1.0, 1000, 4)
    fine = sample_box(2, 0.0, 1.0, 4096, 4)
    assert np.array_equal(fine[:1000], coarse)


def test_degenerate_box_rejected():
    with pytest.raises(ConfigurationError):
        sample_box(2, [0, 0], [0, 1], 100, 0)
    with pytest.raises(ConfigurationError):
        sample_box(2, [-1, -1], [1, 1], 0, 0)


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


@pytest.mark.parametrize("dim", range(1, 10))
def test_particle_sum_equals_numpy_sum(dim):
    rng = np.random.default_rng(dim)
    for n in (1, 7, 8, 9, 200, 16384):
        for shape in ((n, dim), (5, n, dim)):
            x = rng.normal(size=shape) * rng.uniform(0.0, 1e3, size=shape)
            w = rng.uniform(size=shape[:-1])
            assert np.array_equal(particle_sum(x, w),
                                  np.sum(w[..., None] * x, axis=-2))
            assert np.array_equal(particle_sum(x), np.sum(x, axis=-2))
            assert np.array_equal(particle_sum(x) / n, x.mean(axis=-2))
