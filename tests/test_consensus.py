import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbolab.consensus import (DomainError, NumericalBreakdownError,
                              consensus_point, consensus_point_density,
                              laplace_gap)
from cbolab.objectives import Objective, builtin_objective


def test_equal_weights_give_midpoint():
    res = consensus_point(np.array([[0.0], [2.0]]), np.array([3.0, 3.0]), 8.0)
    assert res.point[0] == pytest.approx(1.0)
    assert res.effective_sample_fraction == pytest.approx(1.0)


def test_alpha_zero_gives_mean():
    rng = np.random.default_rng(1)
    pos = rng.normal(size=(40, 3))
    vals = rng.normal(size=40)
    res = consensus_point(pos, vals, 0.0)
    assert np.allclose(res.point, pos.mean(axis=0), atol=1e-14)


def test_large_alpha_concentrates():
    res = consensus_point(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 50.0)
    assert abs(res.point[0]) < 2e-22


def test_batch_rows_equal_single_ensembles():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(5, 40, 3))
    vals = np.square(rng.normal(size=(5, 40)))
    res = consensus_point(pos, vals, 7.0)
    assert res.point.shape == (5, 3)
    for r in range(5):
        one = consensus_point(pos[r], vals[r], 7.0)
        assert np.array_equal(res.point[r], one.point)
        assert res.log_normalizer[r] == one.log_normalizer
        assert res.effective_sample_fraction[r] == one.effective_sample_fraction
    with pytest.raises(DomainError):
        consensus_point(pos, vals[0], 7.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        consensus_point(np.empty((0, 2)), np.empty(0), 1.0)
    with pytest.raises(DomainError):
        consensus_point(np.array([[0.0]]), np.array([np.nan]), 1.0)
    with pytest.raises(DomainError):
        consensus_point(np.array([[0.0]]), np.array([0.0]), -1.0)


def test_log_normalizer_matches_direct_small_alpha():
    pos = np.array([[0.0], [1.0], [2.0]])
    vals = np.array([0.5, 1.0, 2.0])
    res = consensus_point(pos, vals, 0.7)
    direct = np.log(np.exp(-0.7 * vals).mean())
    assert res.log_normalizer == pytest.approx(direct, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.floats(0.0, 20.0), st.floats(-5.0, 5.0),
       st.integers(0, 2**31 - 1))
def test_shift_invariance_and_hull(n, alpha, shift, seed):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 2)) * 3.0
    vals = rng.normal(size=n)
    a = consensus_point(pos, vals, alpha)
    b = consensus_point(pos, vals + shift, alpha)
    assert np.linalg.norm(a.point - b.point) <= 1e-12
    assert np.all(a.point >= pos.min(axis=0) - 1e-12)
    assert np.all(a.point <= pos.max(axis=0) + 1e-12)
    assert 0.0 < a.effective_sample_fraction <= 1.0 + 1e-15


def test_two_point_alpha_monotonicity():
    pos = np.array([[0.0], [1.0]])
    vals = np.array([0.2, 1.0])
    dists = [abs(consensus_point(pos, vals, a).point[0])
             for a in np.linspace(0.0, 30.0, 40)]
    assert all(d2 <= d1 + 1e-14 for d1, d2 in zip(dists, dists[1:]))


def test_laplace_gap_examples():
    lin = Objective(dim=1, eval=lambda x: x[..., 0])
    degenerate = np.array([[0.5], [0.5]])
    assert laplace_gap(degenerate, lin.eval(degenerate), 3.0,
                       lin) == pytest.approx(0.0)
    pos = np.array([[0.0], [1.0]])
    vals = lin.eval(pos)
    assert laplace_gap(pos, vals, 0.0, lin) == pytest.approx(0.5)
    assert laplace_gap(pos, vals, 50.0, lin) < 1e-3


class _GridField:
    """Minimal quadrature-grid density for the density-consensus tests."""

    def __init__(self, box, m, fn):
        self.box, self.m = box, m
        axis = -box + 2 * box * np.arange(m) / m
        self.pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        self.vals = fn(self.pts)
        self.cell_volume = (2 * box / m) ** 2

    def grid_values(self):
        return self.vals

    def grid_points(self):
        return self.pts


def test_density_consensus_symmetric_bump_is_centered():
    f = _GridField(4.0, 64, lambda p: np.exp(-np.sum(p**2, -1) / 0.5))
    obj = builtin_objective("quadratic", 2)
    point = consensus_point_density(f, obj, 2.0)
    assert np.allclose(point, 0.0, atol=1e-12)


def test_density_consensus_alpha_zero_is_barycenter():
    f = _GridField(6.0, 64, lambda p: np.exp(-np.sum((p - 1.2)**2, -1) / 0.8))
    obj = builtin_objective("quadratic", 2)
    point = consensus_point_density(f, obj, 0.0)
    bary = np.tensordot(f.vals, f.pts, axes=((0, 1), (0, 1))) / f.vals.sum()
    assert np.allclose(point, bary, atol=1e-13)


def test_density_consensus_matches_refined_quadrature():
    # oracle: same integrals on a 4x denser grid
    fn = lambda p: np.exp(-np.sum((p - np.array([1.0, -0.5]))**2, -1) / 0.6)
    obj = builtin_objective("quadratic", 2)
    coarse = consensus_point_density(_GridField(6.0, 96, fn), obj, 1.0)
    fine = consensus_point_density(_GridField(6.0, 384, fn), obj, 1.0)
    assert np.linalg.norm(coarse - fine) < 1e-6


def test_density_consensus_clamps_and_breaks_down():
    obj = builtin_objective("quadratic", 2)
    fn = lambda p: np.exp(-np.sum(p**2, -1)) - 0.02
    point, clamped = consensus_point_density(_GridField(5.0, 64, fn), obj, 1.0,
                                             return_clamp_fraction=True)
    assert 0.0 < clamped < 0.5
    with pytest.raises(NumericalBreakdownError):
        consensus_point_density(_GridField(5.0, 64, lambda p: -np.ones(p.shape[:-1])),
                                obj, 1.0)
