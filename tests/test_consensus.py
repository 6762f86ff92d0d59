import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cbolab.consensus import (DomainError, NumericalBreakdownError,
                              consensus_point, density_consensus, gibbs_box)
from cbolab.objectives import builtin_objective


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
    quad1 = builtin_objective("quadratic")
    with pytest.raises(DomainError):
        gibbs_box(quad1, -1.0, [np.linspace(-1.0, 1.0, 8)])
    with pytest.raises(DomainError):        # samples off the weight box
        density_consensus(gibbs_box(quad1, 1.0, [np.linspace(-1.0, 1.0, 8)]),
                          lambda index: np.ones(7), 1.0, 7.0)


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


class _GridField:
    """Density samples on a periodic quadrature grid of [-box, box)^2."""

    def __init__(self, box, m, fn):
        self.axis = -box + 2 * box * np.arange(m) / m
        self.pts = np.stack(np.meshgrid(self.axis, self.axis, indexing="ij"),
                            axis=-1)
        self.vals = fn(self.pts)

    def consensus(self, obj, alpha):
        box = gibbs_box(obj, alpha, [self.axis] * 2)
        return density_consensus(box, self.vals.__getitem__,
                                 float(np.max(np.abs(self.vals))),
                                 float(self.vals.sum()))


def test_density_consensus_symmetric_bump_is_centered():
    f = _GridField(4.0, 64, lambda p: np.exp(-np.sum(p**2, -1) / 0.5))
    obj = builtin_objective("quadratic")
    point = f.consensus(obj, 2.0)
    assert np.allclose(point, 0.0, atol=1e-12)


def test_density_consensus_alpha_zero_is_barycenter():
    f = _GridField(6.0, 64, lambda p: np.exp(-np.sum((p - 1.2)**2, -1) / 0.8))
    obj = builtin_objective("quadratic")
    point = f.consensus(obj, 0.0)
    bary = np.tensordot(f.vals, f.pts, axes=((0, 1), (0, 1))) / f.vals.sum()
    assert np.allclose(point, bary, atol=1e-13)


def test_density_consensus_matches_refined_quadrature():
    # oracle: same integrals on a 4x denser grid
    fn = lambda p: np.exp(-np.sum((p - np.array([1.0, -0.5]))**2, -1) / 0.6)
    obj = builtin_objective("quadratic")
    coarse, fine = (f.consensus(obj, 1.0)
                    for f in (_GridField(6.0, 96, fn), _GridField(6.0, 384, fn)))
    assert np.linalg.norm(coarse - fine) < 1e-6


def test_density_consensus_clamps_and_breaks_down():
    # clamping is the reference's; a field with no positive sample where
    # the weights live has no consensus, and one of negative mass clamps
    # more than half of its absolute mass
    obj = builtin_objective("quadratic")
    fn = lambda p: np.exp(-np.sum((p - np.array([1.0, -0.5]))**2, -1)) - 0.02
    f = _GridField(5.0, 64, fn)
    want, clamped = reference.dense_density_consensus(
        reference.gibbs_rows(obj, 1.0, f.pts), f.vals)
    assert 0.0 < clamped < 0.5
    assert np.allclose(f.consensus(obj, 1.0), want, rtol=1e-13, atol=0.0)
    f.vals = np.zeros(f.vals.shape)
    with pytest.raises(NumericalBreakdownError, match="no positive density"):
        f.consensus(obj, 1.0)
    f.vals = -np.ones(f.vals.shape)
    with pytest.raises(NumericalBreakdownError, match="mass is negative"):
        f.consensus(obj, 1.0)


@pytest.mark.parametrize("name,alpha,dim,proper,branch", [
    ("quadratic", 20.0, 2, True, "core"),   # weights underflow: a proper box
    ("rastrigin", 1.0, 2, False, "core"),   # full support: the whole grid
    ("quadratic", 60.0, 1, True, "core"),
    ("quadratic", 20.0, 2, True, "box"),    # no positive sample on the core
    ("quadratic", 60.0, 1, True, "box"),
], ids=["quadratic-20.0-2-True", "rastrigin-1.0-2-False",
        "quadratic-60.0-1-True", "quadratic-20.0-2-True-box",
        "quadratic-60.0-1-True-box"])
def test_density_consensus_matches_dense_rows(name, alpha, dim, proper,
                                              branch):
    # oracle: the dense quadrature over the whole grid.  A bump at 0.7 has
    # its consensus certified on the core of the weight box, the only box
    # whose samples are asked for.  One at 4.0, outside the core but inside
    # the support box, with the core's samples scaled by 1e-30, has not:
    # the core's denominator is positive but too small for the bound, and
    # the support box's samples, asked for next, give the point
    obj = builtin_objective(name)
    axis = -8.0 + 16.0 * np.arange(256) / 256
    pts = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
    rng = np.random.default_rng(dim)
    center = 0.7 if branch == "core" else 4.0
    vals = (np.exp(-np.sum((pts - center)**2, -1) / 2.0)
            + 1e-3 * rng.standard_normal(pts.shape[:-1]))
    box = gibbs_box(obj, alpha, [axis] * dim)
    assert (box.weights.size < vals.size) == proper
    assert (box.core.weights.size < box.weights.size) == proper
    if branch == "box":
        vals[box.core.index] = 1e-30 * np.abs(vals[box.core.index])
    want, _ = reference.dense_density_consensus(
        reference.gibbs_rows(obj, alpha, pts), vals)
    asked = []

    def samples(index):
        asked.append(index)
        return vals[index]

    got = density_consensus(box, samples, float(np.max(np.abs(vals))),
                            float(vals.sum()))
    assert asked == [box.core.index] + ([box.index] if branch == "box" else [])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_gibbs_box_is_the_smallest_box_of_positive_weights():
    # and its core the smallest box of the weights >= 2^-128, with the
    # weights outside the core summed and rounded up
    obj = builtin_objective("quadratic")
    axis = -8.0 + 16.0 * np.arange(128) / 128
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    dense = reference.gibbs_rows(obj, 20.0, pts)[1].reshape(128, 128)
    box = gibbs_box(obj, 20.0, [axis] * 2)
    w = box.weights
    assert all(0 < s.stop - s.start < 128 for s in box.index)
    assert all(edge.any() for edge in (w[0], w[-1], w[:, 0], w[:, -1]))
    assert np.array_equal(w, dense[box.index])
    assert box.reach == max(np.max(np.abs(x)) for x in box.axes)
    core = box.core
    c = core.weights
    assert core.core is None and box.tail == 0.0
    assert all(edge.max() >= 2.0**-128 for edge in (c[0], c[-1], c[:, 0], c[:, -1]))
    assert np.array_equal(c, dense[core.index])
    assert all(np.array_equal(x, axis[s]) for x, s in zip(core.axes, core.index))
    outside = dense.copy()
    outside[core.index] = 0.0
    assert outside.max() < 2.0**-128
    exact = math.fsum(outside.ravel())
    assert exact <= core.tail <= exact * (1.0 + 1e-10)
    dense[box.index] = 0.0
    assert not dense.any()
