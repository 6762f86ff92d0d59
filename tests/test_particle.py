import numpy as np
import pytest

from cbolab import streams
from cbolab.consensus import consensus_point
from cbolab.objectives import Objective, builtin_objective
from cbolab.particle import (CouplingExperiment, DivergenceError,
                             ParticleEnsemble, _euler_update, cbo_step,
                             mono_step, run_coupling, run_optimization,
                             sphere_cbo_step)

QUAD2 = builtin_objective("quadratic", 2)


def _ensemble(positions, **kw):
    defaults = dict(step=0.1, lam=1.0, sigma=0.0, alpha=0.0, rng_seed=1)
    defaults.update(kw)
    return ParticleEnsemble(positions=np.asarray(positions, dtype=float), **defaults)


def test_full_drift_lands_on_consensus():
    ens = _ensemble([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], step=1.0)
    out = cbo_step(ens, QUAD2)
    target = consensus_point(ens.positions, QUAD2.eval(ens.positions), 0.0).point
    assert np.allclose(out.positions, target, atol=1e-14)
    assert out.step_index == 1 and out.time == pytest.approx(1.0)


def test_half_step_is_midpoint():
    ens = _ensemble([[2.0, 0.0], [-2.0, 0.0], [0.0, 4.0]], step=0.5)
    vbar = ens.positions.mean(axis=0)
    out = cbo_step(ens, QUAD2)
    assert np.allclose(out.positions, (ens.positions + vbar) / 2, atol=1e-14)


def test_particle_at_consensus_is_fixed():
    # symmetric pair around the origin plus one particle exactly at the
    # consensus point: zero drift and zero noise amplitude
    ens = _ensemble([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], sigma=3.0)
    out = cbo_step(ens, QUAD2)
    assert np.array_equal(out.positions[2], np.zeros(2))


def test_mono_reproduces_interacting_run_bitwise():
    pos0 = streams.initial_positions(5, 16, 2, [1.0, 1.0], 1.0)
    ens = _ensemble(pos0, step=0.05, sigma=0.4, alpha=5.0, rng_seed=5)
    path = []
    e = ens
    for _ in range(12):
        path.append(consensus_point(e.positions, QUAD2.eval(e.positions), 5.0).point)
        e = cbo_step(e, QUAD2)
    pos = pos0.copy()
    for k in range(12):
        pos = mono_step(pos, path[k], lam=1.0, sigma=0.4, dt=0.05,
                        seed=5, step_index=k)
    assert np.array_equal(pos, e.positions)


def test_cbo_step_returns_the_consensus_it_used():
    pos0 = streams.initial_positions(8, 32, 2, [1.0, -1.0], 1.0)
    ens = _ensemble(pos0, step=0.05, sigma=0.4, alpha=5.0, rng_seed=8)
    stepped, res = cbo_step(ens, QUAD2, return_consensus=True)
    assert np.array_equal(stepped.positions, cbo_step(ens, QUAD2).positions)
    direct = consensus_point(pos0, QUAD2.eval(pos0), 5.0)
    assert np.array_equal(res.point, direct.point)
    assert res.log_normalizer == direct.log_normalizer


def test_mono_constant_path_geometric_approach():
    c = np.array([2.0, -1.0])
    pos = np.array([[0.0, 0.0]])
    dt = 0.25
    for k in range(10):
        pos = mono_step(pos, c, lam=1.0, sigma=0.0, dt=dt, seed=0, step_index=k)
        expected = c + (1 - dt) ** (k + 1) * (np.zeros(2) - c)
        assert np.allclose(pos[0], expected, atol=1e-13)


def test_mono_rejects_undefined_path():
    with pytest.raises(ValueError):
        mono_step(np.zeros((2, 2)), np.array([np.nan, 0.0]),
                  lam=1.0, sigma=0.0, dt=0.1, seed=0, step_index=0)


def test_same_seed_same_trajectory():
    def run():
        ens = _ensemble(streams.initial_positions(9, 32, 2, [0, 0], 1.0),
                        sigma=0.5, alpha=3.0, rng_seed=9)
        for _ in range(20):
            ens = cbo_step(ens, QUAD2)
        return ens.positions

    assert np.array_equal(run(), run())


def test_bounding_box_contracts_without_noise():
    ens = _ensemble(streams.initial_positions(2, 64, 2, [0, 0], 2.0),
                    step=0.2, alpha=4.0)
    lo, hi = ens.positions.min(0), ens.positions.max(0)
    for _ in range(30):
        ens = cbo_step(ens, QUAD2)
        assert np.all(ens.positions.min(0) >= lo - 1e-12)
        assert np.all(ens.positions.max(0) <= hi + 1e-12)
        lo, hi = ens.positions.min(0), ens.positions.max(0)


def test_variance_decays_in_contractive_regime():
    # 2*lam > d*sigma^2; variance should fall monotonically up to noise
    ens = _ensemble(streams.initial_positions(4, 400, 2, [1, 1], 1.0),
                    step=0.02, sigma=0.3, alpha=10.0, rng_seed=4)
    variances = []
    for _ in range(200):
        mean = ens.positions.mean(axis=0)
        variances.append(float(np.mean(np.sum((ens.positions - mean) ** 2, axis=1))))
        ens = cbo_step(ens, QUAD2)
    v = np.array(variances)
    assert np.all(v[1:] <= v[:-1] * 1.10)
    assert v[-1] < 1e-2 * v[0]


def test_divergence_error_carries_indices():
    # huge separation + huge noise rate overflows the multiplicative kick
    flat = Objective(dim=1, eval=lambda x: np.zeros(x.shape[:-1]))
    ens = _ensemble(np.array([[1e308], [-1e308]]), step=1.0, sigma=1e3,
                    alpha=0.0, rng_seed=0)
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
        cbo_step(ens, flat)
    assert err.value.step_index == 0
    assert err.value.particle_index in (0, 1)


def test_sphere_radial_consensus_is_fixed_point():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    flat = Objective(dim=2, eval=lambda x: np.zeros(x.shape[:-1]))
    ens = _ensemble(v, step=0.3, alpha=0.0)
    # consensus of the two points is interior; check the pure-radial case
    # with a single particle: consensus = the particle itself (radial)
    single = _ensemble(v[:1], step=0.3, sigma=2.0)
    out = sphere_cbo_step(single, flat)
    assert np.allclose(out.positions, v[:1], atol=1e-15)


def test_sphere_antipodal_pair_is_fixed():
    pair = np.array([[1.0, 0.0], [-1.0, 0.0]])
    flat = Objective(dim=2, eval=lambda x: np.zeros(x.shape[:-1]))
    out = sphere_cbo_step(_ensemble(pair, step=0.4), flat)
    assert np.allclose(out.positions, pair, atol=1e-15)


def test_sphere_keeps_unit_norm():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(50, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    obj = Objective(dim=3, eval=lambda x: x[..., 2])
    ens = _ensemble(pos, step=0.05, sigma=0.7, alpha=4.0, rng_seed=2)
    for _ in range(40):
        ens = sphere_cbo_step(ens, obj)
        assert np.max(np.abs(np.linalg.norm(ens.positions, axis=1) - 1.0)) < 1e-12


def test_sphere_circle_angles_approach_minimum():
    # objective depends on the angle; drift-only dynamics should move all
    # angles monotonically toward 0, matching an angle-space recursion
    angles = np.array([0.4, 0.9, 1.4])
    pos = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    obj = Objective(dim=2, eval=lambda x: np.arctan2(x[..., 1], x[..., 0]) ** 2)
    ens = _ensemble(pos, step=0.1, alpha=6.0)
    th = angles.copy()
    for _ in range(60):
        worst_before = np.max(np.abs(th))
        # angle-space oracle of the projected-and-renormalized update
        vals = th**2
        w = np.exp(-6.0 * (vals - vals.min()))
        vbar = (w[:, None] * np.stack([np.cos(th), np.sin(th)], 1)).sum(0) / w.sum()
        stepped = []
        for a in th:
            v = np.array([np.cos(a), np.sin(a)])
            drift = (v - vbar) - np.dot(v, v - vbar) * v
            nv = v - 0.1 * drift
            stepped.append(np.arctan2(nv[1], nv[0]))
        th = np.array(stepped)
        ens = sphere_cbo_step(ens, obj)
        got = np.arctan2(ens.positions[:, 1], ens.positions[:, 0])
        assert np.allclose(got, th, atol=1e-12)
        # the worst angle can only improve (everything is pulled toward a
        # consensus that sits at a smaller angle than the worst particle)
        assert np.max(np.abs(th)) <= worst_before + 1e-12
    assert np.max(np.abs(th)) < 0.5 * np.max(np.abs(angles))


def test_coupling_zero_noise_identical_init_zero_error():
    exp = CouplingExperiment(sizes=[4, 8], reference_size=32, horizon=0.5,
                             dt=0.1, seed=3, init_center=[1.0, 1.0],
                             init_spread=0.0)
    rows = run_coupling(exp, QUAD2, {"lam": 1.0, "sigma": 0.0, "alpha": 2.0})
    assert all(err == 0.0 for _, err in rows)


def test_coupling_reference_size_precondition():
    with pytest.raises(ValueError):
        CouplingExperiment(sizes=[16], reference_size=32, horizon=1.0,
                           dt=0.1, seed=0, init_center=[0.0, 0.0])


def test_coupling_error_shrinks_with_n():
    exp = CouplingExperiment(sizes=[8, 128], reference_size=1024, horizon=0.5,
                             dt=0.05, seed=12, init_center=[1.0, 1.0])
    rows = run_coupling(exp, QUAD2, {"lam": 1.0, "sigma": 0.5, "alpha": 5.0})
    assert rows[0][1] > rows[1][1] > 0.0


def test_run_optimization_records_trajectory():
    run = run_optimization(QUAD2, n_particles=64, dt=0.05, lam=1.0, sigma=0.2,
                           alpha=8.0, horizon=1.0, seed=2,
                           init_center=[1.0, 1.0], record_every=4)
    assert run.steps == 20
    assert run.times[0] == 0.0 and run.times[-1] == pytest.approx(1.0)
    assert run.valpha.shape[1] == 2
    assert np.all(run.ess > 0) and np.all(run.ess <= 1.0)
    assert run.w2_to_target[-1] < run.w2_to_target[0]


def test_cbo_step_reuses_a_given_consensus():
    pos0 = streams.initial_positions(8, 32, 2, [1.0, -1.0], 1.0)
    given = consensus_point(pos0, QUAD2.eval(pos0), 5.0)
    evaluations = []
    counted = Objective(dim=2, eval=lambda x: evaluations.append(x) or QUAD2.eval(x))
    ens = _ensemble(pos0, step=0.05, sigma=0.4, alpha=5.0, rng_seed=8)
    stepped = cbo_step(ens, counted, consensus=given)
    assert not evaluations
    assert np.array_equal(stepped.positions, cbo_step(ens, QUAD2).positions)


@pytest.mark.parametrize("record_every", [1, 3, 0])
def test_run_optimization_evaluates_each_state_once(record_every):
    evaluations = []
    counted = Objective(dim=2, eval=lambda x: evaluations.append(x) or QUAD2.eval(x),
                        known_minimizer=np.zeros(2))
    kw = dict(n_particles=16, dt=0.05, lam=1.0, sigma=0.3, alpha=8.0,
              horizon=0.5, seed=2, init_center=[1.0, 1.0],
              record_every=record_every)
    run = run_optimization(counted, **kw)
    reference = run_optimization(QUAD2, **kw)
    # each state is evaluated once, by its record or by the step taken from
    # it, whichever comes first; the final state is always recorded
    assert len(evaluations) == run.steps + 1
    assert np.array_equal(run.valpha, reference.valpha)
    assert np.array_equal(run.final_positions, reference.final_positions)


def test_cbo_step_batch_rows_equal_single_runs():
    obj = builtin_objective("rastrigin", 3)
    seeds = np.array([streams.derive_seed(1, r) for r in range(4)], dtype=np.uint64)
    params = dict(step=0.05, lam=1.0, sigma=0.8, alpha=20.0)
    batch = ParticleEnsemble(
        positions=streams.initial_positions(seeds, 30, 3, [1.0] * 3, 1.5),
        rng_seed=seeds, **params)
    singles = [ParticleEnsemble(
        positions=streams.initial_positions(int(s), 30, 3, [1.0] * 3, 1.5),
        rng_seed=int(s), **params) for s in seeds]
    assert batch.n_particles == 30 and batch.dim == 3
    for k in range(6):
        if k == 3:     # drop run 1 mid-way: the other rows go on unchanged
            keep = np.array([True, False, True, True])
            batch, singles = batch.select_runs(keep), [singles[0]] + singles[2:]
        batch, res = cbo_step(batch, obj, return_consensus=True)
        stepped = [cbo_step(e, obj, return_consensus=True) for e in singles]
        singles = [e for e, _ in stepped]
        assert np.array_equal(batch.positions, np.stack([e.positions for e in singles]))
        assert np.array_equal(res.point, np.stack([r.point for _, r in stepped]))
        assert res.log_normalizer.tolist() == [r.log_normalizer for _, r in stepped]
        assert res.effective_sample_fraction.tolist() == [
            r.effective_sample_fraction for _, r in stepped]


def test_batch_divergence_is_left_to_the_caller():
    flat = Objective(dim=1, eval=lambda x: np.zeros(x.shape[:-1]))
    pos = np.array([[[1e308], [-1e308]], [[0.0], [1.0]]])
    ens = _ensemble(pos, step=1.0, sigma=1e3, rng_seed=np.array([0, 1], dtype=np.uint64))
    with np.errstate(over="ignore", invalid="ignore"):
        out = cbo_step(ens, flat)
    assert np.isfinite(out.positions).all(axis=(1, 2)).tolist() == [False, True]


@pytest.mark.parametrize("shape", [(300, 1), (300, 2), (4, 300, 4), (300, 9)])
def test_euler_update_equals_formula(shape):
    # the in-place update must give the bits of the plain formula and leave
    # the positions it was given untouched
    rng = np.random.default_rng(len(shape) + shape[-1])
    pos = rng.normal(size=shape) * 3.0
    v_alpha = rng.normal(size=shape[:-2] + shape[-1:])
    noise = rng.normal(size=shape)
    dt, lam, sigma = 0.02, 1.3, 0.7
    delta = pos - v_alpha[..., None, :]
    ref = (pos - dt * lam * delta
           + np.sqrt(dt) * sigma * np.linalg.norm(delta, axis=-1, keepdims=True)
           * noise)
    before = pos.copy()
    assert np.array_equal(_euler_update(pos, v_alpha, lam, sigma, dt,
                                        noise.copy()), ref)
    assert np.array_equal(pos, before)
