import numpy as np
import pytest

from cbolab import streams
from cbolab.consensus import consensus_point
from cbolab.objectives import ConfigurationError, Objective, builtin_objective
from cbolab.particle import (DivergenceError, ParticleEnsemble, _euler_update,
                             cbo_step, mono_step, run_coupling,
                             run_optimization)

QUAD2 = builtin_objective("quadratic", 2)


def _ensemble(positions, **kw):
    defaults = dict(step=0.1, lam=1.0, sigma=0.0, alpha=0.0, rng_seed=1)
    defaults.update(kw)
    return ParticleEnsemble(positions=np.asarray(positions, dtype=float), **defaults)


def _consensus(ens, obj):
    """The consensus result of an ensemble's current positions."""
    return consensus_point(ens.positions, obj.eval(ens.positions), ens.alpha)


@pytest.mark.parametrize("field,value", [
    ("step", 0.0), ("lam", -1.0), ("sigma", -0.1), ("alpha", -2.0)])
def test_ensemble_errors_name_the_field(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field}: "):
        _ensemble([[0.0, 0.0]], **{field: value})


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


COUPLING = dict(horizon=1.0, dt=0.1, lam=1.0, sigma=0.5, alpha=2.0, seed=0,
                init_center=[0.0, 0.0])


def test_coupling_zero_noise_identical_init_zero_error():
    rows = run_coupling(QUAD2, sizes=[4, 8], reference_size=32, horizon=0.5,
                        dt=0.1, lam=1.0, sigma=0.0, alpha=2.0, seed=3,
                        init_center=[1.0, 1.0], init_spread=0.0)
    assert all(err == 0.0 for _, err in rows)


def test_coupling_reference_size_precondition():
    with pytest.raises(ValueError):
        run_coupling(QUAD2, sizes=[16], reference_size=32, **COUPLING)


@pytest.mark.parametrize("sizes", [[], [0, 4, 8], [4, -1]])
def test_coupling_sizes_precondition(sizes):
    with pytest.raises(ConfigurationError, match="^sizes: "):
        run_coupling(QUAD2, sizes=sizes, reference_size=64, **COUPLING)


@pytest.mark.parametrize("name,value", [("horizon", 0.0), ("dt", -0.1)])
def test_coupling_times_precondition(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name}: need a positive "):
        run_coupling(QUAD2, sizes=[4], reference_size=16,
                     **{**COUPLING, name: value})


def test_coupling_objective_overflow_is_a_divergence():
    # no drift and a large kick: the quadratic overflows while the positions
    # are still finite, which leaves the consensus point undefined; no
    # numpy warning is raised on the way
    with pytest.raises(DivergenceError, match="^non-finite objective value"):
        run_coupling(QUAD2, sizes=[4, 8, 16], reference_size=64,
                     **{**COUPLING, "horizon": 2000.0, "dt": 1.0, "lam": 0.0,
                        "sigma": 30.0})


def _coupling_two_pass(obj, *, sizes, reference_size, horizon, dt, seed,
                       init_center, init_spread=1.0, **params):
    """The coupling as stepped before the lockstep loop: the reference run
    records its consensus path, then each size steps with a `mono_step`
    twin driven along that path."""
    n_steps = int(round(horizon / dt))
    start = [streams.initial_positions(seed, n, obj.dim, init_center,
                                       init_spread)
             for n in (reference_size, *sizes)]
    ref = ParticleEnsemble(positions=start[0], step=dt, rng_seed=seed,
                           **params)
    path = []
    for _ in range(n_steps):
        res = _consensus(ref, obj)
        ref = cbo_step(ref, obj, consensus=res)
        path.append(res.point)
    rows = []
    for n, pos in zip(sizes, start[1:]):
        ens = ParticleEnsemble(positions=pos, step=dt, rng_seed=seed, **params)
        twin, worst = pos, 0.0
        for k in range(n_steps):
            ens = cbo_step(ens, obj)
            twin = mono_step(twin, path[k], lam=params["lam"],
                             sigma=params["sigma"], dt=dt, seed=seed,
                             step_index=k)
            gap = twin - ens.positions
            worst = max(worst, float(np.mean(np.sum(np.square(gap), axis=1))))
        rows.append((n, worst))
    return rows


# d = 3 makes `streams.gaussians` return a strided view of its draws
@pytest.mark.parametrize("name,dim,seed", [("quadratic", 2, 11), ("quadratic", 2, 4),
                                           ("rastrigin", 3, 11), ("rastrigin", 3, 4)])
def test_coupling_rows_equal_the_two_pass_loop(name, dim, seed):
    obj = builtin_objective(name, dim)
    kw = dict(sizes=[4, 16, 40], reference_size=160, horizon=0.4, dt=0.02,
              lam=1.0, sigma=0.7, alpha=10.0, seed=seed, init_center=[1.0] * dim)
    rows = run_coupling(obj, **kw)
    assert rows == _coupling_two_pass(obj, **kw)
    assert all(err > 0.0 for _, err in rows)


@pytest.mark.parametrize("dim", [2, 3])
def test_twin_on_the_reference_path_is_the_reference_prefix(dim):
    obj = builtin_objective("rastrigin", dim)
    pos0 = streams.initial_positions(6, 96, dim, [1.0] * dim, 1.0)
    ref = _ensemble(pos0, step=0.02, sigma=0.7, alpha=10.0, rng_seed=6)
    twins = {n: pos0[:n] for n in (1, 5, 24)}
    for k in range(25):
        res = _consensus(ref, obj)
        ref = cbo_step(ref, obj, consensus=res)
        for n, twin in twins.items():
            twins[n] = mono_step(twin, res.point, lam=1.0, sigma=0.7, dt=0.02,
                                 seed=6, step_index=k)
            assert np.array_equal(twins[n], ref.positions[:n])


@pytest.mark.parametrize("dim", [2, 3])
def test_cbo_step_on_a_prefix_copy_draws_nothing(dim, monkeypatch):
    obj = builtin_objective("quadratic", dim)
    ens = _ensemble(streams.initial_positions(3, 20, dim, [1.0] * dim, 1.0),
                    sigma=0.8, alpha=5.0, rng_seed=3, step_index=7)
    expected = cbo_step(ens, obj).positions
    draw = streams.gaussians(3, 7, np.arange(50), dim)

    def no_draw(*args, **kwargs):
        raise AssertionError("cbo_step drew noise it was given")

    monkeypatch.setattr(streams, "gaussians", no_draw)
    out = cbo_step(ens, obj, noise=draw[:20].copy())
    assert np.array_equal(out.positions, expected)


def test_coupling_error_shrinks_with_n():
    rows = run_coupling(QUAD2, sizes=[8, 128], reference_size=1024, horizon=0.5,
                        dt=0.05, lam=1.0, sigma=0.5, alpha=5.0, seed=12,
                        init_center=[1.0, 1.0])
    assert rows[0][1] > rows[1][1] > 0.0


def test_run_optimization_records_trajectory():
    run = run_optimization(QUAD2, n_particles=64, dt=0.05, lam=1.0, sigma=0.2,
                           alpha=8.0, horizon=1.0, seed=2,
                           init_center=[1.0, 1.0])
    assert run.steps == 20 and len(run.times) == 21
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


def test_run_optimization_evaluates_each_state_once():
    evaluations = []
    counted = Objective(dim=2, eval=lambda x: evaluations.append(x) or QUAD2.eval(x),
                        known_minimizer=np.zeros(2))
    kw = dict(n_particles=16, dt=0.05, lam=1.0, sigma=0.3, alpha=8.0,
              horizon=0.5, seed=2, init_center=[1.0, 1.0])
    run = run_optimization(counted, **kw)
    reference = run_optimization(QUAD2, **kw)
    # each state is evaluated once, by its record, whose consensus also
    # drives the step taken from it
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
        res = _consensus(batch, obj)
        results = [_consensus(e, obj) for e in singles]
        assert np.array_equal(res.point, np.stack([r.point for r in results]))
        assert res.log_normalizer.tolist() == [r.log_normalizer for r in results]
        assert res.effective_sample_fraction.tolist() == [
            r.effective_sample_fraction for r in results]
        batch = cbo_step(batch, obj)
        singles = [cbo_step(e, obj) for e in singles]
        assert np.array_equal(batch.positions, np.stack([e.positions for e in singles]))


def test_batch_divergence_is_left_to_the_caller():
    flat = Objective(dim=1, eval=lambda x: np.zeros(x.shape[:-1]))
    pos = np.array([[[1e308], [-1e308]], [[0.0], [1.0]]])
    ens = _ensemble(pos, step=1.0, sigma=1e3, rng_seed=np.array([0, 1], dtype=np.uint64))
    with np.errstate(over="ignore", invalid="ignore"):
        out = cbo_step(ens, flat)
    assert np.isfinite(out.positions).all(axis=(1, 2)).tolist() == [False, True]


@pytest.mark.parametrize("shape", [(300, 1), (300, 2), (4, 300, 4), (300, 9),
                                   (16384, 2)])
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
