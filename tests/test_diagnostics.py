import numpy as np
import pytest

from cbolab.consensus import DomainError
from cbolab.diagnostics import (DecaySeries, consensus_path_speeds,
                                fit_exponential_rate, mean_field_scaling_fit,
                                success_probability, w2_to_dirac)
from cbolab.objectives import Objective, builtin_objective
from cbolab.particle import (DivergenceError, ParticleEnsemble, cbo_step,
                             run_optimization)
from cbolab import streams

QUAD2 = builtin_objective("quadratic", 2)


def test_w2_examples():
    assert w2_to_dirac(np.array([[1.0, -2.0]]), [1.0, -2.0]) == 0.0
    assert w2_to_dirac(np.array([[-1.0], [1.0]]), [0.0]) == pytest.approx(1.0)


def test_w2_matches_brute_force_and_translates():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(200, 3))
    target = np.array([0.3, -1.0, 2.0])
    brute = np.mean([np.sum((p - target) ** 2) for p in pos])
    assert w2_to_dirac(pos, target) == pytest.approx(brute, rel=1e-12)
    shift = np.array([5.0, -2.0, 1.0])
    assert w2_to_dirac(pos + shift, target + shift) == pytest.approx(
        w2_to_dirac(pos, target), rel=1e-12)


def test_decay_series_validation():
    with pytest.raises(DomainError):
        DecaySeries(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        DecaySeries(np.array([0.0, 1.0]), np.array([1.0, np.inf]))


def test_fit_exact_exponential():
    t = np.linspace(0, 3, 40)
    series = DecaySeries(t, 5.0 * np.exp(-2.0 * t))
    rate, r2 = fit_exponential_rate(series, (0.0, 3.0))
    assert rate == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_series_rate_zero():
    t = np.linspace(0, 1, 10)
    rate, _ = fit_exponential_rate(DecaySeries(t, np.full(10, 3.0)), (0.0, 1.0))
    assert rate == pytest.approx(0.0, abs=1e-13)


def test_fit_window_errors():
    t = np.linspace(0, 1, 10)
    with pytest.raises(DomainError):
        fit_exponential_rate(DecaySeries(t, np.ones(10)), (0.0, 0.05))
    vals = np.ones(10)
    vals[4] = -1.0
    with pytest.raises(DomainError):
        fit_exponential_rate(DecaySeries(t, vals), (0.0, 1.0))


def test_path_speeds_examples():
    t = np.linspace(0, 1, 11)
    const = np.tile([1.0, 2.0], (11, 1))
    res = consensus_path_speeds(t, const)
    assert res.speed_sup == 0.0 and res.holder_sup == 0.0
    slope = np.array([0.5, -1.0])
    linear = t[:, None] * slope
    res = consensus_path_speeds(t, linear)
    assert res.speed_sup == pytest.approx(np.linalg.norm(slope), rel=1e-12)
    assert res.holder_sup == pytest.approx(np.linalg.norm(slope) * np.sqrt(0.1),
                                           rel=1e-12)
    with pytest.raises(DomainError):
        consensus_path_speeds([0.0, 1.0], np.zeros((2, 2)))


def test_scaling_fit_examples():
    rows = [(n, 7.0 / n) for n in (64, 256, 1024)]
    slope, intercept = mean_field_scaling_fit(rows)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(7.0), abs=1e-12)
    slope, _ = mean_field_scaling_fit([(n, 0.3) for n in (8, 16, 32)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        mean_field_scaling_fit([(8, 0.0), (16, 0.0), (32, 1.0), (64, 2.0)])


def test_success_probability_deterministic_contraction():
    report = success_probability(
        QUAD2, runs=5, epsilon=0.1, n_particles=100, dt=0.1, lam=1.0,
        sigma=0.0, alpha=10.0, horizon=5.0, seed=3, init_center=[0.0, 0.0],
        init_spread=0.3)
    assert report.fraction == 1.0
    assert report.hits == 5 and not report.diverged_runs


def test_success_probability_epsilon_infinite():
    report = success_probability(
        QUAD2, runs=3, epsilon=np.inf, n_particles=20, dt=0.1, lam=1.0,
        sigma=0.5, alpha=5.0, horizon=0.5, seed=1, init_center=[1.0, 1.0])
    assert report.fraction == 1.0


def test_success_probability_reproducible_and_batch_invariant():
    kw = dict(epsilon=0.25, n_particles=50, dt=0.05, lam=1.0,
              sigma=0.4, alpha=10.0, horizon=1.0, seed=9,
              init_center=[1.0, 1.0])
    a = success_probability(QUAD2, runs=6, **kw)
    b = success_probability(QUAD2, runs=6, **kw)
    # a smaller batch steps the same runs: results do not depend on how
    # many runs share the batch
    c = success_probability(QUAD2, runs=3, **kw)
    assert a.final_errors == b.final_errors
    assert a.final_errors[:3] == c.final_errors
    assert a.fraction == b.fraction


def _single_run_errors(obj, runs, seed, **kw):
    """Final-mean errors of each run alone; None where the run diverges."""
    errors = []
    for r in range(runs):
        try:
            res = run_optimization(obj, seed=streams.derive_seed(seed, r),
                                   record_every=0, **kw)
        except DivergenceError:
            errors.append(None)
            continue
        mean_final = res.final_positions.mean(axis=0)
        errors.append(float(np.linalg.norm(mean_final - obj.known_minimizer)))
    return errors


def test_success_probability_batch_matches_single_runs_bitwise():
    obj = builtin_objective("rastrigin", 4)
    kw = dict(n_particles=40, dt=0.02, lam=1.0, sigma=0.7, alpha=30.0,
              horizon=1.0, init_center=[1.0] * 4, init_spread=2.0)
    report = success_probability(obj, runs=5, epsilon=0.25, seed=42, **kw)
    assert report.final_errors == _single_run_errors(obj, 5, 42, **kw)
    assert not report.diverged_runs


def test_success_probability_partial_divergence_keeps_other_runs():
    # no drift and a huge multiplicative kick: spreads grow ~1000x per step,
    # so over 56 steps some runs overflow and the rest stay finite
    flat = Objective(dim=1, eval=lambda x: np.zeros(x.shape[:-1]),
                     known_minimizer=np.zeros(1))
    kw = dict(n_particles=3, dt=1.0, lam=0.0, sigma=1e3, alpha=0.0,
              horizon=56.0, init_center=[0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        report = success_probability(flat, runs=8, epsilon=np.inf, seed=4, **kw)
        alone = _single_run_errors(flat, 8, 4, **kw)
    diverged_alone = [r for r, e in enumerate(alone) if e is None]
    assert 0 < len(diverged_alone) < 8
    assert report.diverged_runs == diverged_alone
    assert report.hits == 8 - len(diverged_alone)
    for r, e in enumerate(alone):
        assert report.final_errors[r] == (np.inf if e is None else e)


def test_success_probability_flags_objective_overflow():
    # no drift and a huge multiplicative kick: after ~52 steps the quadratic
    # overflows while positions stay finite, so a consensus point is
    # undefined; those runs are flagged and the others step on unchanged
    obj = builtin_objective("quadratic", 1)
    kw = dict(n_particles=3, dt=1.0, lam=0.0, sigma=1e3, alpha=0.0)
    alone = []
    with np.errstate(over="ignore", invalid="ignore"):
        report = success_probability(obj, runs=8, epsilon=np.inf, seed=4,
                                     horizon=56.0, init_center=[0.0], **kw)
        for r in range(8):
            seed = streams.derive_seed(4, r)
            ens = ParticleEnsemble(
                positions=streams.initial_positions(seed, 3, 1, [0.0], 1.0),
                step=kw["dt"], lam=kw["lam"], sigma=kw["sigma"],
                alpha=kw["alpha"], rng_seed=seed)
            try:
                for _ in range(56):
                    ens = cbo_step(ens, obj)
            except DomainError:
                alone.append(None)
                continue
            assert np.isfinite(ens.positions).all()
            alone.append(float(np.linalg.norm(ens.positions.mean(axis=0))))
    flagged = [r for r, e in enumerate(alone) if e is None]
    assert 0 < len(flagged) < 8
    assert report.diverged_runs == flagged
    for r, e in enumerate(alone):
        assert report.final_errors[r] == (np.inf if e is None else e)
