"""Time stepping of the consensus-based particle systems.

Two steppers share one Euler-Maruyama update:

* `cbo_step` - the interacting system; each particle drifts toward the
  ensemble consensus point and is kicked by isotropic Gaussian noise whose
  amplitude is its distance to the consensus point.
* `mono_step` - the same update driven by an external consensus path
  instead of the ensemble's own (mean-field twins of a density's path).

Noise is addressed by (seed, particle index, step index) through the
counter-based streams, which makes trajectories bitwise reproducible.  The
update works row by row, so a twin driven by an ensemble's own consensus
path is that ensemble's first n particles, bit for bit (`run_coupling`).

`cbo_step` also advances a batch of R independent runs at once: positions
of shape (R, N, d) with one run seed per row.  Every operation is
elementwise or reduces within a row, so each row is bit-identical to that
run stepped alone.

Three drivers run the steppers to a horizon on `time_grid`'s steps:
`run_optimization` records one run, `run_coupling` steps systems of
several sizes in lockstep, and `success_probability` steps a batch of runs
and drops the rows that diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .consensus import ConsensusResult, DomainError, consensus_point
from .objectives import (ConfigurationError, Objective, component_sum,
                         particle_sum, time_grid)
from . import streams


class DivergenceError(RuntimeError):
    """A particle's position, or its objective value, became non-finite.

    `step_index` is the step that made the position, or the number of steps
    taken to the state whose value it is.
    """

    def __init__(self, step_index: int, particle_index: int,
                 quantity: str = "position"):
        self.step_index = step_index
        self.particle_index = particle_index
        super().__init__(
            f"non-finite {quantity} for particle {particle_index} "
            f"at step {step_index}"
        )


@dataclass(frozen=True)
class ParticleEnsemble:
    """State of an interacting ensemble plus its stepping parameters.

    Errors name the bad field first.
    """

    positions: np.ndarray   # (N, d), or (R, N, d) for a batch of R runs
    step: float             # time increment per iterate
    lam: float              # drift rate toward the consensus point
    sigma: float            # noise rate
    alpha: float            # Gibbs weight sharpness
    rng_seed: int           # or an (R,) array of run seeds for a batch
    step_index: int = 0

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigurationError(f"step: must be positive, got {self.step}")
        for name in ("lam", "sigma", "alpha"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(
                    f"{name}: must be non-negative, got {getattr(self, name)}")

    @property
    def time(self) -> float:
        return self.step_index * self.step

    @property
    def n_particles(self) -> int:
        return self.positions.shape[-2]

    @property
    def dim(self) -> int:
        return self.positions.shape[-1]

    def select_runs(self, keep: np.ndarray) -> "ParticleEnsemble":
        """The batch restricted to the runs (rows) where `keep` is true."""
        return replace(self, positions=self.positions[keep],
                       rng_seed=self.rng_seed[keep])


def _minus_point(x, c):
    """x - c[..., None, :] for points x (..., N, d) and one point c (..., d)
    per run, subtracted a component at a time: the same bits, with every
    numpy loop running over the N particles, not over one particle's d
    components."""
    out = np.empty_like(x)
    for j in range(x.shape[-1]):
        np.subtract(x[..., j], c[..., j, None], out=out[..., j])
    return out


def _euler_update(positions, v_alpha, lam, sigma, dt, noise):
    """Shared update V <- V - dt*lam*(V - v_a) + sqrt(dt)*sigma*|V - v_a| * B.

    `v_alpha` has one point per run: (d,) for (N, d) positions, (R, d) for
    a batch (R, N, d).  Works in place on its own temporaries and on
    `noise`, which it consumes; the operations and their order are those of
    the formula above, and the two broadcasts over components go one
    component at a time.
    """
    delta = _minus_point(positions, v_alpha)
    amp = component_sum(np.square(delta))
    np.sqrt(amp, out=amp)
    amp *= np.sqrt(dt) * sigma
    for j in range(noise.shape[-1]):
        noise[..., j] *= amp
    delta *= dt * lam
    new = np.subtract(positions, delta, out=delta)
    new += noise
    return new


def _check_finite(a, step_index, quantity="position"):
    """Raise `DivergenceError` for the first particle with a non-finite
    entry in `a`: positions (N, d) or objective values (N,)."""
    if np.isfinite(a).all():
        return
    bad = ~np.isfinite(a.reshape(len(a), -1)).all(axis=1)
    raise DivergenceError(step_index, int(np.argmax(bad)), quantity)


def cbo_step(ens: ParticleEnsemble, obj: Objective, *,
             consensus: ConsensusResult | None = None,
             noise: np.ndarray | None = None) -> ParticleEnsemble:
    """Advance the interacting system by one iterate.

    `consensus` and `noise`, when given, stand in for the `ConsensusResult`
    of the current positions (as `run_optimization` records it) and for the
    draws of this ensemble's own (seed, step, particles), such as a copy of
    a prefix of a larger draw; the step consumes `noise`.

    A single ensemble raises `DivergenceError` when a position, or an
    objective value it evaluates, turns non-finite.  A batch does not, so
    that one run cannot stop the others: `success_probability` checks each
    row and drops diverged runs with `ParticleEnsemble.select_runs`.
    """
    if consensus is None:
        values = obj.eval(ens.positions)
        if values.ndim == 1:
            _check_finite(values, ens.step_index, "objective value")
        consensus = consensus_point(ens.positions, values, ens.alpha)
    if noise is None:
        noise = streams.gaussians(ens.rng_seed, ens.step_index,
                                  np.arange(ens.n_particles), ens.dim)
    new = _euler_update(ens.positions, consensus.point, ens.lam, ens.sigma,
                        ens.step, noise)
    if new.ndim == 2:
        _check_finite(new, ens.step_index)
    return replace(ens, positions=new, step_index=ens.step_index + 1)


def mono_step(positions: np.ndarray, v_alpha: np.ndarray, *, lam: float,
              sigma: float, dt: float, seed: int, step_index: int) -> np.ndarray:
    """Advance non-interacting particles driven by an external consensus value.

    Uses the same noise addressing as `cbo_step`: particle i at step k draws
    the same Gaussian vector here as it would in the interacting system, so
    feeding back a recorded consensus path reproduces that run bitwise.
    """
    positions = np.asarray(positions, dtype=float)
    v_alpha = np.asarray(v_alpha, dtype=float)
    if not np.all(np.isfinite(v_alpha)):
        raise ValueError(f"consensus path value not finite at step {step_index}")
    noise = streams.gaussians(seed, step_index,
                              np.arange(positions.shape[0]), positions.shape[1])
    new = _euler_update(positions, v_alpha, lam, sigma, dt, noise)
    _check_finite(new, step_index)
    return new


@dataclass
class OptimizationRun:
    """Recorded trajectory diagnostics of one interacting run."""

    times: np.ndarray            # recording times
    valpha: np.ndarray           # consensus point per recording, (n_rec, d)
    w2_to_target: np.ndarray     # mean squared distance to the target point
    variance: np.ndarray         # mean squared distance to the ensemble mean
    ess: np.ndarray              # effective sample fraction of the weights
    log_normalizer: np.ndarray   # log of the mean Gibbs weight
    final_positions: np.ndarray
    steps: int


def run_optimization(obj: Objective, *, n_particles: int, dt: float, lam: float,
                     sigma: float, alpha: float, horizon: float, seed: int,
                     init_center, init_spread: float = 1.0) -> OptimizationRun:
    """Run the interacting optimizer to the horizon in `time_grid`'s
    steps, recording diagnostics of every state.

    `w2_to_target` is measured to the objective's known minimizer, else the
    origin.  Raises `DivergenceError` when a position or an objective value
    turns non-finite, where the consensus point would be undefined.
    """
    n_steps, dt = time_grid(horizon, dt)
    pos = streams.initial_positions(seed, n_particles, init_center, init_spread)
    ens = ParticleEnsemble(positions=pos, step=dt, lam=lam, sigma=sigma,
                           alpha=alpha, rng_seed=seed)
    target = np.broadcast_to(np.asarray(
        0.0 if obj.known_minimizer is None else obj.known_minimizer,
        dtype=float), (ens.dim,))

    times, vbars, w2s, variances, esss, lognorms = [], [], [], [], [], []

    def record(e: ParticleEnsemble) -> ConsensusResult:
        values = obj.eval(e.positions)
        _check_finite(values, e.step_index, "objective value")
        res = consensus_point(e.positions, values, e.alpha)
        mean = particle_sum(e.positions) / e.n_particles
        times.append(e.time)
        vbars.append(res.point)
        w2s.append(float(np.mean(component_sum(
            np.square(_minus_point(e.positions, target))))))
        variances.append(float(np.mean(component_sum(
            np.square(_minus_point(e.positions, mean))))))
        esss.append(res.effective_sample_fraction)
        lognorms.append(res.log_normalizer)
        return res

    # a recorded state's consensus also drives the step taken from it;
    # overflow is caught as a non-finite value, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        res = record(ens)
        for _ in range(n_steps):
            ens = cbo_step(ens, obj, consensus=res)
            res = record(ens)

    return OptimizationRun(times=np.asarray(times), valpha=np.asarray(vbars),
                           w2_to_target=np.asarray(w2s),
                           variance=np.asarray(variances), ess=np.asarray(esss),
                           log_normalizer=np.asarray(lognorms),
                           final_positions=ens.positions, steps=n_steps)


def run_coupling(obj: Objective, *, sizes: Sequence[int], reference_size: int,
                 horizon: float, dt: float, lam: float, sigma: float,
                 alpha: float, seed: int, init_center,
                 init_spread: float = 1.0) -> list:
    """Coupling error between interacting systems and their mean-field twins.

    The reference run of `reference_size` particles stands in for the
    (unavailable) mean-field law.  All runs draw from one family of
    per-particle streams: a size-N run uses particles 0..N-1, with the
    initial positions and noise of the reference's first N particles.  Its
    mean-field twin, N particles driven by the reference's consensus path,
    is therefore the reference's first N particles, bit for bit, so it is
    read, not stepped (`mono_step` is for external paths).  The reported
    error is the sup over steps of the mean squared gap between the size-N
    run and its twin.  All systems step in lockstep on one draw per step;
    each takes a copy of its prefix before the reference consumes it.  The
    steps are `time_grid`'s.  Errors name the bad argument first.

    Returns a list of (N, sup_mean_squared_error) rows.
    """
    if not sizes or min(sizes) < 1:
        raise ConfigurationError(f"sizes: need sizes >= 1, got {list(sizes)}")
    if reference_size < 4 * max(sizes):
        raise ConfigurationError(
            f"reference_size: need at least 4 times the largest of sizes = "
            f"{4 * max(sizes)}, got {reference_size}")
    n_steps, dt = time_grid(horizon, dt)

    def start(n: int) -> ParticleEnsemble:
        pos = streams.initial_positions(seed, n, init_center, init_spread)
        return ParticleEnsemble(positions=pos, step=dt, lam=lam, sigma=sigma,
                                alpha=alpha, rng_seed=seed)

    ref = start(reference_size)
    systems = [start(n) for n in sizes]
    worst = [0.0] * len(systems)
    with np.errstate(over="ignore", invalid="ignore"):  # see run_optimization
        for k in range(n_steps):
            noise = streams.gaussians(seed, k, np.arange(ref.n_particles),
                                      ref.dim)
            systems = [cbo_step(ens, obj, noise=noise[:ens.n_particles].copy())
                       for ens in systems]
            ref = cbo_step(ref, obj, noise=noise)
            for i, ens in enumerate(systems):
                gap = ref.positions[:ens.n_particles] - ens.positions
                worst[i] = max(worst[i],
                               float(np.mean(component_sum(np.square(gap)))))
    return list(zip(sizes, worst))


@dataclass
class SuccessReport:
    runs: int
    epsilon: float
    hits: int
    fraction: float
    final_errors: list
    seeds: list                 # the seed each run derived and ran with
    diverged_runs: list = field(default_factory=list)


def success_probability(obj, runs: int, epsilon: float, *, n_particles: int,
                        dt: float, lam: float, sigma: float, alpha: float,
                        horizon: float, seed: int, init_center,
                        init_spread: float = 1.0) -> SuccessReport:
    """Fraction of independent optimizations ending within epsilon of the
    known minimizer at the horizon, in `time_grid`'s steps.  Each run
    derives its own seed, recorded in `seeds`, so the report is
    reproducible; diverged runs count as misses and are flagged.

    The runs are stepped together as one (runs, N, d) batch by `cbo_step`.
    Each row is bit-identical to `run_optimization` with that run's seed.
    Every state, the final one included, is checked once, before it is
    stepped: a run whose positions are non-finite there, as
    `DivergenceError` flags it in a single run, or whose objective values
    overflow, so that its consensus point would be undefined, is flagged
    and leaves the batch.
    """
    if runs < 1:
        raise DomainError("needs at least one run")
    v_star = obj.known_minimizer
    if v_star is None:
        raise DomainError("success probability needs a known minimizer")
    n_steps, dt = time_grid(horizon, dt)

    seeds = np.array([streams.derive_seed(seed, r) for r in range(runs)],
                     dtype=np.uint64)
    pos = streams.initial_positions(seeds, n_particles, init_center,
                                    init_spread)
    ens = ParticleEnsemble(positions=pos, step=dt, lam=lam, sigma=sigma,
                           alpha=alpha, rng_seed=seeds)
    live = np.arange(runs)
    # overflow is caught as a non-finite value, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            values = obj.eval(ens.positions)
            ok = (np.isfinite(values).all(axis=1)
                  & np.isfinite(ens.positions).all(axis=(1, 2)))
            if not ok.all():
                live, ens, values = live[ok], ens.select_runs(ok), values[ok]
                if not live.size:
                    break
            if k == n_steps:        # the final state is checked, not stepped
                break
            res = consensus_point(ens.positions, values, alpha)
            ens = cbo_step(ens, obj, consensus=res)

        # one norm call per run: the norm of a vector is a dot product, whose
        # rounding a batched norm along an axis does not reproduce
        final_errors = [np.inf] * runs
        for row, run_index in enumerate(live):
            mean_final = ens.positions[row].mean(axis=0)
            final_errors[run_index] = float(np.linalg.norm(mean_final - v_star))
    diverged = sorted(set(range(runs)) - set(live.tolist()))
    hits = sum(1 for r in live if final_errors[r] <= epsilon)
    return SuccessReport(runs=runs, epsilon=epsilon, hits=hits,
                         fraction=hits / runs, final_errors=final_errors,
                         seeds=seeds.tolist(), diverged_runs=diverged)
