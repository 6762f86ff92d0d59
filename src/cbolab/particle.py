"""Time stepping of the consensus-based particle systems.

Three steppers share one Euler-Maruyama update:

* `cbo_step` - the interacting system; each particle drifts toward the
  ensemble consensus point and is kicked by isotropic Gaussian noise whose
  amplitude is its distance to the consensus point.
* `mono_step` - the same update driven by an externally supplied consensus
  path instead of the ensemble's own; used for mean-field couplings.
* `sphere_cbo_step` - the unit-sphere variant: drift and noise are projected
  onto the tangent space and the particle is renormalized.

Noise is addressed by (seed, particle index, step index) through the
counter-based streams, which makes trajectories bitwise reproducible and
lets `run_coupling` drive two systems with literally identical Brownian
increments.

`cbo_step` also advances a batch of R independent runs at once: positions
of shape (R, N, d) with one run seed per row.  Every operation is
elementwise or reduces within a row, so each row is bit-identical to that
run stepped alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .consensus import ConsensusResult, consensus_point
from .objectives import Objective, component_sum
from . import streams


class DivergenceError(RuntimeError):
    """A particle position became non-finite."""

    def __init__(self, step_index: int, particle_index: int):
        self.step_index = step_index
        self.particle_index = particle_index
        super().__init__(
            f"non-finite position for particle {particle_index} "
            f"after step {step_index}"
        )


@dataclass(frozen=True)
class ParticleEnsemble:
    """State of an interacting ensemble plus its stepping parameters."""

    positions: np.ndarray   # (N, d), or (R, N, d) for a batch of R runs
    step: float             # time increment per iterate
    lam: float              # drift rate toward the consensus point
    sigma: float            # noise rate
    alpha: float            # Gibbs weight sharpness
    rng_seed: int           # or an (R,) array of run seeds for a batch
    step_index: int = 0

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if min(self.lam, self.sigma, self.alpha) < 0:
            raise ValueError("lambda, sigma, alpha must be non-negative")

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


def _euler_update(positions, v_alpha, lam, sigma, dt, noise):
    """Shared update V <- V - dt*lam*(V - v_a) + sqrt(dt)*sigma*|V - v_a| * B.

    `v_alpha` has one point per run: (d,) for (N, d) positions, (R, d) for
    a batch (R, N, d).  Works in place on its own temporaries and on
    `noise`, which it consumes; the operations and their order are those of
    the formula above.
    """
    delta = positions - v_alpha[..., None, :]
    amp = component_sum(np.square(delta))
    np.sqrt(amp, out=amp)
    amp *= np.sqrt(dt) * sigma
    noise *= amp[..., None]
    delta *= dt * lam
    new = np.subtract(positions, delta, out=delta)
    new += noise
    return new


def _check_finite(positions, step_index):
    if np.isfinite(positions).all():
        return
    bad = ~np.isfinite(positions).all(axis=1)
    raise DivergenceError(step_index, int(np.argmax(bad)))


def cbo_step(ens: ParticleEnsemble, obj: Objective, *,
             consensus: ConsensusResult | None = None,
             return_consensus: bool = False):
    """Advance the interacting system by one iterate.

    `consensus`, when given, must be the `ConsensusResult` of the current
    positions (as `run_optimization` records it); it is used instead of
    evaluating the objective again.  With `return_consensus` the result is
    (new ensemble, the `ConsensusResult` of the old positions that drove
    the step).

    A single ensemble raises `DivergenceError` when a position turns
    non-finite.  A batch does not, so that one run cannot stop the others:
    the caller checks each row and drops diverged runs with
    `ParticleEnsemble.select_runs`.
    """
    if obj.dim != ens.dim:
        raise ValueError(f"objective dim {obj.dim} != ensemble dim {ens.dim}")
    if consensus is None:
        values = obj.eval(ens.positions)
        consensus = consensus_point(ens.positions, values, ens.alpha)
    noise = streams.gaussians(ens.rng_seed, ens.step_index,
                              np.arange(ens.n_particles), ens.dim)
    new = _euler_update(ens.positions, consensus.point, ens.lam, ens.sigma,
                        ens.step, noise)
    if new.ndim == 2:
        _check_finite(new, ens.step_index)
    new_ens = replace(ens, positions=new, step_index=ens.step_index + 1)
    return (new_ens, consensus) if return_consensus else new_ens


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


def sphere_cbo_step(ens: ParticleEnsemble, obj: Objective) -> ParticleEnsemble:
    """One iterate of the unit-sphere system (tangent projection + renormalize)."""
    norms = np.linalg.norm(ens.positions, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("sphere stepper needs positions on the unit sphere")
    values = obj.eval(ens.positions)
    res = consensus_point(ens.positions, values, ens.alpha)
    v = ens.positions
    delta = v - res.point
    radial = np.sum(v * delta, axis=1, keepdims=True)
    drift = delta - radial * v              # (I - v v^T)(v - v_a)
    noise = streams.gaussians(ens.rng_seed, ens.step_index,
                              np.arange(ens.n_particles), ens.dim)
    tangent_noise = noise - np.sum(v * noise, axis=1, keepdims=True) * v
    amp = np.linalg.norm(delta, axis=1, keepdims=True)
    new = v - ens.step * ens.lam * drift \
        + np.sqrt(ens.step) * ens.sigma * amp * tangent_noise
    nn = np.linalg.norm(new, axis=1, keepdims=True)
    if np.any(nn == 0.0):
        raise DivergenceError(ens.step_index, int(np.argmax(nn[:, 0] == 0.0)))
    new = new / nn
    _check_finite(new, ens.step_index)
    return replace(ens, positions=new, step_index=ens.step_index + 1)


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
                     init_center, init_spread: float = 1.0,
                     record_every: int = 1, target=None) -> OptimizationRun:
    """Run the interacting optimizer to the horizon, recording diagnostics.

    `target` defaults to the objective's known minimizer (the origin for
    the built-ins); `record_every=0` records only the first and last state.
    """
    if target is None:
        target = obj.known_minimizer
    target = (np.zeros(obj.dim) if target is None
              else np.asarray(target, dtype=float))
    pos = streams.initial_positions(seed, n_particles, obj.dim,
                                    init_center, init_spread)
    ens = ParticleEnsemble(positions=pos, step=dt, lam=lam, sigma=sigma,
                           alpha=alpha, rng_seed=seed)
    n_steps = max(1, int(round(horizon / dt)))

    times, vbars, w2s, variances, esss, lognorms = [], [], [], [], [], []

    def record(e: ParticleEnsemble) -> ConsensusResult:
        values = obj.eval(e.positions)
        res = consensus_point(e.positions, values, e.alpha)
        delta = e.positions - target
        mean = e.positions.mean(axis=0)
        times.append(e.time)
        vbars.append(res.point)
        w2s.append(float(np.mean(np.sum(np.square(delta), axis=1))))
        variances.append(float(np.mean(np.sum(np.square(e.positions - mean), axis=1))))
        esss.append(res.effective_sample_fraction)
        lognorms.append(res.log_normalizer)
        return res

    # a recorded state's consensus also drives the step taken from it
    res = record(ens)
    for k in range(n_steps):
        ens = cbo_step(ens, obj, consensus=res)
        res = None
        if record_every and ((k + 1) % record_every == 0 or (k + 1) == n_steps):
            res = record(ens)
    if not record_every:
        record(ens)

    return OptimizationRun(times=np.asarray(times), valpha=np.asarray(vbars),
                           w2_to_target=np.asarray(w2s),
                           variance=np.asarray(variances), ess=np.asarray(esss),
                           log_normalizer=np.asarray(lognorms),
                           final_positions=ens.positions, steps=n_steps)


@dataclass(frozen=True)
class CouplingExperiment:
    """Sizes and horizon for a mean-field coupling measurement.

    All runs draw from one family of per-particle streams: the reference
    run uses particles 0..N_ref-1, a size-N run and its mean-field twin
    both use particles 0..N-1 with identical initial positions and noise.
    """

    sizes: Sequence[int]
    reference_size: int
    horizon: float
    dt: float
    seed: int
    init_center: Sequence[float]
    init_spread: float = 1.0

    def __post_init__(self):
        if self.reference_size < 4 * max(self.sizes):
            raise ValueError("reference size must be at least 4x the largest ensemble")


def _start(exp: CouplingExperiment, obj: Objective, params: dict,
           n: int) -> ParticleEnsemble:
    pos = streams.initial_positions(exp.seed, n, obj.dim,
                                    exp.init_center, exp.init_spread)
    return ParticleEnsemble(positions=pos, step=exp.dt, rng_seed=exp.seed,
                            **params)


def run_coupling(exp: CouplingExperiment, obj: Objective, params: dict) -> list:
    """Coupling error between interacting systems and their mean-field twins.

    The reference run's consensus path stands in for the (unavailable)
    mean-field law.  For each requested size N, the interacting N-system
    and N mean-field particles driven by the reference path share initial
    data and noise; the reported error is sup over recorded times of the
    mean squared particle gap.  Each system steps in lockstep with its twin,
    so no position history is kept.

    params supplies lam / sigma / alpha for every run.

    Returns a list of (N, sup_mean_squared_error) rows.
    """
    n_steps = int(round(exp.horizon / exp.dt))
    ref = _start(exp, obj, params, exp.reference_size)
    ref_path = np.empty((n_steps, obj.dim))
    for k in range(n_steps):
        ref, res = cbo_step(ref, obj, return_consensus=True)
        ref_path[k] = res.point
    rows = []
    for n in exp.sizes:
        ens = _start(exp, obj, params, n)
        twin = ens.positions
        worst = 0.0
        for k in range(n_steps):
            ens = cbo_step(ens, obj)
            twin = mono_step(twin, ref_path[k], lam=params["lam"],
                             sigma=params["sigma"], dt=exp.dt,
                             seed=exp.seed, step_index=k)
            gap = twin - ens.positions
            mse = float(np.mean(component_sum(np.square(gap))))
            worst = max(worst, mse)
        rows.append((n, worst))
    return rows
