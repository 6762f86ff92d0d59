"""Counter-based random streams for reproducible particle simulations.

Every Gaussian draw is a pure function of (seed, stream id, particle index,
step index), so two simulations that share a seed see identical noise for
the same particle at the same step regardless of ensemble size, of how
many runs are drawn together, or of evaluation order.  That is exactly what the coupling experiments
need: an interacting run and a mean-field run can be driven by the same
Brownian increments without storing them.

The generator is a stateless hash (splitmix64 finalizer chains) feeding a
Box-Muller transform.  It is not a cryptographic RNG; it is a deterministic
Monte Carlo stream with good equidistribution at the scales used here.
"""

from __future__ import annotations

import numpy as np

# splitmix64 constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)

# stream ids keep logically different draws (initial positions vs. dynamics)
# from ever colliding
STREAM_INIT = 0x1D
STREAM_DYNAMICS = 0x2E


def _mix(x: np.ndarray, out=None) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays (wrapping is intended).

    The result goes to `out`, which may be `x` itself; by default to a new
    array, so the input is not modified.  The hash runs in place on the
    result with one temporary for the shifted words; a 0-d input gives a
    0-d array.
    """
    shifted = np.right_shift(x, np.uint64(30), out=np.empty_like(x))
    x = np.bitwise_xor(x, shifted, out=np.empty_like(x) if out is None else out)
    x *= _MULT1
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= _MULT2
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def _seed_words(seed) -> np.ndarray:
    """A seed, or an array of run seeds, as uint64 words (taken mod 2**64)."""
    return np.array(np.asarray(seed, dtype=object) & 0xFFFFFFFFFFFFFFFF,
                    dtype=np.uint64)


def _counters(seed, stream: int, step: int, particles: np.ndarray) -> np.ndarray:
    """Hash of (seed, stream, step, particle), shape seed.shape + (n,).

    The word of a slot is `_mix(h + GAMMA * (slot + 1))`, so a call hashes
    the counter once and only the last mix is done per slot.
    """
    with np.errstate(over="ignore"):
        base = _mix(_seed_words(seed) + _GAMMA * np.uint64(stream))
        key = _mix(base + _GAMMA * np.uint64(step + 1))
        h = particles.astype(np.uint64)
        h += np.uint64(1)
        h *= _GAMMA
        # one run seed adds in place; R seeds broadcast to a new (R, n) array
        h = np.add(key[..., None], h, out=h if key.ndim == 0 else None)
        return _mix(h, out=h)


def _uniform(h: np.ndarray, slot: int) -> np.ndarray:
    """Floats in the open interval (0, 1) from slot `slot` of counters `h`."""
    with np.errstate(over="ignore"):
        words = h + _GAMMA * np.uint64(slot + 1)
        _mix(words, out=words)
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def gaussians(seed, step: int, particles: np.ndarray, dim: int,
              stream: int = STREAM_DYNAMICS) -> np.ndarray:
    """Standard normal draws of shape (len(particles), dim).

    The draw for a given (seed, stream, step, particle, axis) is the same
    no matter how many particles are requested alongside it.  `seed` may
    be an array of R run seeds; the draws then have shape
    (R, len(particles), dim), and row r equals the draws for seed[r].
    """
    h = _counters(seed, stream, step, np.asarray(particles))
    pairs = (dim + 1) // 2
    out = np.empty(h.shape + (2 * pairs,))
    for p in range(pairs):
        # Box-Muller, in place: r = sqrt(-2 log u1), theta = 2 pi u2
        r = _uniform(h, 2 * p)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = _uniform(h, 2 * p + 1)
        theta *= 2.0 * np.pi
        np.multiply(r, np.cos(theta), out=out[..., 2 * p])
        np.sin(theta, out=theta)
        np.multiply(r, theta, out=out[..., 2 * p + 1])
    return out[..., :dim]


def initial_positions(seed, n: int, center, spread: float) -> np.ndarray:
    """Gaussian cloud about the point `center`, in its dimension d;
    position of particle i depends only on (seed, i).

    Growing n extends the ensemble without disturbing existing particles,
    which is what couples systems of different sizes to one another.  An
    array of R seeds gives R clouds, shape (R, n, d).
    """
    center = np.asarray(center, dtype=float)
    z = gaussians(seed, 0, np.arange(n), len(center), stream=STREAM_INIT)
    return center + spread * z


def derive_seed(seed: int, salt: int) -> int:
    """Child seed for an independent sub-experiment (e.g. repeated runs)."""
    with np.errstate(over="ignore"):
        word = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _GAMMA * np.uint64(salt + 17))
    return int(word)
