import numpy as np

from cbolab import streams


def test_prefix_property_across_ensemble_sizes():
    small = streams.gaussians(42, 3, np.arange(10), 2)
    large = streams.gaussians(42, 3, np.arange(1000), 2)
    assert np.array_equal(small, large[:10])


def test_repeatable():
    a = streams.gaussians(7, 5, np.arange(64), 3)
    b = streams.gaussians(7, 5, np.arange(64), 3)
    assert np.array_equal(a, b)


def test_different_counters_differ():
    base = streams.gaussians(7, 5, np.arange(64), 2)
    assert not np.array_equal(base, streams.gaussians(8, 5, np.arange(64), 2))
    assert not np.array_equal(base, streams.gaussians(7, 6, np.arange(64), 2))
    assert not np.array_equal(
        base, streams.gaussians(7, 5, np.arange(64), 2, stream=streams.STREAM_INIT))


def test_moments():
    z = streams.gaussians(1, 0, np.arange(200_000), 2).ravel()
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01
    assert abs((z**3).mean()) < 0.03
    assert abs((z**4).mean() - 3.0) < 0.05


def test_step_to_step_decorrelation():
    a = streams.gaussians(1, 0, np.arange(100_000), 1).ravel()
    b = streams.gaussians(1, 1, np.arange(100_000), 1).ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_initial_positions_prefix_and_geometry():
    pos = streams.initial_positions(3, 5000, 2, [1.0, -2.0], 0.5)
    assert np.array_equal(pos[:100], streams.initial_positions(3, 100, 2, [1.0, -2.0], 0.5))
    assert np.allclose(pos.mean(axis=0), [1.0, -2.0], atol=0.05)
    assert abs(pos.std(axis=0).mean() - 0.5) < 0.02


def _mix_expression(x):
    """The splitmix64 finalizer, one new array per operation."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def test_in_place_mix_equals_the_expression():
    rng = np.random.default_rng(3)
    words = rng.integers(0, np.iinfo(np.uint64).max, size=(3, 1000),
                         dtype=np.uint64, endpoint=True)
    with np.errstate(over="ignore"):
        for x in (words, words[0], words[:, ::7], np.array(words[0, 0]),
                  words[0, 0], np.uint64(0), np.uint64(2**64 - 1)):
            before = np.array(x, copy=True)
            ref = _mix_expression(x)
            got = streams._mix(x)
            assert got.shape == np.shape(ref) and np.array_equal(got, ref)
            assert np.array_equal(x, before)        # the input is kept
            own = np.array(x, copy=True)
            assert streams._mix(own, out=own) is own
            assert np.array_equal(own, ref)


def _reference_gaussians(seed, step, n, dim, stream=streams.STREAM_DYNAMICS):
    """The documented hash chain, hashing every slot from scratch."""
    def mix(x):
        x = np.array(x, dtype=np.uint64)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            x ^= x >> np.uint64(shift)
            x *= np.uint64(mult)
        return x ^ (x >> np.uint64(31))

    gamma = np.uint64(0x9E3779B97F4A7C15)

    def uniform(slot):
        key = mix(mix(np.uint64(seed) + gamma * np.uint64(stream))
                  + gamma * np.uint64(step + 1))
        particle = mix(key + gamma * (np.arange(n, dtype=np.uint64) + np.uint64(1)))
        words = mix(particle + gamma * np.uint64(slot + 1))
        return ((words >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53

    cols = []
    with np.errstate(over="ignore"):
        for p in range((dim + 1) // 2):
            r = np.sqrt(-2.0 * np.log(uniform(2 * p)))
            theta = 2.0 * np.pi * uniform(2 * p + 1)
            cols += [r * np.cos(theta), r * np.sin(theta)]
    return np.stack(cols, axis=1)[:, :dim]


def test_draws_are_the_documented_function_of_the_counter():
    for seed, step, n, dim in ((42, 3, 200, 4), (2**64 - 1, 0, 17, 3), (5, 499, 64, 1)):
        assert np.array_equal(streams.gaussians(seed, step, np.arange(n), dim),
                              _reference_gaussians(seed, step, n, dim))


def test_seed_array_stacks_per_seed_draws():
    seeds = [streams.derive_seed(9, r) for r in range(6)]
    batch = streams.gaussians(np.array(seeds, dtype=np.uint64), 7, np.arange(50), 3)
    assert batch.shape == (6, 50, 3)
    assert np.array_equal(batch, np.stack(
        [streams.gaussians(s, 7, np.arange(50), 3) for s in seeds]))
    clouds = streams.initial_positions(np.array(seeds, dtype=np.uint64), 50, 3,
                                       [1.0, 0.0, -1.0], 0.5)
    assert np.array_equal(clouds, np.stack(
        [streams.initial_positions(s, 50, 3, [1.0, 0.0, -1.0], 0.5) for s in seeds]))


def test_derive_seed_spreads():
    children = {streams.derive_seed(0, k) for k in range(100)}
    assert len(children) == 100
