"""Stream keying: every random draw in a run is addressable by
(seed, domain, key...), so any step of any iteration can be replayed in
isolation. That property is what the oracle equivalence tests stand on."""

import numpy as np

from antbatch import rng


def test_same_key_same_stream():
    a = rng.stream(7, rng.DOMAIN_CONSTRUCT, 3, 2).standard_exponential(32)
    b = rng.stream(7, rng.DOMAIN_CONSTRUCT, 3, 2).standard_exponential(32)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_streams():
    base = rng.stream(7, rng.DOMAIN_CONSTRUCT, 3, 2).standard_exponential(32)
    for other in (
        rng.stream(8, rng.DOMAIN_CONSTRUCT, 3, 2),
        rng.stream(7, rng.DOMAIN_START, 3, 2),
        rng.stream(7, rng.DOMAIN_CONSTRUCT, 4, 2),
        rng.stream(7, rng.DOMAIN_CONSTRUCT, 3, 3),
    ):
        assert not np.array_equal(base, other.standard_exponential(32))


def test_step_exponentials_shape_and_determinism():
    e1 = rng.step_exponentials(1, 5, 2, 6, 9)
    e2 = rng.step_exponentials(1, 5, 2, 6, 9)
    assert e1.shape == (6, 9)
    assert np.array_equal(e1, e2)
    # different iteration or step decorrelates
    assert not np.array_equal(e1, rng.step_exponentials(1, 6, 2, 6, 9))
    assert not np.array_equal(e1, rng.step_exponentials(1, 5, 3, 6, 9))


def test_step_uniforms_are_the_blocks_first_column():
    u = rng.step_uniforms(3, 0, 1, 1000, 50)
    assert u.shape == (1000,)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    # the uniform view of the shared deviate block, not a separate stream
    e = rng.step_exponentials(3, 0, 1, 1000, 50)
    assert np.array_equal(u, np.exp(-e[:, 0]))


def test_exponentials_are_positive():
    # log-domain selection needs strictly positive deviates: e^-E < 1
    e = rng.step_exponentials(3, 0, 1, 100, 100)
    assert np.all(e > 0.0)


def test_start_cities_cover_range():
    s = rng.start_cities(0, 4, 5000, 7)
    assert s.shape == (5000,)
    assert s.min() >= 0 and s.max() < 7
    assert len(np.unique(s)) == 7
    assert np.array_equal(s, rng.start_cities(0, 4, 5000, 7))


def test_start_cities_deterministic_and_in_range():
    # the draw is the first integers() call on the (seed, START, iteration) stream
    s1 = rng.start_cities(3, 0, 64, 7)
    assert np.array_equal(s1, rng.start_cities(3, 0, 64, 7))
    assert s1.min() >= 0 and s1.max() < 7
    direct = rng.stream(3, rng.DOMAIN_START, 0).integers(0, 7, size=64, dtype=np.int64)
    assert np.array_equal(s1, direct)


def test_mc_stream_blocks_are_independent():
    a = rng.mc_stream(0, 0).standard_exponential(16)
    b = rng.mc_stream(0, 1).standard_exponential(16)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, rng.mc_stream(0, 0).standard_exponential(16))


def test_domains_are_distinct_constants():
    assert len({rng.DOMAIN_CONSTRUCT, rng.DOMAIN_START, rng.DOMAIN_MC}) == 3
