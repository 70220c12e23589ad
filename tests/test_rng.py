"""Stream keying: each generator of a run is keyed by (seed, domain, index),
the construction's by iteration and the Monte-Carlo estimator's by trial
block, so any iteration can be replayed in isolation: its construction
draws the start cities and then every step's block, in step order, from
the iteration's own generator. That property is what the oracle
equivalence tests stand on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from antbatch import rng


def test_same_key_same_stream():
    a = rng.mc_stream(7, 3).standard_exponential(32)
    b = rng.mc_stream(7, 3).standard_exponential(32)
    assert np.array_equal(a, b)
    # the Monte-Carlo key is the Philox of the (DOMAIN_MC, block) spawn key
    direct = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=7, spawn_key=(rng.DOMAIN_MC, 3))))
    assert np.array_equal(a, direct.standard_exponential(32))


def test_distinct_keys_distinct_streams():
    base = rng.mc_stream(7, 3).standard_exponential(32)
    for other in (rng.mc_stream(8, 3), rng.mc_stream(7, 4), rng.mc_stream(2**64 - 1, 3)):
        assert not np.array_equal(base, other.standard_exponential(32))
    # a negative seed or block is no key
    for seed, block in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            rng.mc_stream(seed, block)


_EDGE_SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])


def _keyed_sfc64(seed, iteration):
    """numpy's own SFC64, keyed by (seed, DOMAIN_CONSTRUCT, iteration)."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        entropy=seed, spawn_key=(rng.DOMAIN_CONSTRUCT, iteration))))


_ITERATIONS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]), st.integers(0, 2**40 - 1))


@given(st.one_of(_EDGE_SEEDS, st.integers(0, 2**64 - 1)), _ITERATIONS,
       st.integers(1, 8), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_step_keys_are_seed_sequence_keys(seed, iteration, m, n):
    # the construction's generator is the SeedSequence-keyed SFC64, and its
    # first integers() are the start cities
    direct = _keyed_sfc64(seed, iteration)
    expected_starts = direct.integers(0, n, m)
    starts, g = rng.construction_draws(seed, iteration, m, n)
    assert isinstance(g, np.random.Generator)
    assert isinstance(g.bit_generator, np.random.SFC64)
    assert starts.dtype == np.int64
    assert starts.tobytes() == expected_starts.tobytes()
    # the steps draw on from where the starts left off
    assert np.array_equal(g.bit_generator.random_raw(4), direct.bit_generator.random_raw(4))


@given(st.one_of(_EDGE_SEEDS, st.integers(0, 2**64 - 1)), _ITERATIONS,
       st.integers(1, 8), st.integers(2, 40), st.booleans())
@settings(max_examples=40, deadline=None)
def test_step_blocks_are_the_keyed_streams(seed, iteration, m, n, into_out):
    # step s's (m, n - s) block is the keyed SFC64's next
    # standard_exponential after the starts and the blocks of steps 1..s-1
    direct = _keyed_sfc64(seed, iteration)
    direct.integers(0, n, m)
    g = rng.construction_draws(seed, iteration, m, n)[1]
    for step in range(1, n):
        r = n - step
        expected = direct.standard_exponential((m, r))
        if into_out:
            # drawn into a caller's block: the same bits, in that block
            buf = np.full((m, r), np.nan)
            assert rng.step_exponentials(g, m, r, out=buf) is buf
            assert buf.tobytes() == expected.tobytes()
        else:
            assert rng.step_exponentials(g, m, r).tobytes() == expected.tobytes()


def test_construction_draws_reject_negative_inputs():
    with pytest.raises(ValueError):
        rng.construction_draws(-1, 0, 3, 4)
    with pytest.raises(ValueError):
        rng.construction_draws(0, -1, 3, 4)


def test_step_exponentials_shape_and_determinism():
    e1 = rng.step_exponentials(rng.construction_draws(1, 5, 6, 9)[1], 6, 9)
    e2 = rng.step_exponentials(rng.construction_draws(1, 5, 6, 9)[1], 6, 9)
    assert e1.shape == (6, 9)
    assert np.array_equal(e1, e2)
    # a different iteration, or the next step of the same one, decorrelates
    other = rng.construction_draws(1, 6, 6, 9)[1]
    assert not np.array_equal(e1, rng.step_exponentials(other, 6, 9))
    g = rng.construction_draws(1, 5, 6, 9)[1]
    rng.step_exponentials(g, 6, 9)
    assert not np.array_equal(e1, rng.step_exponentials(g, 6, 9))
    for shape in ((9, 6), (6, 8), (6 * 9,)):
        with pytest.raises(ValueError):
            rng.step_exponentials(g, 6, 9, out=np.empty(shape))


def test_step_uniforms_are_the_blocks_first_column():
    def fresh():
        return rng.construction_draws(3, 0, 1000, 50)[1]

    u = rng.step_uniforms(fresh(), 1000, 50)
    assert u.shape == (1000,)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    # the uniform view of the shared deviate block, not a separate stream
    e = rng.step_exponentials(fresh(), 1000, 50)
    assert np.array_equal(u, np.exp(-e[:, 0]))
    # drawing the block into a caller's buffer leaves the thresholds as they are
    buf = np.empty((1000, 50))
    assert rng.step_uniforms(fresh(), 1000, 50, out=buf).tobytes() == u.tobytes()
    assert buf.tobytes() == e.tobytes()


@pytest.fixture(scope="module")
def colony_step_draws():
    """The draws of one construction at (m, n) = (50, 200), seed 0,
    iteration 0, in step order: the Exp(1) blocks of steps 1..199 and,
    from a second generator of the same key, the wheel thresholds (the
    colony's blocks shrink by a column per step; these keep all n)."""
    m, n = 50, 200
    g = rng.construction_draws(0, 0, m, n)[1]
    h = rng.construction_draws(0, 0, m, n)[1]
    steps = range(1, n)
    return {
        "exponentials": np.stack([rng.step_exponentials(g, m, n) for _ in steps]),
        "uniforms": np.stack([rng.step_uniforms(h, m, n) for _ in steps]),
    }


@pytest.mark.parametrize("draw, cdf", [("exponentials", "expon"), ("uniforms", "uniform")])
def test_colony_step_draws_are_distributed(colony_step_draws, draw, cdf):
    # the blocks the colony consumes, not the Monte-Carlo stream the
    # closed-form checks read
    x = colony_step_draws[draw]
    assert stats.kstest(x.ravel(), cdf).pvalue > 1e-4
    # an ant's draw at one step says nothing about its draw at the next
    first = x[..., 0] if draw == "exponentials" else x
    r = np.corrcoef(first[:-1].ravel(), first[1:].ravel())[0, 1]
    assert abs(r) < 0.05


def test_exponentials_are_positive():
    # log-domain selection needs strictly positive deviates: e^-E < 1
    e = rng.step_exponentials(rng.construction_draws(3, 0, 100, 100)[1], 100, 100)
    assert np.all(e > 0.0)


def test_start_cities_cover_range():
    s = rng.construction_draws(0, 4, 5000, 7)[0]
    assert s.shape == (5000,)
    assert s.min() >= 0 and s.max() < 7
    assert len(np.unique(s)) == 7
    assert np.array_equal(s, rng.construction_draws(0, 4, 5000, 7)[0])


def test_start_cities_deterministic_and_in_range():
    # the starts of the iteration's construction draws
    s1 = rng.construction_draws(3, 0, 64, 7)[0]
    assert np.array_equal(s1, rng.construction_draws(3, 0, 64, 7)[0])
    assert s1.min() >= 0 and s1.max() < 7
    assert np.array_equal(s1, rng.construction_draws(3, 0, 64, 7)[0])


def test_mc_stream_blocks_are_independent():
    a = rng.mc_stream(0, 0).standard_exponential(16)
    b = rng.mc_stream(0, 1).standard_exponential(16)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, rng.mc_stream(0, 0).standard_exponential(16))


def test_domains_are_distinct_constants():
    assert rng.DOMAIN_CONSTRUCT != rng.DOMAIN_MC
