"""Stream keying: every random draw in a run is addressable by
(seed, domain, key...), so any step of any iteration can be replayed in
isolation. That property is what the oracle equivalence tests stand on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from antbatch import rng


def test_same_key_same_stream():
    a = rng.stream(7, rng.DOMAIN_CONSTRUCT, 3, 2).standard_exponential(32)
    b = rng.stream(7, rng.DOMAIN_CONSTRUCT, 3, 2).standard_exponential(32)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_streams():
    base = rng.stream(7, rng.DOMAIN_CONSTRUCT, 3, 2).standard_exponential(32)
    for other in (
        rng.stream(8, rng.DOMAIN_CONSTRUCT, 3, 2),
        rng.stream(7, rng.DOMAIN_MC, 3, 2),
        rng.stream(7, rng.DOMAIN_CONSTRUCT, 4, 2),
        rng.stream(7, rng.DOMAIN_CONSTRUCT, 3, 3),
    ):
        assert not np.array_equal(base, other.standard_exponential(32))


_EDGE_SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])


def _keyed_philox(seed, iteration):
    """numpy's own Philox, keyed by (seed, DOMAIN_CONSTRUCT, iteration)."""
    return np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=(rng.DOMAIN_CONSTRUCT, iteration)))


_ITERATIONS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]), st.integers(0, 2**40 - 1))


@given(st.one_of(_EDGE_SEEDS, st.integers(0, 2**64 - 1)), _ITERATIONS,
       st.integers(1, 8), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_step_keys_are_seed_sequence_keys(seed, iteration, m, n):
    # the SeedSequence-keyed Philox's first n rows of three raw words set
    # each step's SFC64 (counter word 1), and its next integers() are the
    # start cities
    philox = _keyed_philox(seed, iteration)
    words = philox.random_raw((n, 3))
    expected_starts = np.random.Generator(philox).integers(0, n, m)
    starts, keys = rng.construction_draws(seed, iteration, m, n)
    assert keys.dtype == np.uint64 and keys.shape == (n, 4)
    expected = np.column_stack([words, np.ones(n, dtype=np.uint64)])
    assert keys.tobytes() == expected.tobytes()
    assert starts.tobytes() == expected_starts.tobytes()
    # row s of the states is the same for any colony size and any later step
    wider = rng.construction_draws(seed, iteration, m + 1, 2 * n)[1]
    assert wider[:n].tobytes() == keys.tobytes()


@given(st.one_of(_EDGE_SEEDS, st.integers(0, 2**64 - 1)), _ITERATIONS,
       st.integers(1, 8), st.integers(2, 40), st.data())
@settings(max_examples=40, deadline=None)
def test_step_blocks_are_the_keyed_streams(seed, iteration, m, n, data):
    words = _keyed_philox(seed, iteration).random_raw((n, 3))
    keys = rng.construction_draws(seed, iteration, m, n)[1]
    # draw out of order, so a left-over generator state would show
    for step in data.draw(st.permutations(range(1, n)))[:5]:
        direct = np.random.Generator(np.random.SFC64())
        direct.bit_generator.state = {
            "bit_generator": "SFC64",
            "state": {"state": np.array([*words[step], 1], dtype=np.uint64)},
            "has_uint32": 0, "uinteger": 0}
        e = rng.step_exponentials(keys, step, m, n)
        assert e.tobytes() == direct.standard_exponential((m, n)).tobytes()
        # drawn into a caller's block: the same bits, in that block
        buf = np.full((m, n), np.nan)
        assert rng.step_exponentials(keys, step, m, n, out=buf) is buf
        assert buf.tobytes() == e.tobytes()


def test_construction_draws_reject_negative_inputs():
    with pytest.raises(ValueError):
        rng.construction_draws(-1, 0, 3, 4)
    with pytest.raises(ValueError):
        rng.construction_draws(0, -1, 3, 4)


def test_step_exponentials_shape_and_determinism():
    _, keys = rng.construction_draws(1, 5, 6, 9)
    e1 = rng.step_exponentials(keys, 2, 6, 9)
    e2 = rng.step_exponentials(keys, 2, 6, 9)
    assert e1.shape == (6, 9)
    assert np.array_equal(e1, e2)
    # different iteration or step decorrelates
    _, other = rng.construction_draws(1, 6, 6, 9)
    assert not np.array_equal(e1, rng.step_exponentials(other, 2, 6, 9))
    assert not np.array_equal(e1, rng.step_exponentials(keys, 3, 6, 9))
    for shape in ((9, 6), (6, 8), (6 * 9,)):
        with pytest.raises(ValueError):
            rng.step_exponentials(keys, 2, 6, 9, out=np.empty(shape))


def test_step_uniforms_are_the_blocks_first_column():
    _, keys = rng.construction_draws(3, 0, 1000, 50)
    u = rng.step_uniforms(keys, 1, 1000, 50)
    assert u.shape == (1000,)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    # the uniform view of the shared deviate block, not a separate stream
    e = rng.step_exponentials(keys, 1, 1000, 50)
    assert np.array_equal(u, np.exp(-e[:, 0]))
    # drawing the block into a caller's buffer leaves the thresholds as they are
    buf = np.empty((1000, 50))
    assert rng.step_uniforms(keys, 1, 1000, 50, out=buf).tobytes() == u.tobytes()
    assert buf.tobytes() == e.tobytes()


@pytest.fixture(scope="module")
def colony_step_draws():
    """The draws of one construction at (m, n) = (50, 200), seed 0,
    iteration 0: the Exp(1) blocks and the wheel thresholds of steps 1..199."""
    m, n = 50, 200
    _, keys = rng.construction_draws(0, 0, m, n)
    steps = range(1, n)
    return {
        "exponentials": np.stack([rng.step_exponentials(keys, s, m, n) for s in steps]),
        "uniforms": np.stack([rng.step_uniforms(keys, s, m, n) for s in steps]),
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
    e = rng.step_exponentials(rng.construction_draws(3, 0, 100, 100)[1], 1, 100, 100)
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
