"""Pins the floating-point facts the bit-exactness tests lean on.

The batched pipeline and the per-ant reference solver share scalar kernels,
but they still apply elementwise ops to differently shaped views and sum in
different call patterns. Each test here pins one concrete behavior; if a
numpy upgrade breaks one, the equivalence suite's failure will point here
first.
"""

import numpy as np
import pytest

RNG = np.random.default_rng(20240612)


def test_elementwise_ufuncs_are_shape_independent():
    # f(A)[i] must equal f(A[i]) bitwise, or a matrix-level log/power would
    # diverge from the same op applied to one row at a time.
    a = RNG.uniform(0.1, 5.0, size=(37, 53))
    for f in (np.log, np.sqrt, lambda x: np.power(x, 2.7)):
        whole = f(a)
        for i in range(a.shape[0]):
            assert np.array_equal(whole[i], f(a[i]))


def test_row_sum_matches_per_row_sum():
    a = RNG.uniform(0.0, 1.0, size=(41, 67))
    s = a.sum(axis=1)
    for i in range(a.shape[0]):
        assert s[i] == np.sum(a[i])


def test_cumsum_is_sequential_accumulation():
    w = RNG.uniform(0.0, 2.0, size=257)
    c = np.cumsum(w)
    acc = 0.0
    for i, x in enumerate(w.tolist()):
        acc += x
        assert c[i] == acc


def test_argmax_takes_first_of_ties():
    a = np.array([1.0, 3.0, 3.0, 2.0, 3.0])
    assert np.argmax(a) == 1
    b = np.zeros(5)
    assert np.argmax(b) == 0


def test_bool_mask_multiply_equals_float_mask_multiply():
    # x*True == x*1.0 == x and x*False == x*0.0 == 0.0, so masking with a
    # bool array is bit-identical to masking with its float cast.
    p = RNG.uniform(0.0, 1.0, size=512)
    mask = RNG.uniform(size=512) < 0.4
    assert np.array_equal(p * ~mask, p * (~mask).astype(np.float64))
    assert np.array_equal(p * ~mask, np.where(mask, 0.0, p))


def test_division_by_one_is_identity():
    # the adaptive mechanism at exponent 1 must match plain independent
    # roulette bit for bit; that reduces to x/1.0 == x.
    x = RNG.uniform(-700.0, 700.0, size=4096)
    assert np.array_equal(np.divide(x, 1.0), x)


def test_add_at_adds_repeated_cells_in_index_order():
    # the elite deposit scatters all elites' pairs with one np.add.at; each
    # cell must sum its repeated indices in index order, as a loop does.
    # Few cells and values spread over many magnitudes make the order show.
    g = np.random.default_rng(5)
    n, size = 3, 400
    rows = g.integers(0, n, size=size)
    cols = g.integers(0, n, size=size)
    vals = g.uniform(0.1, 1.0, size=size) * 10.0 ** g.integers(-8, 9, size=size)
    a = np.zeros((n, n))
    np.add.at(a, (rows, cols), vals)
    b = np.zeros((n, n))
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        b[i, j] += v
    assert a.tobytes() == b.tobytes()
    # the data is order-sensitive: the reversed order gives other bits
    r = np.zeros((n, n))
    np.add.at(r, (rows[::-1], cols[::-1]), vals[::-1])
    assert r.tobytes() != a.tobytes()


def test_philox_streams_are_reproducible_and_keyed():
    ss1 = np.random.SeedSequence(entropy=42, spawn_key=(0, 3, 4))
    ss2 = np.random.SeedSequence(entropy=42, spawn_key=(0, 3, 4))
    ss3 = np.random.SeedSequence(entropy=42, spawn_key=(0, 3, 5))
    g1 = np.random.Generator(np.random.Philox(ss1))
    g2 = np.random.Generator(np.random.Philox(ss2))
    g3 = np.random.Generator(np.random.Philox(ss3))
    a, b, c = (g.standard_exponential(64) for g in (g1, g2, g3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_exponential_block_rows_do_not_depend_on_later_rows():
    # the per-ant reference iterates rows of the same (m, n) deviate block
    # the batched step consumes whole; same key, same block, same rows.
    def block(shape):
        g = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=7, spawn_key=(1, 2))))
        return g.standard_exponential(shape)

    full = block((8, 16))
    again = block((8, 16))
    assert np.array_equal(full, again)


@pytest.mark.parametrize("mode", ["raise", "clip"])
def test_take_rows_equals_row_indexing(mode):
    # the kernels gather with mode="clip", which leaves in-range indices
    # where they are (the default "raise" buffers out)
    a = RNG.uniform(size=(12, 7))
    idx = RNG.integers(0, 12, size=30)
    out = np.empty((30, 7))
    np.take(a, idx, axis=0, out=out, mode=mode)
    assert np.array_equal(out, a[idx])


def test_all_zero_rows_show_at_the_pick():
    # construct_tours flags an ant whose candidates all weigh zero by the
    # kernel's entry at the pick: -inf - E stays -inf for a finite deviate,
    # the wheel's 0/0 CDF is NaN, and neither compares above -inf; a
    # positive total divides itself to exactly 1.0, the CDF's top
    e = np.array([0.0, 1e-300, 3.5, 700.0])
    assert np.all(-np.inf - e == -np.inf)
    with np.errstate(invalid="ignore"):
        cdf = np.divide(np.zeros(3), 0.0)
    assert np.all(np.isnan(cdf))
    assert not np.any(np.array([-np.inf, np.nan]) > -np.inf)
    x = RNG.uniform(1e-300, 1e300, size=4096)
    assert np.all(x / x == 1.0)
