import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from antbatch import rng, selection
from antbatch.model import GammaSchedule
from antbatch.selection import (
    argmax_select_block,
    candidate_chunks,
    gamma_at,
    rw_spin_block,
    scaled_log_weights,
)

from conftest import sample_transformed_deviates, transformed_deviate_pdf


# gamma schedule --------------------------------------------------------------

def test_gamma_at_endpoints():
    s = GammaSchedule(gamma_max=1.5, gamma_min=1.0, period=1000)
    assert gamma_at(0, s) == 1.5
    # just before the period boundary the value sits at the floor
    assert gamma_at(999, s) == pytest.approx(1.0, abs=2e-6)
    # the schedule restarts each period
    assert gamma_at(1000, s) == 1.5


def test_gamma_at_quarter_period():
    s = GammaSchedule(gamma_max=1.5, gamma_min=1.0, period=1000)
    expect = 1.0 + 0.25 * (1.0 + math.cos(math.pi * 0.25))
    assert gamma_at(250, s) == pytest.approx(expect)
    assert gamma_at(250, s) == pytest.approx(1.4268, abs=5e-5)


def test_gamma_at_midpoint_and_monotone_first_half():
    s = GammaSchedule(gamma_max=2.0, gamma_min=0.5, period=100)
    assert gamma_at(50, s) == pytest.approx(1.25)
    vals = [gamma_at(t, s) for t in range(51)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_constant_schedule():
    s = GammaSchedule(gamma_max=1.0, gamma_min=1.0, period=10)
    assert all(gamma_at(t, s) == 1.0 for t in range(25))


# log-domain weights ----------------------------------------------------------

def test_scaled_log_weights_gamma_one_is_plain_log():
    p = np.array([0.5, 0.3, 0.2])
    assert np.array_equal(scaled_log_weights(p, 1.0), np.log(p))


def test_scaled_log_weights_zero_entries_become_neg_inf():
    w = scaled_log_weights(np.array([0.7, 0.0, 0.3]), 1.5)
    assert w[1] == -np.inf
    assert np.isfinite(w[0]) and np.isfinite(w[2])


def test_scaled_log_weights_divides_by_gamma():
    p = np.array([0.25, 0.75])
    assert np.array_equal(scaled_log_weights(p, 2.0), np.log(p) / 2.0)


# roulette kernel -------------------------------------------------------------

def _blocks(m, r):
    """The kernels' caller-owned scratch and index blocks."""
    return np.empty((m, r)), np.empty((m, r), dtype=np.int64)


def _spin(w, u: float) -> int:
    """One roulette spin through the kernel: a one-row block, every city a
    candidate in index order, so the picked column is the city."""
    w = np.asarray(w, dtype=np.float64)
    return int(rw_spin_block(w[None], np.zeros(1, dtype=np.int64), np.array([u]),
                             np.arange(w.size)[None], *_blocks(1, w.size))[0])


def test_rw_spin_hand_cases():
    w = np.array([1.0, 0.0, 3.0])   # cdf [0.25, 0.25, 1.0]
    assert _spin(w, 0.2) == 0
    assert _spin(w, 0.25) == 2    # cdf value 0.25 does not strictly exceed
    assert _spin(w, 0.9) == 2


def test_rw_spin_never_selects_zero_weight():
    w = np.array([0.0, 1.0, 0.0])
    u = np.linspace(0.0, 0.999999, 37)
    m = u.size
    got = rw_spin_block(w[None], np.zeros(m, dtype=np.int64), u,
                        np.broadcast_to(np.arange(3), (m, 3)), *_blocks(m, 3))
    assert np.all(got == 1)


def test_rw_spin_threshold_at_total_falls_back_to_last_positive():
    # u arbitrarily close to 1 rounds to 1.0, which nothing in the CDF
    # strictly exceeds; the spin must still land on a positive weight
    w = np.array([0.3, 0.7, 0.0])
    assert _spin(w, 1.0 - 1e-17) == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_rw_spin_always_positive_weight(seed):
    # m ants at once, each on its own row with its own candidates
    g = np.random.default_rng(seed)
    m, n = int(g.integers(1, 9)), int(g.integers(2, 12))
    r = int(g.integers(1, n + 1))
    p = g.uniform(0.0, 1.0, (m, n)) * (g.uniform(size=(m, n)) < 0.7)
    # each row's candidates: the first r cities of a random permutation
    cand = np.argsort(g.uniform(size=(m, n)), axis=1)[:, :r]
    keep = cand[np.arange(m), g.integers(0, r, m)]   # one positive candidate per row
    p[np.arange(m), keep] = 0.5
    u = g.uniform(size=m)
    u[g.uniform(size=m) < 0.2] = 1.0 - 1e-17
    got = rw_spin_block(p, np.arange(m), u, cand, *_blocks(m, r))
    assert np.all((0 <= got) & (got < r))
    assert np.all(p[np.arange(m), cand[np.arange(m), got]] > 0.0)


def _scalar_spin(weights: list[float], u: float) -> int:
    """The wheel as a running sum over the candidates in their order: the
    first column whose prefix sum exceeds u times the total, else the last
    positive weight; column 0 when every weight is zero."""
    total = 0.0
    for w in weights:
        total += w
    if not total > 0.0:
        return 0
    run = 0.0
    for j, w in enumerate(weights):
        run += w
        if run > u * total:
            return j
    return max(j for j, w in enumerate(weights) if w > 0.0)


_WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
# 1.0 puts u * total at the total, which no prefix sum exceeds; the double
# just below 1 puts it one rounding below a normal total, and at a
# subnormal total it rounds up to it
_THRESHOLDS = (st.sampled_from([0.0, 0.25, 0.5, 1.0, float(np.nextafter(1.0, 0.0))])
               | st.floats(0.0, 1.0))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rw_spin_block_is_the_scalar_spin_over_the_candidates(data):
    n = data.draw(st.integers(1, 9))
    m = data.draw(st.integers(1, 6))
    r = data.draw(st.just(1) | st.integers(1, n))   # single-candidate rows
    table = data.draw(arrays(np.float64, (n, n), elements=_WEIGHTS))
    current = data.draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    cand = np.array([data.draw(st.permutations(range(n))) for _ in range(m)],
                    dtype=np.int64)[:, :r]
    for a in np.flatnonzero(data.draw(arrays(np.bool_, m))):
        table[current[a], cand[a]] = 0.0   # an all-zero row
    u = data.draw(arrays(np.float64, m, elements=_THRESHOLDS))
    scratch, index = _blocks(m, r)
    with np.errstate(invalid="raise"):   # no 0/0, even on all-zero rows
        got = rw_spin_block(table, current, u, cand, scratch, index)
    for a in range(m):
        weights = table[current[a], cand[a]].tolist()
        assert got[a] == _scalar_spin(weights, float(u[a]))
        # the prefix sum at the pick is 0 exactly for an all-zero row
        assert (scratch[a, got[a]] == 0.0) == (sum(weights) == 0.0)


def test_rw_spin_thresholds_at_and_just_below_one():
    # the row's last candidate has weight zero: u = 1.0 puts u * total at
    # the total and takes the fallback; at the double just below 1 the
    # product stays below a normal total, and the last positive weight's
    # prefix sum exceeds it
    w = np.array([0.3, 0.1, 0.7, 0.0])
    below = float(np.nextafter(1.0, 0.0))
    total = float(np.cumsum(w)[-1])
    assert below * total < total
    assert _spin(w, below) == _spin(w, 1.0) == 2
    # at a subnormal total the product rounds up to it
    tiny = np.array([0.0, 5e-324, 0.0])
    assert below * 5e-324 == 5e-324
    assert _spin(tiny, below) == 1


# argmax kernel ---------------------------------------------------------------

def test_argmax_select_block_masks_visited():
    # both ants stand on city 0 with city 1 ahead by weight; ant 1 has
    # visited city 1, which sits past its candidates and is never read
    logw = np.log(np.array([[0.05, 0.9, 0.05]]))
    e = np.array([[0.0, 5.0]] * 2)
    cand = np.array([[1, 2], [2, 0]])
    got = argmax_select_block(logw, np.zeros(2, dtype=np.int64), e, cand, *_blocks(2, 2))
    assert cand[0, got[0]] == 1
    assert cand[1, got[1]] == 2


# few distinct values, so that ties are common; -inf is a zero weight
_LOG_WEIGHTS = st.sampled_from([-np.inf, -7.25, -1.0, -0.5, -0.0, 0.0]) | st.floats(-50.0, 0.0)
_DEVIATES = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 40.0)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_argmax_select_block_is_the_masked_argmax(data):
    # the argmax of table[current, cand] - deviates over the first r
    # candidate columns, every later column masked
    n = data.draw(st.integers(1, 9))
    m = data.draw(st.integers(1, 6))
    r = data.draw(st.integers(1, n))
    table = data.draw(arrays(np.float64, (n, n), elements=_LOG_WEIGHTS))
    if data.draw(st.booleans()):
        table[data.draw(st.integers(0, n - 1))] = -np.inf
    current = data.draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    cand = np.array([data.draw(st.permutations(range(n))) for _ in range(m)],
                    dtype=np.int64)
    deviates = data.draw(arrays(np.float64, (m, n), elements=_DEVIATES))
    scores = np.where(np.arange(n) < r, table[current[:, None], cand] - deviates, -np.inf)
    expected = scores.argmax(1)
    scratch, index = _blocks(m, r)
    # no suppressed flag: the kernel raises none of its own
    with np.errstate(all="raise"):
        got = argmax_select_block(table, current, deviates[:, :r].copy(), cand[:, :r],
                                  scratch, index)
    assert np.array_equal(got, expected)
    # the score at the pick is -inf exactly for a row of zero weights only
    rows = np.arange(m)
    assert np.array_equal(scratch[rows, got] == -np.inf,
                          np.all(table[current[:, None], cand[:, :r]] == -np.inf, axis=1))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_chunk_step_picks_the_full_masked_argmax(data):
    # candidate_chunks and one step of the colony's chunk, bound and
    # fallback rule, outside the colony: a chunk score strictly above its
    # row's bound picks the city the masked argmax over all n cities picks
    # under the same deviates, and a chunk whose cities are all visited or
    # all -inf never decides; a row it does not decide takes the argmax
    # over all n cities, and its score there is -inf exactly when no
    # unvisited city has weight
    n = data.draw(st.integers(3, 12))
    c = data.draw(st.sampled_from(sorted({1, 2, n - 1})))
    m = data.draw(st.integers(1, 6))
    table = data.draw(arrays(np.float64, (n, n), elements=_LOG_WEIGHTS))
    if data.draw(st.booleans()):
        table[data.draw(st.integers(0, n - 1))] = -np.inf
    top, topv, bound = candidate_chunks(table, c)
    current = data.draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    visited = data.draw(arrays(np.bool_, (m, n)))
    visited[np.arange(m), current] = True
    deviates = data.draw(arrays(np.float64, (m, n), elements=_DEVIATES))
    deviates += np.where(visited, np.inf, 0.0)
    full = table[current] - deviates
    expected = full.argmax(1)
    rows = np.arange(m)

    chunk = top[current]
    scratch, index = _blocks(m, c)
    pos = argmax_select_block(topv, current, np.take_along_axis(deviates, chunk, 1),
                              np.broadcast_to(np.arange(c), (m, c)), scratch, index)
    decided = scratch[rows, pos] > bound[current]
    assert np.array_equal(chunk[rows, pos][decided], expected[decided])
    dead_chunk = np.all(np.take_along_axis(visited, chunk, 1)
                        | (np.take_along_axis(table[current], chunk, 1) == -np.inf), axis=1)
    assert not np.any(decided & dead_chunk)

    scratch, index = _blocks(m, n)
    won = argmax_select_block(table, current, deviates, np.broadcast_to(np.arange(n), (m, n)),
                              scratch, index)
    assert np.array_equal(won[~decided], expected[~decided])
    assert np.array_equal(scratch[rows, won] == -np.inf,
                          np.all(visited | (table[current] == -np.inf), axis=1))


def test_candidate_chunks_are_each_rows_largest_entries():
    g = np.random.default_rng(5)
    table = np.round(g.normal(size=(40, 40)), 1)  # with ties
    table[3] = -np.inf
    table[7, :30] = -np.inf
    top, topv, bound = candidate_chunks(table, 16)
    assert np.all(np.diff(top, axis=1) > 0)
    assert np.array_equal(topv, np.take_along_axis(table, top, 1))
    ranked = np.sort(table, axis=1)
    assert np.array_equal(np.sort(topv, axis=1), ranked[:, -16:])
    assert np.array_equal(bound, ranked[:, -17])
    assert bound[3] == -np.inf


def test_candidate_chunks_do_not_depend_on_the_row_block(monkeypatch):
    table = np.log(np.random.default_rng(6).random((50, 50)))
    want = candidate_chunks(table, 8)
    monkeypatch.setattr(selection, "ROW_BLOCK_ENTRIES", 1)  # one row a block
    for a, b in zip(candidate_chunks(table, 8), want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("c", [0, 40])
def test_candidate_chunks_reject_a_chunk_outside_the_row(c):
    with pytest.raises(ValueError, match=rf"chunk must be in \[1, 39\], got {c}"):
        candidate_chunks(np.zeros((40, 40)), c)


def test_power_domain_and_log_domain_agree():
    # argmax(r^g * p) with r = e^-E equals argmax(log(p)/g - E): same
    # ordering, computed in the domain that cannot underflow
    g = np.random.default_rng(11)
    for gamma in (0.5, 1.0, 1.7, 3.0):
        for _ in range(200):
            n = int(g.integers(2, 9))
            p = g.uniform(0.01, 1.0, n)
            e = g.standard_exponential(n)
            r = np.exp(-e)
            power_idx = int(np.argmax(np.power(r, gamma) * p))
            log_idx = argmax_select_block(scaled_log_weights(p, gamma)[None],
                                          np.zeros(1, dtype=np.int64), e[None],
                                          np.arange(n)[None], *_blocks(1, n))[0]
            assert power_idx == log_idx


# mid-tour choice distribution --------------------------------------------------

def _ir_closed_form(w: np.ndarray) -> np.ndarray:
    """P(argmax_j w_j U_j = i) for i.i.d. uniform U: the integral over u of
    prod_{k != i} min(1, w_i u / w_k)."""
    out = np.empty(w.size)
    for i in range(w.size):
        others = np.delete(w, i)
        kinks = sorted(k for k in others / w[i] if k < 1.0)
        out[i] = integrate.quad(lambda u: np.prod(np.minimum(1.0, w[i] * u / others)),
                                0.0, 1.0, points=kinks or None)[0]
    return out


@pytest.mark.parametrize("mech", ["rw", "ir"])
def test_mid_tour_choice_frequencies_ignore_candidate_order(mech):
    # two of seven cities already visited (swapped past the candidates),
    # and every trial row holds the other five in its own random order; the
    # picks must follow the weights renormalized over the unvisited cities
    g = np.random.default_rng(17)
    p = np.array([0.0, 0.3, 0.1, 0.25, 0.05, 0.2, 0.1])
    unvisited = np.array([1, 2, 4, 5, 6])   # 0 is the current city, 3 visited
    trials, r = 200_000, unvisited.size
    cand = np.empty((trials, p.size), dtype=np.int64)
    cand[:, :r] = unvisited[np.argsort(g.uniform(size=(trials, r)), axis=1)]
    cand[:, r:] = [3, 0]
    current = np.zeros(trials, dtype=np.int64)
    if mech == "rw":
        kernel, table, deviates = rw_spin_block, p[None], g.uniform(size=trials)
        expected = p[unvisited] / p[unvisited].sum()
    else:
        kernel, table = argmax_select_block, scaled_log_weights(p, 1.0)[None]
        deviates = g.standard_exponential((trials, r))
        expected = _ir_closed_form(p[unvisited])
    pos = kernel(table, current, deviates, cand[:, :r], *_blocks(trials, r))
    picked = cand[np.arange(trials), pos]
    freq = np.bincount(picked, minlength=p.size) / trials
    assert freq[[0, 3]].sum() == 0.0
    assert np.allclose(freq[unvisited], expected, atol=0.01)


# transformed deviate distribution --------------------------------------------

def test_transformed_deviate_pdf_matches_cdf_mass():
    # pdf has an integrable singularity at 0 for gamma > 1, so integrate
    # on [a, 1] and compare to the closed-form mass 1 - a^(1/gamma)
    a = 0.05
    ys = np.linspace(a, 1.0, 20_001)
    for gamma in (0.5, 1.0, 1.5, 3.0):
        pdf = np.array([transformed_deviate_pdf(float(y), gamma) for y in ys])
        total = np.trapezoid(pdf, ys)
        assert total == pytest.approx(1.0 - a ** (1.0 / gamma), abs=1e-4)


def test_transformed_deviate_pdf_support():
    assert transformed_deviate_pdf(-0.1, 1.5) == 0.0
    assert transformed_deviate_pdf(1.1, 1.5) == 0.0
    assert transformed_deviate_pdf(0.5, 1.0) == pytest.approx(1.0)


def test_transformed_deviates_skew_small_for_gamma_above_one():
    x = sample_transformed_deviates(1.5, 100_000, rng.mc_stream(0, 77))
    assert np.all((x > 0.0) & (x < 1.0))
    # median of X^gamma is (1/2)^gamma < 1/2 when gamma > 1
    assert np.median(x) < 0.5
    assert np.median(x) == pytest.approx(0.5**1.5, abs=0.01)


def test_transformed_deviates_match_cdf():
    # CDF of X^gamma on (0,1) is y^(1/gamma)
    for block, gamma in enumerate((0.5, 2.0)):
        x = sample_transformed_deviates(gamma, 50_000, rng.mc_stream(1, block))
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert (x <= q).mean() == pytest.approx(q ** (1.0 / gamma), abs=0.02)
