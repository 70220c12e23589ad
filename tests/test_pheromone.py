import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antbatch.model import InvalidPermutation, PheromoneState, TAU_MIN, TourBatch
from antbatch.oracle import sequential_increment_sum
from antbatch.pheromone import (
    accumulate_increments,
    apply_update,
    select_elite,
)


def batch_of(tours, costs):
    return TourBatch(tours=np.asarray(tours, dtype=np.int64),
                     costs=np.asarray(costs, dtype=np.float64))


# elite selection -------------------------------------------------------------

def test_select_elite_picks_k_cheapest_in_rank_order():
    b = batch_of([[0, 1, 2], [2, 0, 1], [1, 2, 0], [0, 2, 1]],
                 [9.0, 3.0, 7.0, 5.0])
    elites = select_elite(b, 2)
    assert [c for _, c in elites] == [3.0, 5.0]
    assert np.array_equal(elites[0][0], [2, 0, 1])


def test_select_elite_breaks_ties_by_row_index():
    b = batch_of([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [4.0, 4.0, 1.0])
    elites = select_elite(b, 2)
    assert np.array_equal(elites[0][0], [2, 0, 1])
    assert np.array_equal(elites[1][0], [0, 1, 2])  # row 1 loses the tie


def test_select_elite_bounds():
    b = batch_of([[0, 1, 2]], [1.0])
    with pytest.raises(ValueError):
        select_elite(b, 0)
    with pytest.raises(ValueError):
        select_elite(b, 2)


# elite deposit ------------------------------------------------------------------

def test_accumulate_pairs_each_city_with_predecessor():
    a = accumulate_increments([(np.array([2, 0, 3, 1]), 2.0)], n=4)
    # the closed tour 2-0-3-1-2: each city with its predecessor, both ways
    edges = {(2, 1), (0, 2), (3, 0), (1, 3)}
    cells = edges | {(j, i) for i, j in edges}
    for i in range(4):
        for j in range(4):
            assert a[i, j] == (0.5 if (i, j) in cells else 0.0)


def test_accumulate_rejects_non_permutation():
    with pytest.raises(ValueError):
        accumulate_increments([(np.array([0, 1, 1]), 1.0)], 3)
    # the message names one city, not the whole 300-city tour
    good = np.arange(300)
    bad = np.where(good == 7, 250, good)
    with pytest.raises(InvalidPermutation,
                       match=r"^not a permutation of 0\.\.299: city 7 is missing$"):
        accumulate_increments([(bad, 1.0)], 300)
    # the first bad elite is named, wherever it ranks
    with pytest.raises(InvalidPermutation, match=r"city 7 is missing$"):
        accumulate_increments([(good, 1.0), (bad, 2.0), (good[::-1], 3.0)], 300)
    # tours of another length than n
    with pytest.raises(InvalidPermutation, match=r"^not a permutation of 0\.\.3: "):
        accumulate_increments([(np.arange(3), 1.0)], 4)


@st.composite
def elite_sets(draw):
    """n in 4..8 and up to 12 elites drawn from a small pool of tours, so
    the same tour (and the same edges) repeat across ranks."""
    n = draw(st.integers(4, 8))
    pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    costs = draw(st.lists(st.floats(1.0, 1e4), min_size=len(picks),
                          max_size=len(picks)))
    return n, [(np.array(pool[i]), c) for i, c in zip(picks, costs)]


@given(elite_sets())
@settings(max_examples=200, deadline=None)
def test_accumulate_is_bitwise_the_sequential_edge_loop(case):
    n, elites = case
    got = accumulate_increments(elites, n)
    assert got.tobytes() == sequential_increment_sum(elites, n).tobytes()


def test_increment_matrix_hand_case():
    a = accumulate_increments([(np.array([0, 1, 2]), 4.0)], n=3)
    # every edge of the cycle carries 1/cost in both orientations
    expect = np.array([
        [0.0, 0.25, 0.25],
        [0.25, 0.0, 0.25],
        [0.25, 0.25, 0.0],
    ])
    assert np.array_equal(a, expect)


def test_increment_matrix_has_2n_nonzeros():
    t = np.array([3, 0, 4, 1, 2])
    a = accumulate_increments([(t, 10.0)], n=5)
    assert np.count_nonzero(a) == 10
    assert np.array_equal(a, a.T)


def test_accumulate_equals_sum_of_increment_matrices():
    g = np.random.default_rng(0)
    n = 7
    elites = [(g.permutation(n), float(g.uniform(5.0, 50.0)))
              for _ in range(4)]
    acc = accumulate_increments(elites, n)
    total = np.zeros((n, n))
    for tour, cost in elites:
        total += accumulate_increments([(tour, cost)], n)
    assert np.array_equal(acc, total)


def test_accumulate_requires_nonempty():
    with pytest.raises(ValueError):
        accumulate_increments([], 5)


@given(st.integers(0, 2**32 - 1), st.integers(4, 20), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_accumulate_is_symmetric_nonnegative(seed, n, k):
    g = np.random.default_rng(seed)
    elites = [(g.permutation(n), float(g.uniform(1.0, 100.0)))
              for _ in range(k)]
    acc = accumulate_increments(elites, n)
    assert np.array_equal(acc, acc.T)
    assert np.all(acc >= 0.0)
    assert np.all(np.diag(acc) == 0.0)
    # per-row deposit counts: each tour touches each city exactly twice
    assert np.count_nonzero(acc) <= 2 * n * k


# update ----------------------------------------------------------------------

def test_apply_update_formula():
    tau0 = PheromoneState(tau=np.full((3, 3), 2.0) - 2.0 * np.eye(3))
    delta = np.array([
        [0.0, 0.5, 0.0],
        [0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    out = apply_update(tau0, delta, rho=0.25)
    assert out.tau[0, 1] == 2.0 * 0.75 + 0.5
    assert out.tau[0, 2] == 1.5
    # input state untouched
    assert tau0.tau[0, 1] == 2.0


def test_apply_update_floors_at_tau_min():
    tau0 = PheromoneState(tau=np.full((3, 3), TAU_MIN) * 2.0)
    out = apply_update(tau0, np.zeros((3, 3)), rho=0.999)
    off = ~np.eye(3, dtype=bool)
    assert np.all(out.tau[off] == TAU_MIN)


def test_apply_update_validates_rho():
    tau0 = PheromoneState(tau=np.ones((3, 3)))
    for rho in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            apply_update(tau0, np.zeros((3, 3)), rho=rho)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_apply_update_keeps_tau_positive(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(4, 12))
    tau0 = PheromoneState(tau=g.uniform(TAU_MIN, 2.0, (n, n)))
    elites = [(g.permutation(n), float(g.uniform(1.0, 9.0)))]
    out = apply_update(tau0, accumulate_increments(elites, n),
                       rho=float(g.uniform(0.01, 0.99)))
    assert np.all(out.tau[~np.eye(n, dtype=bool)] >= TAU_MIN)
    assert np.isfinite(out.tau).all()
