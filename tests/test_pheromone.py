import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antbatch.model import InvalidPermutation, PheromoneState, TAU_MIN, TourBatch
from antbatch.pheromone import (
    accumulate_increments,
    apply_update,
    edge_index_matrix,
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


# index and increment matrices -------------------------------------------------

def test_edge_index_matrix_pairs_each_city_with_predecessor():
    idx = edge_index_matrix(np.array([2, 0, 1]))
    assert idx.shape == (3, 2)
    assert idx.tolist() == [[2, 1], [0, 2], [1, 0]]


def test_edge_index_matrix_rejects_non_permutation():
    with pytest.raises(ValueError):
        edge_index_matrix(np.array([0, 1, 1]))
    # the message names one city, not the whole 300-city tour
    with pytest.raises(InvalidPermutation,
                       match=r"^not a permutation of 0\.\.299: city 7 is missing$"):
        edge_index_matrix(np.where(np.arange(300) == 7, 250, np.arange(300)))


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
