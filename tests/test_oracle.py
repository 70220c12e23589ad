import math
import tracemalloc

import numpy as np
import pytest

from antbatch.colony import Colony, compute_probability_matrix
from antbatch.model import AcoParams, GammaSchedule, PheromoneState, Selection, build_instance
from antbatch import oracle, rng
from antbatch.oracle import (
    InstanceTooLarge,
    brute_force_tsp,
    empirical_selection_distribution,
    scalar_probability_reference,
    sequential_aco_step,
    sequential_increment_sum,
)
from antbatch.pheromone import accumulate_increments
from antbatch.selection import CHUNK, AllZeroWeights
from antbatch.tsplib import parse_instance

from conftest import euclidean_instance, load_bundled, random_metric_instance, tour_cost


# brute force -----------------------------------------------------------------

def test_unit_square_optimum_is_perimeter():
    inst = euclidean_instance(np.array([[0.0, 0.0], [1.0, 0.0],
                                        [1.0, 1.0], [0.0, 1.0]]))
    res = brute_force_tsp(inst)
    assert res.best_cost == pytest.approx(4.0)
    assert res.tours_enumerated == 3  # (4-1)!/2


def test_square_with_center_optimum(square5):
    # corners in order plus the center spliced between adjacent corners:
    # three unit edges + two half-diagonals
    res = brute_force_tsp(square5)
    assert res.best_cost == pytest.approx(3.0 + math.sqrt(2.0))
    assert res.tours_enumerated == 12  # (5-1)!/2


def test_brute_force_canonical_orientation():
    inst = random_metric_instance(np.random.default_rng(8), 7)
    res = brute_force_tsp(inst)
    t = res.best_tour
    assert t[0] == 0
    assert t[1] < t[-1]  # lexicographically first of the two directions
    assert res.tours_enumerated == math.factorial(6) // 2
    assert tour_cost(np.array(t), inst) == pytest.approx(res.best_cost)


def test_brute_force_never_undercut_by_random_tours():
    g = np.random.default_rng(5)
    inst = random_metric_instance(g, 8)
    res = brute_force_tsp(inst)
    for _ in range(1000):
        assert tour_cost(g.permutation(8), inst) >= res.best_cost


def test_brute_force_size_cap():
    inst = random_metric_instance(np.random.default_rng(1), 12)
    with pytest.raises(InstanceTooLarge):
        brute_force_tsp(inst)


# scalar references ------------------------------------------------------------

def test_scalar_probability_reference_close_to_vectorized():
    g = np.random.default_rng(2)
    inst = random_metric_instance(g, 9)
    tau = PheromoneState(tau=g.uniform(0.2, 3.0, (9, 9)))
    params = AcoParams(m=4, k=1, alpha=1.3, beta=2.4)
    ref = scalar_probability_reference(tau, inst, params)
    vec = compute_probability_matrix(tau, inst, params).p
    assert np.allclose(ref, vec, rtol=1e-12, atol=0.0)


def test_sequential_increment_sum_matches_accumulate_exactly():
    g = np.random.default_rng(3)
    n = 9
    elites = [(g.permutation(n), float(g.integers(5, 60)))
              for _ in range(5)]
    assert np.array_equal(sequential_increment_sum(elites, n),
                          accumulate_increments(elites, n))


# full-step equivalence (smoke; the acceptance suite runs the full protocol) ---

@pytest.mark.parametrize("mech", list(Selection))
def test_sequential_step_matches_pipeline(mech):
    inst = random_metric_instance(np.random.default_rng(10), 7)
    params = AcoParams(m=5, k=2, selection=mech, seed=42)
    colony = Colony(inst, params)
    for it in range(3):
        oracle_batch, tau_oracle = sequential_aco_step(colony.tau, inst, params, it)
        batch = colony.iterate(it)
        assert np.array_equal(batch.tours, oracle_batch.tours)
        assert np.array_equal(batch.costs, oracle_batch.costs)
        assert np.allclose(colony.tau.tau, tau_oracle.tau, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("beta", [0.1, 2.0])
@pytest.mark.parametrize("mech", list(Selection))
def test_sequential_step_matches_pipeline_on_coincident_cities(mech, beta):
    # cities 0 and 1, and 4 and 5, coincide: both sides clamp their distance
    # to ETA_CLAMP when deriving eta (at beta = 0.1 the twin is the likely
    # pick, not a certain one, so with 64 ants a different clamp on one side
    # changes the tours of every mechanism)
    raw = parse_instance(
        "DIMENSION : 8\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
        "1 0 0\n2 0 0\n3 40 10\n4 70 60\n5 20 80\n6 20 80\n7 90 5\n8 55 35\n")
    inst = build_instance(raw, lenient=True)
    params = AcoParams(m=64, k=2, beta=beta, selection=mech, seed=42)
    colony = Colony(inst, params)
    assert np.isfinite(colony.prob.p).all()
    assert np.allclose(colony.prob.p, scalar_probability_reference(colony.tau, inst, params),
                       rtol=1e-12, atol=0.0)
    for it in range(3):
        oracle_batch, tau_oracle = sequential_aco_step(colony.tau, inst, params, it)
        batch = colony.iterate(it)
        assert np.array_equal(batch.tours, oracle_batch.tours)
        assert np.array_equal(batch.costs, oracle_batch.costs)
        assert np.allclose(colony.tau.tau, tau_oracle.tau, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("beta", [120.0, 150.0])
@pytest.mark.parametrize("mech", list(Selection))
def test_sequential_step_matches_pipeline_at_high_beta(mech, beta):
    # tau^alpha * eta^beta underflows entry by entry on rnd120 at these
    # betas, so both sides rebuild rows in the log domain
    inst = load_bundled("rnd120.tsp")
    params = AcoParams(m=8, k=1, beta=beta, selection=mech, seed=0)
    colony = Colony(inst, params)
    assert np.allclose(colony.prob.p, scalar_probability_reference(colony.tau, inst, params),
                       rtol=1e-12, atol=0.0)
    for it in range(2):
        oracle_batch, tau_oracle = sequential_aco_step(colony.tau, inst, params, it)
        batch = colony.iterate(it)
        assert np.array_equal(batch.tours, oracle_batch.tours)
        assert np.array_equal(batch.costs, oracle_batch.costs)
        assert np.allclose(colony.tau.tau, tau_oracle.tau, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mech", list(Selection))
def test_sequential_step_matches_pipeline_past_the_chunk(mech, monkeypatch):
    # n = 120 > CHUNK + 1 at the default beta: the ants whose chunk of
    # CHUNK cities does not decide fall back to all n cities, on both sides
    n = 120
    inst = random_metric_instance(np.random.default_rng(5), n)
    params = AcoParams(m=4, k=2, selection=mech, seed=8,
                       gamma_schedule=GammaSchedule(period=4))
    widths = []
    real = rng.step_exponentials

    def spy(g, m, r, out=None):
        widths.append(r)
        return real(g, m, r, out)

    monkeypatch.setattr(rng, "step_exponentials", spy)
    colony = Colony(inst, params)
    for it in range(4):
        oracle_batch, tau_oracle = sequential_aco_step(colony.tau, inst, params, it)
        batch = colony.iterate(it)
        assert np.array_equal(batch.tours, oracle_batch.tours)
        assert np.array_equal(batch.costs, oracle_batch.costs)
        assert np.allclose(colony.tau.tau, tau_oracle.tau, rtol=1e-12, atol=0.0)
    if mech is not Selection.RW:
        assert CHUNK + 1 < n and widths.count(n) > 0


# Monte-Carlo selection distributions ------------------------------------------

def test_empirical_rw_tracks_weights():
    p = np.array([0.5, 0.3, 0.2])
    freq = empirical_selection_distribution("rw", p, trials=200_000, seed=0)
    assert np.allclose(freq, p, atol=0.01)
    assert freq.sum() == pytest.approx(1.0)


def test_empirical_ir_two_point_closed_form():
    freq = empirical_selection_distribution("ir", np.array([0.6, 0.4]),
                                            trials=200_000, seed=1)
    assert freq[0] == pytest.approx(1.0 - 0.4 / 1.2, abs=0.01)


def test_empirical_adair_gamma_one_equals_ir_bitwise():
    p = np.array([0.5, 0.3, 0.2])
    ir = empirical_selection_distribution("ir", p, trials=100_000, seed=7)
    ad = empirical_selection_distribution("adair", p, gamma=1.0,
                                          trials=100_000, seed=7)
    assert np.array_equal(ir, ad)


def test_empirical_adair_requires_gamma():
    with pytest.raises(ValueError):
        empirical_selection_distribution("adair", np.array([0.5, 0.5]),
                                         trials=100, seed=0)


def test_empirical_rejects_unknown_mechanism_and_bad_weights():
    with pytest.raises(ValueError):
        empirical_selection_distribution("tournament", np.array([1.0]),
                                         trials=10, seed=0)
    for mech, gamma in (("rw", None), ("ir", None), ("adair", 1.5)):
        with pytest.raises(AllZeroWeights):
            empirical_selection_distribution(mech, np.zeros(4), gamma=gamma,
                                             trials=10, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            empirical_selection_distribution(mech, np.array([0.5, -0.1]),
                                             gamma=gamma, trials=10, seed=0)


def test_empirical_frequencies_pinned():
    # counts per 10^5 trials, recorded before the estimator drew through the
    # colony's selection kernels; the kernels must reproduce them exactly
    p = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
    pinned = {
        ("rw", None): [39888, 29943, 20191, 9978, 0],
        ("ir", None): [56694, 31537, 10736, 1033, 0],
        ("adair", 1.5): [49782, 32287, 14944, 2987, 0],
    }
    for (mech, gamma), counts in pinned.items():
        freq = empirical_selection_distribution(mech, p, gamma=gamma,
                                                trials=10**5, seed=11)
        assert np.array_equal(freq, np.array(counts) / 10**5), mech


def test_empirical_weights_need_not_be_normalized():
    a = empirical_selection_distribution("rw", np.array([0.5, 0.3, 0.2]),
                                         trials=50_000, seed=3)
    b = empirical_selection_distribution("rw", np.array([5.0, 3.0, 2.0]),
                                         trials=50_000, seed=3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mech, gamma", [("rw", None), ("adair", 1.5)])
def test_empirical_estimate_does_not_depend_on_the_chunk_size(mech, gamma, monkeypatch):
    # 70,000 trials span two keyed blocks; chunks of 7 rows of 5 cities cut
    # both blocks at other rows than the default chunks do
    p = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
    whole = empirical_selection_distribution(mech, p, gamma=gamma, trials=70_000, seed=4)
    monkeypatch.setattr(oracle, "MC_CHUNK_ENTRIES", 35)
    chunked = empirical_selection_distribution(mech, p, gamma=gamma, trials=70_000, seed=4)
    assert np.array_equal(whole, chunked)


@pytest.mark.parametrize("mech, gamma", [("rw", None), ("adair", 1.5)])
def test_empirical_peak_does_not_grow_with_trials(mech, gamma):
    # a chunk holds three 8-byte (trials, cities) blocks (deviates, scores,
    # gather index) and a few (trials,) vectors, within four 8-byte blocks
    # of MC_CHUNK_ENTRIES; a whole keyed block of 65,536 trials of 100
    # cities would hold 157 MB
    p = np.random.default_rng(0).random(100)
    empirical_selection_distribution(mech, p, gamma=gamma, trials=10, seed=0)
    peaks = []
    for trials in (1_000, 300_000):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            empirical_selection_distribution(mech, p, gamma=gamma, trials=trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 32 * oracle.MC_CHUNK_ENTRIES
