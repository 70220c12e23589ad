import hashlib
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antbatch import rng
from antbatch.bench import make_synthetic_instance
from antbatch.colony import (
    Colony,
    NumericalUnderflow,
    compute_probability_matrix,
    construct_tours,
)
from antbatch.model import (
    ETA_CLAMP,
    AcoParams,
    GammaSchedule,
    PheromoneState,
    ProbabilityMatrix,
    Selection,
    batch_costs,
    build_instance,
)
from antbatch.oracle import sequential_aco_step
from antbatch.pheromone import accumulate_increments, apply_update, select_elite
from antbatch.selection import CHUNK, AllZeroWeights, gamma_at, scaled_log_weights

from conftest import random_metric_instance, tour_cost


def make(n, seed=0):
    return random_metric_instance(np.random.default_rng(seed), n)


def params_for(inst, mech, m=6, k=2, seed=0, **kw):
    return AcoParams(m=m, k=k, selection=mech, seed=seed, **kw)


# probability matrix ----------------------------------------------------------

def test_probability_matrix_rows_normalized():
    inst = make(9)
    tau = PheromoneState.initial(9, 1.0)
    p = compute_probability_matrix(tau, inst, params_for(inst, Selection.IR))
    assert p.p.shape == (9, 9)
    assert np.all(np.diag(p.p) == 0.0)
    assert np.allclose(p.p.sum(axis=1), 1.0, atol=1e-9)


def test_probability_matrix_respects_alpha_beta():
    inst = make(6)
    tau = PheromoneState.initial(6, 1.0)
    # beta = 0 kills the heuristic: uniform tau gives uniform rows
    p = compute_probability_matrix(
        tau, inst, params_for(inst, Selection.IR, alpha=1.0, beta=0.0))
    off = ~np.eye(6, dtype=bool)
    assert np.allclose(p.p[off], 1.0 / 5.0)


def test_probability_matrix_is_frozen():
    inst = make(5)
    p = compute_probability_matrix(PheromoneState.initial(5, 1.0), inst,
                                   params_for(inst, Selection.IR))
    with pytest.raises(ValueError):
        p.p[0, 1] = 0.5


def test_zero_rows_raise_numerical_underflow():
    inst = make(5)
    dead = PheromoneState(tau=np.zeros((5, 5)))
    with pytest.raises(NumericalUnderflow):
        compute_probability_matrix(dead, inst, params_for(inst, Selection.IR))


def test_zero_tau_row_names_its_normalizer_as_a_plain_float():
    inst = make(5)
    tau = np.ones((5, 5))
    tau[3] = 0.0
    with pytest.raises(NumericalUnderflow) as err:
        compute_probability_matrix(PheromoneState(tau=tau), inst,
                                   params_for(inst, Selection.IR))
    assert str(err.value) == ("row 3 normalizer is 0.0; pheromone or heuristic "
                              "values out of representable range")


def test_non_finite_rows_raise():
    # a row of tau that is not finite has no normalizer in the log domain
    # either (a finite row whose weights overflow is rebuilt, below)
    inst = make(5)
    for bad in (np.inf, np.nan):
        hot = np.ones((5, 5))
        hot[2] = bad
        np.fill_diagonal(hot, 0.0)
        with pytest.raises(NumericalUnderflow, match=f"^row 2 normalizer is {bad}; "):
            compute_probability_matrix(PheromoneState(tau=hot), inst,
                                       params_for(inst, Selection.IR, alpha=4.0))


def _log_domain_rows(tau, inst, alpha, beta):
    with np.errstate(divide="ignore"):
        logw = alpha * np.log(tau) - beta * np.log(np.maximum(inst.dist, ETA_CLAMP))
    np.fill_diagonal(logw, -np.inf)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("case", ["underflow", "overflow"])
def test_out_of_range_rows_are_rebuilt_in_the_log_domain(case):
    # tau^alpha of rows 0-3 underflows (1e-300 squared) or overflows (1e308
    # to the 4th) entry by entry; they are rebuilt as the distribution that
    # tau^alpha * eta^beta still defines, and rows 4-8, in range, keep every bit
    inst = make(9, seed=2)
    alpha, level = {"underflow": (2.0, 1e-300), "overflow": (4.0, 1e308)}[case]
    tau = np.ones((9, 9))
    tau[:4] = level
    np.fill_diagonal(tau, 0.0)
    params = params_for(inst, Selection.IR, alpha=alpha)
    p = compute_probability_matrix(PheromoneState(tau=tau), inst, params).p
    assert np.all(np.diag(p) == 0.0) and np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(p[:4], _log_domain_rows(tau, inst, alpha, params.beta)[:4],
                       rtol=1e-12, atol=0)
    plain = np.ones((9, 9))
    np.fill_diagonal(plain, 0.0)
    in_range = compute_probability_matrix(PheromoneState(tau=plain), inst, params).p
    assert np.array_equal(p[4:], in_range[4:])


# construction ----------------------------------------------------------------

@pytest.mark.parametrize("mech", list(Selection))
def test_construct_tours_yields_valid_permutations(mech):
    inst = make(11)
    params = params_for(inst, mech, m=8, k=2)
    p = compute_probability_matrix(PheromoneState.initial(11, 1.0), inst, params)
    batch = construct_tours(p, inst, params, iteration=0)
    assert batch.tours.shape == (8, 11)
    for tour, cost in zip(batch.tours, batch.costs):
        assert tour_cost(tour, inst) == cost
    assert np.array_equal(batch.costs, batch_costs(batch.tours, inst))


@pytest.mark.parametrize("mech", list(Selection))
def test_construct_tours_deterministic(mech):
    inst = make(9, seed=4)
    params = params_for(inst, mech, m=5, seed=12)
    p = compute_probability_matrix(PheromoneState.initial(9, 1.0), inst, params)
    a = construct_tours(p, inst, params, iteration=3)
    b = construct_tours(p, inst, params, iteration=3)
    assert np.array_equal(a.tours, b.tours)
    assert np.array_equal(a.costs, b.costs)
    c = construct_tours(p, inst, params, iteration=4)
    assert not np.array_equal(a.tours, c.tours)


@pytest.mark.parametrize("mech", list(Selection))
def test_construct_tours_builds_one_seed_sequence(mech, monkeypatch):
    # the start cities and every step block come from one keyed SFC64 per
    # iteration, the only SeedSequence a construction builds
    inst = make(15, seed=2)
    params = params_for(inst, mech, m=4)
    p = compute_probability_matrix(PheromoneState.initial(15, 1.0), inst, params)
    built = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    construct_tours(p, inst, params, iteration=1)
    assert len(built) <= 1


@pytest.mark.parametrize("mech", list(Selection))
def test_construct_tours_draws_every_step_into_one_block(mech, monkeypatch):
    # The wheel's step draws one (m, 1) block, a threshold per ant, into one
    # buffer: m * (n - 1) deviates in all.
    # The argmax mechanisms' step draws an (m, CHUNK) block into one buffer,
    # then, when f ants' chunks do not decide, an (f, n) block into a prefix
    # of another; their last CHUNK steps draw (m, r) blocks, r = CHUNK, ...,
    # 1, into prefixes of the first. At n = 120 > CHUNK + 1 some steps fall
    # back.
    n, m = (12, 3) if mech is Selection.RW else (120, 4)
    inst = make(n, seed=5)
    params = params_for(inst, mech, m=m)
    p = compute_probability_matrix(PheromoneState.initial(n, 1.0), inst, params)
    expected = construct_tours(p, inst, params, iteration=2)
    blocks = []
    real = rng.step_exponentials

    def spy(g, rows, cols, out=None):
        blocks.append(out)
        return real(g, rows, cols, out)

    monkeypatch.setattr(rng, "step_exponentials", spy)
    batch = construct_tours(p, inst, params, iteration=2)
    if mech is Selection.RW:
        assert [b.shape for b in blocks] == [(3, 1)] * 11
        assert all(b is blocks[0] for b in blocks)
    else:
        steps = [b for b in blocks if b.shape[1] != n]
        falls = [b for b in blocks if b.shape[1] == n]
        assert [b.shape for b in steps] == \
            [(m, CHUNK)] * (n - 1 - CHUNK) + [(m, r) for r in range(CHUNK, 0, -1)]
        assert falls and all(1 <= b.shape[0] <= m for b in falls)
        # a fallback block follows its step's chunk block
        assert all(prev.shape == (m, CHUNK) for prev, b in zip(blocks, blocks[1:])
                   if b.shape[1] == n)
        assert max(i for i, b in enumerate(blocks) if b.shape[1] == n) < len(blocks) - CHUNK
        assert all(np.shares_memory(b, steps[0]) for b in steps)
        assert all(np.shares_memory(b, falls[0]) for b in falls)
    assert np.array_equal(batch.tours, expected.tours)


@pytest.mark.parametrize("mech", list(Selection))
def test_construction_and_oracle_are_safe_in_threads(mech):
    # each call draws from a generator of its own, so calls running in
    # several threads at once return the tours they return one at a time
    inst, small = make(300, seed=3), make(30, seed=4)
    params = params_for(inst, mech, m=30)
    p = compute_probability_matrix(PheromoneState.initial(300, 1.0), inst, params)
    tau = PheromoneState.initial(30, 1.0)

    def construct(it):
        return construct_tours(p, inst, params, it).tours

    def reference(it):
        return sequential_aco_step(tau, small, params_for(small, mech, m=8), it)[0].tours

    calls = [(f, it) for it in range(5) for f in (construct, reference)]
    serial = [f(it) for f, it in calls]
    start = threading.Barrier(4)

    def worker():
        start.wait()
        return [f(it) for f, it in calls]

    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = [job.result() for job in [pool.submit(worker) for _ in range(4)]]
    assert [[np.array_equal(t, want) for t, want in zip(run, serial)] for run in runs] \
        == [[True] * len(calls)] * 4


@pytest.mark.parametrize("mech", list(Selection))
def test_construct_tours_steps_allocate_no_block(mech, monkeypatch):
    # The peak traced memory between two step draws bounds what one step
    # allocates. numpy's ufunc iterator may hold a buffer of getbufsize()
    # elements for each of two 8-byte operands, and a step makes a few
    # (m,) arrays; an (m, r) array, even of bools, is more than both once
    # r > 300.
    n, m = 400, 1000
    inst = make(n, seed=1)
    params = params_for(inst, mech, m=m, k=1)
    p = compute_probability_matrix(PheromoneState.initial(n, 1.0), inst, params)
    bound = 2 * 8 * np.getbufsize() + 8 * 8 * m
    assert m * 300 > bound
    growth = []
    base = []
    widths = []
    real = rng.step_exponentials

    def spy(g, mm, r, out=None):
        current, peak = tracemalloc.get_traced_memory()
        if base:
            growth.append(peak - base[-1])
        tracemalloc.reset_peak()
        base.append(current)
        widths.append(r)
        return real(g, mm, r, out)

    monkeypatch.setattr(rng, "step_exponentials", spy)
    tracemalloc.start()
    try:
        construct_tours(p, inst, params, iteration=0)
    finally:
        tracemalloc.stop()
    # the wheel draws once a step; the argmax mechanisms draw a block of
    # at most CHUNK columns a step, and a fallback block of n columns on the
    # steps where some chunk does not decide
    steps = len(widths) if mech is Selection.RW else sum(r <= CHUNK for r in widths)
    assert steps == n - 1 and len(growth) == len(widths) - 1
    assert max(growth) <= bound


def test_construct_tours_seed_decorrelates():
    inst = make(9, seed=4)
    pa = params_for(inst, Selection.IR, m=6, seed=1)
    pb = params_for(inst, Selection.IR, m=6, seed=2)
    p = compute_probability_matrix(PheromoneState.initial(9, 1.0), inst, pa)
    a = construct_tours(p, inst, pa, iteration=0)
    b = construct_tours(p, inst, pb, iteration=0)
    assert not np.array_equal(a.tours, b.tours)


def test_adair_constant_gamma_one_equals_ir_bitwise():
    inst = make(12, seed=9)
    sched = GammaSchedule(gamma_max=1.0, gamma_min=1.0, period=10)
    pa = params_for(inst, Selection.IR, m=9, seed=3)
    pb = params_for(inst, Selection.ADAIR, m=9, seed=3, gamma_schedule=sched)
    p = compute_probability_matrix(PheromoneState.initial(12, 1.0), inst, pa)
    for it in (0, 1, 7):
        a = construct_tours(p, inst, pa, iteration=it)
        b = construct_tours(p, inst, pb, iteration=it)
        assert np.array_equal(a.tours, b.tours)
        assert np.array_equal(a.costs, b.costs)


def test_tours_start_at_keyed_start_cities():
    inst = make(9)
    params = params_for(inst, Selection.IR, m=6, seed=21)
    p = compute_probability_matrix(PheromoneState.initial(9, 1.0), inst, params)
    batch = construct_tours(p, inst, params, iteration=5)
    starts = rng.construction_draws(21, 5, 6, 9)[0]
    assert np.array_equal(batch.tours[:, 0], starts)


def test_mechanisms_disagree_statistically():
    # not a distribution test, just a tripwire that the mechanism switch
    # actually switches code paths
    inst = make(12, seed=2)
    p = compute_probability_matrix(PheromoneState.initial(12, 1.0), inst,
                                   params_for(inst, Selection.IR, m=16))
    batches = {
        mech: construct_tours(
            p, inst, params_for(inst, mech, m=16, seed=0), iteration=0)
        for mech in (Selection.RW, Selection.IR)
    }
    assert not np.array_equal(batches[Selection.RW].tours,
                              batches[Selection.IR].tours)


@pytest.mark.parametrize("mech", list(Selection))
def test_all_zero_candidate_weights_raise_all_zero_weights(mech):
    # two 2-cycles: an ant that starts at 0 moves to 1, where the only
    # city with weight is 0 again, so every unvisited city has weight zero
    inst = make(4)
    p = np.zeros((4, 4))
    p[0, 1] = p[1, 0] = p[2, 3] = p[3, 2] = 1.0
    params = params_for(inst, mech, m=4, seed=1)
    with np.errstate(all="raise"):
        with pytest.raises(AllZeroWeights, match=r"^ant \d+ has no unvisited city of "
                                                 r"positive weight at iteration 2, step 2:"):
            construct_tours(ProbabilityMatrix(p=p), inst, params, iteration=2)


@pytest.mark.parametrize("mech", list(Selection))
def test_all_zero_weights_raise_while_city_zero_is_unvisited(mech):
    # one cycle through cities 1..5 that only city 0 leaves: an ant that
    # starts elsewhere walks the cycle and then has only city 0 left, at
    # weight zero; taking it silently would close a tour over a dead edge
    inst = make(6)
    p = np.zeros((6, 6))
    for i in range(5):
        p[i, i + 1] = 1.0
    p[5, 1] = 1.0
    params = params_for(inst, mech, m=4, seed=3)
    starts = rng.construction_draws(3, 0, 4, 6)[0]
    a = int(np.flatnonzero(starts != 0)[0])
    with pytest.raises(AllZeroWeights, match=rf"^ant {a} has no unvisited city .* step 5:"):
        construct_tours(ProbabilityMatrix(p=p), inst, params, iteration=0)


# (mechanism, gamma schedule, iteration) for the all-zero check below. At
# iteration 10**9 - 1 of a 10**9 period cos() rounds to -1, so gamma is
# exactly gamma_min. At gamma_min = 1e-300 the log weights stay finite
# (|log p| <= 745 and 745e300 is below the largest double); at 1e-310
# every p below exp(-0.018) divides to -inf although it is positive.
_ZERO_WEIGHT_CASES = {
    "rw": (Selection.RW, GammaSchedule(), 0),
    "ir": (Selection.IR, GammaSchedule(), 0),
    "adair": (Selection.ADAIR, GammaSchedule(), 0),
    "adair-gamma-1e-300": (
        Selection.ADAIR, GammaSchedule(gamma_max=1.0, gamma_min=1e-300, period=10**9),
        10**9 - 1),
    "adair-gamma-1e-310": (
        Selection.ADAIR, GammaSchedule(gamma_max=1.0, gamma_min=1e-310, period=10**9),
        10**9 - 1),
}


def test_tiny_gamma_cases_reach_gamma_min():
    for mech, schedule, it in _ZERO_WEIGHT_CASES.values():
        if mech is Selection.ADAIR and it:
            assert gamma_at(it, schedule) == schedule.gamma_min
    with np.errstate(over="ignore"):
        assert scaled_log_weights(np.array([1e-300]), 1e-310)[0] == -np.inf
    assert np.isfinite(scaled_log_weights(np.array([5e-324]), 1e-300)[0])


@pytest.mark.parametrize("case", list(_ZERO_WEIGHT_CASES))
@given(st.integers(0, 2**32 - 1), st.integers(4, 9), st.integers(1, 6),
       st.sampled_from([0.0, 0.5, 0.8]))
@settings(max_examples=40, deadline=None)
def test_all_zero_weights_check_matches_the_oracle(case, seed, n, m, zero_share):
    # tau with zero entries (each row keeps one positive weight, so the
    # matrix normalizes): the batched check after the last step flags the
    # first (step, ant) that the oracle's per-step scan raises at, or
    # neither raises and the tours agree
    mech, schedule, iteration = _ZERO_WEIGHT_CASES[case]
    g = np.random.default_rng(seed)
    inst = make(n, seed=seed)
    tau = g.uniform(0.2, 3.0, (n, n)) * (g.random((n, n)) >= zero_share)
    tau[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    tau = PheromoneState(tau=tau)
    params = params_for(inst, mech, m=m, k=1, seed=seed, gamma_schedule=schedule)
    prob = compute_probability_matrix(tau, inst, params)
    with np.errstate(over="ignore"):
        try:
            want = sequential_aco_step(tau, inst, params, iteration)[0]
        except AllZeroWeights as e:
            with pytest.raises(AllZeroWeights) as got:
                construct_tours(prob, inst, params, iteration)
            assert str(got.value).startswith(f"{e}: ")
        else:
            assert np.array_equal(construct_tours(prob, inst, params, iteration).tours,
                                  want.tours)


@pytest.mark.parametrize("mech", [Selection.IR, Selection.ADAIR])
@given(st.integers(0, 2**32 - 1), st.integers(CHUNK + 2, CHUNK + 12), st.integers(1, 4),
       st.sampled_from([0.0, 0.5, 0.9]))
@settings(max_examples=25, deadline=None)
def test_all_zero_weights_past_the_chunk_match_the_oracle(mech, seed, n, m, zero_share):
    # as above on n > CHUNK + 1, where a fallback row raises: the pipeline
    # and the oracle name the same ant and step, or neither raises and the
    # tours agree
    g = np.random.default_rng(seed)
    inst = make(n, seed=seed)
    tau = g.uniform(0.2, 3.0, (n, n)) * (g.random((n, n)) >= zero_share)
    tau[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    tau = PheromoneState(tau=tau)
    params = params_for(inst, mech, m=m, k=1, seed=seed)
    prob = compute_probability_matrix(tau, inst, params)
    try:
        want = sequential_aco_step(tau, inst, params, 0)[0]
    except AllZeroWeights as e:
        with pytest.raises(AllZeroWeights) as got:
            construct_tours(prob, inst, params, 0)
        assert str(got.value).startswith(f"{e}: ")
    else:
        assert np.array_equal(construct_tours(prob, inst, params, 0).tours, want.tours)


# iteration -------------------------------------------------------------------

@pytest.mark.parametrize("mech", list(Selection))
def test_iterate_chains_the_pipeline_in_order(mech):
    inst = make(10, seed=3)
    params = params_for(inst, mech, m=7, k=3, seed=4)
    colony = Colony(inst, params)
    tau, prob = colony.tau, colony.prob
    assert np.array_equal(tau.tau, PheromoneState.initial(10, params.q0_tau).tau)
    assert np.array_equal(prob.p, compute_probability_matrix(tau, inst, params).p)
    batch = colony.iterate(2)
    expect = construct_tours(prob, inst, params, 2)
    assert np.array_equal(batch.tours, expect.tours)
    assert np.array_equal(batch.costs, expect.costs)
    delta = accumulate_increments(select_elite(expect, params.k), inst.n)
    tau_expect = apply_update(tau, delta, params.rho)
    assert np.array_equal(colony.tau.tau, tau_expect.tau)
    assert np.array_equal(colony.prob.p,
                          compute_probability_matrix(colony.tau, inst, params).p)


# Tours, costs, tau and the transition matrix of three iterations on a
# 20-city instance: rw's recorded when the wheel's step came to draw one
# (m, 1) threshold block instead of an (m, n - s) one (every threshold
# after the first step's, so the tours' bits, changed) and to spin by
# run > u * total; ir's and adair's when they moved to chunk, bound and
# fallback rows (on 20 cities every step is a last-c step, which scans
# each ant's unvisited cities in a new order). The digests are of float
# bits, so they assume IEEE doubles and the numpy/libm results of an x86-64
# Linux build.
ITERATE_DIGESTS = {
    "rw": "b28c237c883432fd9d5b8d7152b002268c026d21c52445467f63789b4f6db26c",
    "ir": "ac63a4676f00ee050057649092c18c6cd36588ffc93385b45f8e9176e43caf6a",
    "adair": "f3f976595623fcf54eac1742ec8f0bf62de74210600337c10b99bde3b94771f0",
}


@pytest.mark.parametrize("mech", list(Selection))
def test_iterate_outputs_are_pinned(mech):
    inst = build_instance(make_synthetic_instance(20, seed=4))
    params = AcoParams(m=8, k=2, selection=mech, seed=7,
                       gamma_schedule=GammaSchedule(period=3))
    colony = Colony(inst, params)
    h = hashlib.sha256()
    for it in range(3):
        batch = colony.iterate(it)
        for a in (batch.tours, batch.costs, colony.tau.tau, colony.prob.p):
            h.update(a.tobytes())
    assert h.hexdigest() == ITERATE_DIGESTS[mech.value]


@pytest.mark.parametrize("mech", list(Selection))
def test_iterate_holds_at_most_two_and_a_half_matrices_above_its_inputs(mech):
    # Above the colony's tau and p, one iteration holds one more (n, n) array
    # at a time, plus (m, n) blocks: the log table (argmax mechanisms) while
    # constructing, then the deposit beside the new tau once p is dropped,
    # then the new p beside the new tau once the old tau is freed. Holding
    # the old p past construction, or a copy of tau or p, is a second. At
    # beta = 120 every row of p is rebuilt in the log domain, in row blocks.
    # The colony is built under tracing, so that freeing its arrays shows.
    n = 400
    inst = make(n, seed=1)
    for beta in (2.0, 120.0):
        params = params_for(inst, mech, m=10, k=2, seed=1, beta=beta)
        tracemalloc.start()
        try:
            colony = Colony(inst, params)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            colony.iterate(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - held) / (8 * n * n) <= 1.5, beta


def _arrays(*values):
    return [a for v in values for a in vars(v).values() if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("mech", list(Selection))
def test_returned_arrays_are_read_only_and_share_no_input(mech):
    inst = make(12, seed=6)
    params = params_for(inst, mech, m=5, k=2, seed=2)
    tau = PheromoneState.initial(12, params.q0_tau)
    prob = compute_probability_matrix(tau, inst, params)
    batch = construct_tours(prob, inst, params, 1)
    delta = accumulate_increments(select_elite(batch, params.k), inst.n)
    tau1 = apply_update(tau, delta, params.rho)
    colony = Colony(inst, params)
    before = _arrays(colony.tau, colony.prob, inst)
    outputs = {
        "compute_probability_matrix": (_arrays(prob), _arrays(tau, inst)),
        "construct_tours": (_arrays(batch), _arrays(prob, inst)),
        "apply_update": (_arrays(tau1), [delta, *_arrays(tau)]),
        "iterate": (_arrays(colony.iterate(1), colony.tau, colony.prob), before),
    }
    for name, (outs, ins) in outputs.items():
        assert outs, name
        for out in outs:
            assert not out.flags.writeable, name
            assert not any(np.shares_memory(out, a) for a in ins), name
