"""Acceptance gate: one test per shipping criterion, run at the stated
tolerances. Each test prints a single PASS/FAIL line with the measured
values (visible with -s, or in captured output on failure), so the suite
doubles as a release report.

The slow half (convergence ordering, wall-clock comparisons at n=442) sits
at the bottom of the file; the whole gate runs in minutes on one core.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest
from scipy import stats

from antbatch import rng
from antbatch.bench import ExperimentConfig, run_experiment, run_scaling_study
from antbatch.colony import Colony, compute_probability_matrix, construct_tours
from antbatch.model import (
    AcoParams,
    GammaSchedule,
    PheromoneState,
    Selection,
    TAU_MIN,
    build_instance,
)
from antbatch.oracle import (
    brute_force_tsp,
    empirical_selection_distribution,
    scalar_probability_reference,
    sequential_aco_step,
    sequential_increment_sum,
)
from antbatch.pheromone import accumulate_increments, apply_update, select_elite
from antbatch.tsplib import (
    DimensionMismatch,
    DuplicateNodeId,
    MissingSection,
    RawTspFile,
    TsplibParseError,
    UnsupportedEdgeWeightType,
    parse_instance,
    parse_tour,
    serialize_instance,
)

from conftest import (
    PKG_DATA,
    euclidean_instance,
    load_bundled,
    random_metric_instance,
    read_fixture,
    sample_transformed_deviates,
)

# Frozen during calibration of the bundled rnd120 instance: best tour length
# found across long multi-mechanism runs. Serves as the error denominator;
# the ordering comparisons below are monotone in cost, so they do not depend
# on this value being the true optimum.
RND120_REFERENCE_COST = 7547.0


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. Elite deposit accumulation equals the per-edge loop, and update chains
#    stay within 1e-12 relative over 5 evaporation steps.
# ---------------------------------------------------------------------------

def test_deposit_accumulation_matches_edge_loop():
    g = np.random.default_rng(1)
    worst_chain = 0.0
    for _ in range(50):
        n = int(g.integers(5, 51))
        k = int(g.integers(1, 11))
        elites = [(g.permutation(n), float(g.uniform(10.0, 500.0)))
                  for _ in range(k)]
        acc = accumulate_increments(elites, n)
        assert np.array_equal(acc, sequential_increment_sum(elites, n))

        rho = float(g.uniform(0.05, 0.5))
        tau_vec = PheromoneState(tau=g.uniform(0.5, 2.0, (n, n)))
        tau_ref = tau_vec.tau.copy()
        for _ in range(5):
            tau_vec = apply_update(tau_vec, acc, rho)
            for i in range(n):
                for j in range(n):
                    v = (1.0 - rho) * tau_ref[i, j] + acc[i, j]
                    tau_ref[i, j] = v if v > TAU_MIN else TAU_MIN
            rel = np.max(np.abs(tau_vec.tau - tau_ref)
                         / np.maximum(np.abs(tau_ref), TAU_MIN))
            worst_chain = max(worst_chain, float(rel))
            assert rel <= 1e-12
    report("deposit-accumulation", True,
           f"50 instances exact; worst 5-step chain drift {worst_chain:.2e} "
           "(tol 1e-12)")


# ---------------------------------------------------------------------------
# 2. The batched construct-and-update step reproduces the per-ant sequential
#    reference: identical tours, pheromone within 1e-12 relative.
# ---------------------------------------------------------------------------

def test_batched_pipeline_matches_sequential_reference():
    inst = random_metric_instance(np.random.default_rng(2024), 10)
    worst = 0.0
    for mech in Selection:
        for seed in range(10):
            params = AcoParams(m=10, k=2, selection=mech, seed=seed)
            tau = PheromoneState.initial(10, 1.0)
            for it in range(5):
                prob = compute_probability_matrix(tau, inst, params)
                batch = construct_tours(prob, inst, params, it)
                elites = select_elite(batch, params.k)
                tau_pipe = apply_update(
                    tau, accumulate_increments(elites, 10), params.rho)
                oracle_batch, tau_oracle = sequential_aco_step(
                    tau, inst, params, it)
                assert np.array_equal(batch.tours, oracle_batch.tours)
                assert np.array_equal(batch.costs, oracle_batch.costs)
                rel = np.max(np.abs(tau_pipe.tau - tau_oracle.tau)
                             / np.maximum(np.abs(tau_oracle.tau), TAU_MIN))
                worst = max(worst, float(rel))
                assert rel <= 1e-12
                tau = tau_pipe
    report("pipeline-equivalence", True,
           f"3 mechanisms x 10 seeds x 5 iterations: tours bit-equal, "
           f"worst tau drift {worst:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 3. Transition-matrix rows are normalized and match a scalar double loop.
# ---------------------------------------------------------------------------

def test_transition_matrix_rows_and_scalar_reference():
    g = np.random.default_rng(3)
    worst_row, worst_rel = 0.0, 0.0
    for _ in range(100):
        n = int(g.integers(5, 31))
        inst = euclidean_instance(g.uniform(1.0, 1000.0, size=(n, 2)))
        tau = PheromoneState(tau=g.uniform(0.1, 5.0, (n, n)))
        params = AcoParams(m=2, k=1, alpha=float(g.uniform(0.5, 3.0)),
                           beta=float(g.uniform(0.0, 5.0)))
        p = compute_probability_matrix(tau, inst, params).p
        row_err = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        ref = scalar_probability_reference(tau, inst, params)
        rel = float(np.max(np.abs(p - ref)
                           / np.maximum(np.abs(ref), 1e-300)))
        worst_row = max(worst_row, row_err)
        worst_rel = max(worst_rel, rel)
        assert row_err <= 1e-9
        assert rel <= 1e-12
    report("transition-matrix", True,
           f"100 draws: worst row-sum error {worst_row:.2e} (tol 1e-9), "
           f"worst scalar-reference drift {worst_rel:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 4. Selection distributions: the wheel tracks p, independent roulette hits
#    its two-point closed form, and the adaptive mechanism at exponent 1 is
#    bit-identical to independent roulette.
# ---------------------------------------------------------------------------

def test_selection_distributions_match_closed_forms():
    p = np.array([0.5, 0.3, 0.2])
    freq = empirical_selection_distribution("rw", p, trials=10**6, seed=0)
    rw_dev = float(np.abs(freq - p).max())
    assert rw_dev <= 0.005

    ir_devs = []
    for p1 in (0.5, 0.6, 0.75, 0.9):
        w = np.array([p1, 1.0 - p1])
        f = empirical_selection_distribution("ir", w, trials=10**6, seed=1)
        closed = 1.0 - (1.0 - p1) / (2.0 * p1)
        ir_devs.append(abs(float(f[0]) - closed))
        assert ir_devs[-1] <= 0.005

    pw = np.array([0.45, 0.35, 0.2])
    ir = empirical_selection_distribution("ir", pw, trials=10**6, seed=2)
    ad = empirical_selection_distribution("adair", pw, gamma=1.0,
                                          trials=10**6, seed=2)
    assert np.array_equal(ir, ad)
    report("selection-distributions", True,
           f"rw max dev {rw_dev:.5f}, ir closed-form max dev "
           f"{max(ir_devs):.5f} (tol 0.005); adaptive(1) == ir bit-exact")


# ---------------------------------------------------------------------------
# 5. The transformed deviate X^gamma follows CDF y^(1/gamma) and skews small
#    for gamma > 1.
# ---------------------------------------------------------------------------

def test_transformed_deviate_distribution():
    worst_ks = 0.0
    for block, gamma in enumerate((0.5, 1.5, 3.0)):
        x = sample_transformed_deviates(gamma, 10**6, rng.mc_stream(2, block))
        ks = stats.kstest(x, lambda y: y ** (1.0 / gamma)).statistic
        worst_ks = max(worst_ks, float(ks))
        assert ks < 0.005
    med = float(np.median(
        sample_transformed_deviates(1.5, 10**6, rng.mc_stream(2, 10))))
    assert med < 0.5
    report("deviate-distribution", True,
           f"worst KS {worst_ks:.5f} (tol 0.005); median at exponent 1.5 "
           f"= {med:.4f} < 0.5")


# ---------------------------------------------------------------------------
# 6. Exponent sweep on p = [0.75, 0.25]. The stated gate asks for the
#    max-probability selection frequency to be nondecreasing in the
#    exponent. The distribution itself says otherwise: on two points,
#    P(pick the max-p city) = 1 - (p2/p1)^(1/gamma) / 2, which is strictly
#    DECREASING in gamma (larger exponents flatten the perturbed scores
#    toward a coin flip, they do not sharpen them). The gate is therefore
#    marked as an expected failure, kept at its literal reading, and the
#    companion test below verifies the true closed form at the same
#    tolerance so the distribution is still pinned down tightly.
# ---------------------------------------------------------------------------

GAMMA_SWEEP = (0.5, 1.0, 2.0, 4.0)


def _gamma_sweep_frequencies():
    p = np.array([0.75, 0.25])
    return [float(empirical_selection_distribution(
        "adair", p, gamma=g, trials=10**6, seed=3)[0]) for g in GAMMA_SWEEP]


@pytest.mark.xfail(
    strict=True,
    reason="on two points the max-p selection frequency is "
    "1 - (p2/p1)^(1/gamma)/2, strictly decreasing in gamma; a "
    "nondecreasing sweep over {0.5, 1, 2, 4} contradicts the sampled "
    "distribution itself and cannot pass",
)
def test_max_probability_selection_frequency_rises_with_exponent():
    freqs = _gamma_sweep_frequencies()
    ok = all(b >= a - 0.003 for a, b in zip(freqs, freqs[1:]))
    report("exponent-monotonicity(stated)", ok,
           "frequencies over gamma {0.5,1,2,4} = "
           + ", ".join(f"{f:.4f}" for f in freqs)
           + " (slack 0.003)")
    assert ok


def test_max_probability_selection_frequency_falls_with_exponent():
    freqs = _gamma_sweep_frequencies()
    closed = [1.0 - (0.25 / 0.75) ** (1.0 / g) / 2.0 for g in GAMMA_SWEEP]
    devs = [abs(f - c) for f, c in zip(freqs, closed)]
    decreasing = all(b < a for a, b in zip(freqs, freqs[1:]))
    assert decreasing
    assert max(devs) <= 0.005
    report("exponent-monotonicity(observed)", True,
           "strictly decreasing, max closed-form dev "
           f"{max(devs):.5f} (tol 0.005): "
           + ", ".join(f"{f:.4f}" for f in freqs))


# ---------------------------------------------------------------------------
# 7. Wheel-selection colonies on 8-city instances find the brute-force
#    optimum almost always and never beat it.
# ---------------------------------------------------------------------------

def test_roulette_colony_reaches_brute_force_optimum():
    hits = 0
    for i in range(10):
        inst = random_metric_instance(np.random.default_rng(100 + i), 8)
        opt = brute_force_tsp(inst).best_cost
        params = AcoParams(m=16, k=2, selection=Selection.RW,
                           max_iters=200, seed=i)
        tau = PheromoneState.initial(8, 1.0)
        best = np.inf
        for it in range(200):
            prob = compute_probability_matrix(tau, inst, params)
            batch = construct_tours(prob, inst, params, it)
            best = min(best, float(batch.costs.min()))
            assert best >= opt  # integer-valued costs: no tolerance needed
            elites = select_elite(batch, params.k)
            tau = apply_update(tau, accumulate_increments(elites, 8),
                               params.rho)
        hits += int(best == opt)
    assert hits >= 8
    report("optimality-floor", True,
           f"{hits}/10 runs reached the enumerated optimum; "
           "no run undercut it")


# ---------------------------------------------------------------------------
# 11. Parser: golden-file round-trips, real instance headers, and every
#     structured error path. (Cheap, so it runs before the slow timing
#     criteria below.)
# ---------------------------------------------------------------------------

def test_parser_golden_files_and_error_paths():
    for name in ("rnd120.tsp", "rnd442.tsp"):
        with open(os.path.join(PKG_DATA, name), encoding="utf-8") as f:
            raw = parse_instance(f.read())
        assert parse_instance(serialize_instance(raw)) == raw
    for name in ("mini5.tsp", "u159.tsp", "pcb442.tsp"):
        raw = parse_instance(read_fixture(name))
        assert parse_instance(serialize_instance(raw)) == raw

    u159 = parse_instance(read_fixture("u159.tsp"))
    assert (u159.name, u159.dimension, u159.edge_weight_type) == \
        ("u159", 159, "EUC_2D")
    pcb = parse_instance(read_fixture("pcb442.tsp"))
    assert (pcb.name, pcb.dimension, pcb.edge_weight_type) == \
        ("pcb442", 442, "EUC_2D")

    base = ("NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\n")
    cases = [
        (base.replace("EUC_2D", "EXPLICIT"), UnsupportedEdgeWeightType),
        ("DIMENSION : 2\nEDGE_WEIGHT_SECTION\n0 1\n", UnsupportedEdgeWeightType),
        (base.replace("DIMENSION : 3\n", ""), MissingSection),
        (base.replace("EDGE_WEIGHT_TYPE : EUC_2D\n", ""), MissingSection),
        ("NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n", MissingSection),
        (base.replace("3 0 1", "2 0 1"), DuplicateNodeId),
        (base.replace("3 0 1", "9 0 1"), DimensionMismatch),
        (base.replace("DIMENSION : 3", "DIMENSION : 4"), DimensionMismatch),
        (base.replace("2 1 0", "2 1"), DimensionMismatch),
        (base.replace("DIMENSION : 3", "DIMENSION : many"), DimensionMismatch),
    ]
    for text, exc in cases:
        with pytest.raises(exc) as ei:
            parse_instance(text)
        assert isinstance(ei.value, TsplibParseError)
    with pytest.raises(MissingSection):
        parse_tour("NAME : no tour here\n")
    with pytest.raises(TsplibParseError):
        parse_tour("TOUR_SECTION\n1\ntwo\n")
    report("parser", True,
           f"5 golden round-trips, real headers verified, "
           f"{len(cases) + 2} structured error paths raised")


# ---------------------------------------------------------------------------
# 10. Per-iteration cost at n=442, m=442: the adaptive mechanism stays
#     within 1.15x of independent roulette, which stays under the wheel.
# ---------------------------------------------------------------------------

def _interleaved_iter_ms(inst, mechs, iters: int = 7) -> dict:
    """Median ms per Colony.iterate call for each mechanism, first call dropped.

    The colonies are built first and their iterations interleaved, the order
    rotating each round, so that a change in machine speed during the test
    slows every mechanism alike instead of whichever one runs at the time.
    """
    colonies = {mech: Colony(inst, AcoParams(m=442, k=44, selection=mech,
                                              max_iters=iters, seed=0))
                for mech in mechs}
    times = {mech: [] for mech in mechs}
    for it in range(iters):
        r = it % len(mechs)
        for mech in mechs[r:] + mechs[:r]:
            t0 = time.perf_counter()
            colonies[mech].iterate(it)
            times[mech].append((time.perf_counter() - t0) * 1e3)
    return {mech: statistics.median(ts[1:]) for mech, ts in times.items()}


def test_adaptive_overhead_within_bounds():
    ms = _interleaved_iter_ms(load_bundled("rnd442.tsp"),
                              (Selection.IR, Selection.ADAIR, Selection.RW))
    ratio_ad = ms[Selection.ADAIR] / ms[Selection.IR]
    ok = ratio_ad <= 1.15 and ms[Selection.IR] <= ms[Selection.RW]
    report("adaptive-overhead", ok,
           f"n=442 m=442 ms/iter: ir={ms[Selection.IR]:.0f}, "
           f"adair={ms[Selection.ADAIR]:.0f} ({ratio_ad:.3f}x, tol 1.15x), "
           f"rw={ms[Selection.RW]:.0f}")
    assert ratio_ad <= 1.15
    assert ms[Selection.IR] <= ms[Selection.RW]


# ---------------------------------------------------------------------------
# 9. Batched construction beats the per-ant sequential reference by >= 2x
#    at n=442, m=442.
# ---------------------------------------------------------------------------

def test_batched_speedup_over_sequential():
    inst = load_bundled("rnd442.tsp")
    rows = run_scaling_study([inst], [442], "both", iterations=2,
                             repetitions=1, seed=0)
    batched = next(r for r in rows if r["mode"] == "batched")
    speedup = batched["speedup_vs_sequential"]
    report("batched-speedup", speedup >= 2.0,
           f"n=442 m=442: {speedup:.1f}x over the per-ant reference "
           "(gate 2.0x)")
    assert speedup >= 2.0


# ---------------------------------------------------------------------------
# 8. Convergence ordering on the bundled 120-city instance: the annealed
#    mechanism converges no later than the wheel and ends no worse than
#    plain independent roulette. 15 deterministic kilo-iteration runs;
#    this is the slow one.
# ---------------------------------------------------------------------------

def test_annealed_mechanism_convergence_ordering():
    path = os.path.join(PKG_DATA, "rnd120.tsp")
    stats_by_mech = {}
    for mech in (Selection.RW, Selection.IR, Selection.ADAIR):
        cfg = ExperimentConfig(
            params=AcoParams(m=120, k=12, selection=mech, max_iters=1000,
                             seed=0),
            instance_path=path,
            repetitions=5,
            best_known=RND120_REFERENCE_COST,
        )
        _, summaries = run_experiment(cfg)
        stats_by_mech[mech] = (
            float(np.median([s.convergence_generation for s in summaries])),
            float(np.median([s.solution_error_percent for s in summaries])),
        )
    conv_ad, err_ad = stats_by_mech[Selection.ADAIR]
    conv_rw, _ = stats_by_mech[Selection.RW]
    _, err_ir = stats_by_mech[Selection.IR]
    ok = conv_ad <= conv_rw and err_ad <= err_ir
    report("convergence-ordering", ok,
           f"median convergence gen: adair={conv_ad:.0f} <= rw={conv_rw:.0f}; "
           f"median final error: adair={err_ad:.2f}% <= ir={err_ir:.2f}%")
    assert conv_ad <= conv_rw
    assert err_ad <= err_ir
