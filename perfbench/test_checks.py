"""Each benchmark check passes the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py -q

Run from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from antbatch import bench, model, oracle  # noqa: E402
from antbatch.colony import compute_probability_matrix, construct_tours  # noqa: E402
from antbatch.model import TAU_MIN, AcoParams, PheromoneState, Selection, TourBatch  # noqa: E402
from antbatch.pheromone import accumulate_increments, apply_update, select_elite  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed, RunChecker  # noqa: E402
from geometry import Reference, coordinates, tsplib_text  # noqa: E402
from probe import Capture, Patches, Tracer  # noqa: E402
from run import CAL_REF_S, calibration_seconds, iteration_windows, reference_times  # noqa: E402

N = 30


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    pts = coordinates(N, "clustered", 3)
    path = tmp_path_factory.mktemp("inst") / "c30.tsp"
    path.write_text(tsplib_text("c30", pts, "test"))
    params = AcoParams(m=12, k=4, selection=Selection.IR, seed=5, max_iters=3)
    inst = bench.load_instance(bench.ExperimentConfig(params=params, instance_path=str(path)))
    ref = Reference.from_coordinates(pts)
    tau = PheromoneState.initial(N, params.q0_tau)
    p = compute_probability_matrix(tau, inst, params)
    batch = construct_tours(p, inst, params, 0)
    elites = select_elite(batch, params.k)
    tau1 = apply_update(tau, accumulate_increments(elites, N), params.rho)
    return dict(path=path, params=params, inst=inst, ref=ref, tau=tau, p=p,
                batch=batch, elites=elites, tau1=tau1)


def own(world):
    return world["ref"].lengths(world["batch"].tours)


def test_distances(world):
    dist = world["inst"].dist.copy()
    checks.check_distances(dist, world["ref"].dist)
    dist[4, 7] += 1.0
    with pytest.raises(CheckFailed, match=r"d\[4, 7\]"):
        checks.check_distances(dist, world["ref"].dist)


def test_permutation(world):
    tours = world["batch"].tours.copy()
    checks.check_permutations(tours, N)
    tours[2, 5] = tours[2, 6]
    with pytest.raises(CheckFailed, match="permutation"):
        checks.check_permutations(tours, N)


def test_cost(world):
    costs = world["batch"].costs.copy()
    checks.check_costs(costs, own(world))
    costs[3] += 1.0
    with pytest.raises(CheckFailed, match="ant 3"):
        checks.check_costs(costs, own(world))


def test_lower_bound(world):
    bound = world["ref"].lower_bound
    costs = world["batch"].costs.copy()
    checks.check_lower_bound(costs, bound, "reported cost")
    assert bound <= world["ref"].nn_length <= world["ref"].nn_mean_length
    costs[5] = bound - 1.0
    with pytest.raises(CheckFailed, match="reported cost .* 1-tree"):
        checks.check_lower_bound(costs, bound, "reported cost")
    with pytest.raises(CheckFailed, match="final best"):
        checks.check_lower_bound(bound * 0.99, bound, "reported final best")


def test_elite(world):
    batch, k = world["batch"], world["params"].k
    checks.check_elite(world["elites"], batch.tours, own(world), k)
    swapped = [world["elites"][1], world["elites"][0]] + world["elites"][2:]
    with pytest.raises(CheckFailed, match="rank 0"):
        checks.check_elite(swapped, batch.tours, own(world), k)
    with pytest.raises(CheckFailed, match="elite tours"):
        checks.check_elite(world["elites"][:-1], batch.tours, own(world), k)


def test_elite_ties_go_to_the_lower_ant_index():
    tours = np.array([[0, 1, 2], [0, 2, 1], [1, 0, 2]])
    lengths = np.array([5.0, 3.0, 3.0])
    good = [(tours[1], 3.0), (tours[2], 3.0)]
    checks.check_elite(good, tours, lengths, 2)
    with pytest.raises(CheckFailed):
        checks.check_elite(good[::-1], tours, lengths, 2)


def test_update(world):
    params = world["params"]
    lengths = own(world)
    idx = checks.own_elite(lengths, params.k)
    args = (world["batch"].tours[idx], lengths[idx], params.rho, TAU_MIN)
    tau_in = world["tau"].tau
    good = world["tau1"].tau
    checks.check_update(tau_in, good, *args)

    bumped = good.copy()
    bumped[1, 2] *= 1.0 + 1e-9
    bumped[2, 1] = bumped[1, 2]
    with pytest.raises(CheckFailed, match="tau"):
        checks.check_update(tau_in, bumped, *args)

    lopsided = good.copy()
    i, j = np.argwhere(~np.eye(N, dtype=bool))[0]
    lopsided[i, j] = np.nextafter(lopsided[i, j], np.inf)
    with pytest.raises(CheckFailed):
        checks.check_update(tau_in, lopsided, *args)

    unfloored = 0.5 * tau_in
    with pytest.raises(CheckFailed):
        checks.check_update(tau_in, unfloored, *args)


def test_update_floors_at_tau_min():
    tau_in = np.full((3, 3), 1e-13)
    np.fill_diagonal(tau_in, 0.0)
    tours, lengths = np.array([[0, 1, 2]]), np.array([1e15])  # deposits below the floor
    checks.check_update(tau_in, np.full((3, 3), TAU_MIN), tours, lengths, 0.1, TAU_MIN)
    with pytest.raises(CheckFailed):
        checks.check_update(tau_in, 0.9 * tau_in, tours, lengths, 0.1, TAU_MIN)


def test_probabilities(world):
    params, ref = world["params"], world["ref"]
    tau = world["tau"].tau
    p = world["p"].p
    checks.check_probabilities(p, tau, ref.eta, params.alpha, params.beta)

    scaled = p * 1.001
    with pytest.raises(CheckFailed, match="sums"):
        checks.check_probabilities(scaled, tau, ref.eta, params.alpha, params.beta)

    diag = p.copy()
    diag[0, 0] = 1e-3
    with pytest.raises(CheckFailed, match="diagonal"):
        checks.check_probabilities(diag, tau, ref.eta, params.alpha, params.beta)

    uniform = np.full((N, N), 1.0 / (N - 1))
    np.fill_diagonal(uniform, 0.0)
    with pytest.raises(CheckFailed, match="expected"):
        checks.check_probabilities(uniform, tau, ref.eta, params.alpha, params.beta)


def test_probabilities_at_high_beta_need_no_underflowing_row(world):
    """At beta = 120 the linear-domain weights of a row can all underflow;
    the expected matrix is still a proper distribution, so a program that
    gets it right passes."""
    ref = world["ref"]
    tau = world["tau"].tau
    want = checks.own_probabilities(tau, ref.eta, 1.0, 120.0)
    assert np.all(np.isfinite(want)) and np.allclose(want.sum(axis=1), 1.0)
    checks.check_probabilities(want, tau, ref.eta, 1.0, 120.0)


def test_best_trace():
    checks.check_best_trace([9.0, 7.0, 8.0], [9.0, 7.0, 7.0], [9.0, 7.0, 8.0], 7.0)
    with pytest.raises(CheckFailed, match="running minimum"):
        checks.check_best_trace([9.0, 7.0, 8.0], [9.0, 7.0, 8.0], [9.0, 7.0, 8.0], 7.0)
    with pytest.raises(CheckFailed, match="its tours give"):
        checks.check_best_trace([9.0, 6.0, 8.0], [9.0, 6.0, 6.0], [9.0, 7.0, 8.0], 6.0)
    with pytest.raises(CheckFailed, match="final best"):
        checks.check_best_trace([9.0, 7.0, 8.0], [9.0, 7.0, 7.0], [9.0, 7.0, 8.0], 8.0)


def test_final_best_not_longer_than_nearest_neighbour():
    checks.check_not_longer(90.0, 100.0, "ir")
    with pytest.raises(CheckFailed, match="nearest-neighbour"):
        checks.check_not_longer(101.0, 100.0, "ir")


@pytest.mark.parametrize("mech", ["rw", "ir", "adair"])
def test_oracle(world, mech):
    params = AcoParams(m=3, k=2, selection=mech, seed=11)
    inst = world["inst"]
    tau0 = PheromoneState.initial(N, params.q0_tau)
    p = compute_probability_matrix(tau0, inst, params)
    batch = construct_tours(p, inst, params, 0)
    tau1 = apply_update(tau0, accumulate_increments(select_elite(batch, 2), N), params.rho)
    o_batch, o_tau = oracle.sequential_aco_step(tau0, inst, params, 0)
    checks.check_oracle(batch, tau1, o_batch, o_tau)

    tours = o_batch.tours.copy()
    tours[1, [3, 4]] = tours[1, [4, 3]]
    with pytest.raises(CheckFailed, match="ant 1"):
        checks.check_oracle(batch, tau1, TourBatch(tours=tours, costs=o_batch.costs), o_tau)
    off = PheromoneState(tau=o_tau.tau * (1.0 + 1e-9))
    with pytest.raises(CheckFailed, match="pheromone"):
        checks.check_oracle(batch, tau1, o_batch, off)


def _run_with_checker(world, corrupt=None):
    """A real run_experiment call with every layer's output fed to a
    RunChecker; ``corrupt`` replaces one program function for the run."""
    patches = Patches("antbatch")
    corrupt_patches = Patches("antbatch")
    capture = Capture(calibration_seconds)
    params = world["params"]
    checker = RunChecker(world["ref"], params, TAU_MIN)
    try:
        if corrupt:
            target, make = corrupt
            assert corrupt_patches.wrap(target, make)
        capture.install(patches)
        capture.start(checker.feed)
        config = bench.ExperimentConfig(params=params, instance_path=str(world["path"]))
        records, summaries = bench.run_experiment(config, inst=world["inst"],
                                                  clock=capture.clock)
        capture.deliver()
        checker.finish(records, summaries[0].final_best_cost)
    finally:
        patches.restore()
        corrupt_patches.restore()
    return records, capture


def test_run_checker_passes_a_real_run(world):
    records, capture = _run_with_checker(world)
    wall_ms = [r.wall_clock_ms for r in records]
    windows = iteration_windows(capture.readings, wall_ms)
    assert len(windows) == len(records)
    for d0, d1 in capture.deliveries:
        assert not any(d0 < w1 and d1 > w0 for w0, w1 in windows)
    ref = reference_times(windows, wall_ms, capture.calibrations)
    assert len(ref) == len(records) and all(v > 0 for v in ref)


def test_reference_times_use_the_calibrations_around_each_iteration():
    calibrations = [(0.5, CAL_REF_S), (2.5, 2 * CAL_REF_S), (4.5, 4 * CAL_REF_S)]
    windows = [(1.0, 2.0), (3.0, 4.0)]
    assert reference_times(windows, [100.0, 300.0], calibrations) == pytest.approx(
        [100.0 / 1.5, 300.0 / 3.0])
    with pytest.raises(CheckFailed, match="calibration"):
        reference_times([(5.0, 6.0)], [100.0], calibrations)


def _double_evaporation(fn):
    return lambda tau, delta, rho: fn(tau, delta, min(0.99, 2 * rho))


def _reverse_elite(fn):
    return lambda batch, k: fn(batch, k)[::-1]


def _shift_costs(fn):
    def wrapper(*args, **kwargs):
        b = fn(*args, **kwargs)
        return TourBatch(tours=b.tours, costs=b.costs + 1.0)
    return wrapper


def _costs_below_the_floor(fn):
    def wrapper(*args, **kwargs):
        b = fn(*args, **kwargs)
        return TourBatch(tours=b.tours, costs=np.ones_like(b.costs))
    return wrapper


def _flatten_probabilities(fn):
    def wrapper(tau, inst, params):
        p = fn(tau, inst, params).p
        return model.ProbabilityMatrix(p=np.sqrt(p) / np.sqrt(p).sum(axis=1, keepdims=True))
    return wrapper


@pytest.mark.parametrize("corrupt, message", [
    (("pheromone.apply_update", _double_evaporation), "pheromone update"),
    (("pheromone.select_elite", _reverse_elite), "elite"),
    (("colony.construct_tours", _shift_costs), "cost"),
    (("colony.construct_tours", _costs_below_the_floor), "lower bound"),
    (("colony.compute_probability_matrix", _flatten_probabilities), "probabilities"),
])
def test_run_checker_rejects_a_corrupted_layer(world, corrupt, message):
    with pytest.raises(CheckFailed, match=message):
        _run_with_checker(world, corrupt)


def test_iteration_windows_reject_times_that_match_no_readings():
    readings = [0.0, 1.0, 3.0, 3.5, 6.0]
    assert iteration_windows(readings, [2000.0, 2500.0]) == [(1.0, 3.0), (3.5, 6.0)]
    with pytest.raises(CheckFailed, match="clock readings"):
        iteration_windows(readings, [2000.0, 1234.0])


def test_missing_names_are_reported_and_patches_restored():
    from antbatch import colony

    original = colony.argmax_select_block
    patches = Patches("antbatch")
    assert not patches.wrap("colony.no_such_function", lambda fn: fn)
    assert patches.missing == ["colony.no_such_function"]
    assert patches.wrap("selection.argmax_select_block", lambda fn: lambda *a: fn(*a))
    assert colony.argmax_select_block is not original
    patches.restore()
    assert colony.argmax_select_block is original


def test_tracing_leaves_tours_unchanged(world):
    params = world["params"]
    inst = world["inst"]
    tau0 = PheromoneState.initial(N, params.q0_tau)
    p = compute_probability_matrix(tau0, inst, params)
    plain = bench.construct_tours(p, inst, params, 0).tours
    tracer = Tracer("antbatch")
    with tracer:
        traced = bench.construct_tours(p, inst, params, 0).tours
    assert np.array_equal(plain, traced)
    labels = {s.label for s in tracer.spans}
    assert {"colony.construct_tours", "rng.step_exponentials",
            "selection.argmax_select_block", "model.batch_costs"} <= labels
    assert not tracer.patches.missing
    top = [s for s in tracer.spans if s.depth == 0]
    assert len(top) == 1 and top[0].self_time < top[0].end - top[0].start
