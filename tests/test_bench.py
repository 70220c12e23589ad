import hashlib
import io
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from antbatch.bench import (
    CONVERGENCE_BAND,
    ExperimentConfig,
    ITER_COLUMNS,
    IterationRecord,
    SCALING_COLUMNS,
    SHIFT_COLUMNS,
    _convergence_generation,
    config_from_dict,
    config_to_dict,
    load_instance,
    make_synthetic_instance,
    run_experiment,
    run_probability_shift_study,
    run_scaling_study,
    summary_json_text,
    write_dict_csv,
    write_records_csv,
)
from antbatch.colony import Colony, compute_probability_matrix
from antbatch.model import (
    AcoParams,
    GammaSchedule,
    PheromoneState,
    Selection,
    build_instance,
)
from antbatch.oracle import empirical_selection_distribution
from antbatch.tsplib import parse_instance, serialize_instance

from conftest import DATA


class FakeClock:
    """Monotonic stub: each call advances a fixed number of seconds."""

    def __init__(self, tick=0.001):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


def records_csv_text(records):
    buf = io.StringIO()
    write_records_csv(records, buf)
    return buf.getvalue()


def tiny_config(path, **kw):
    defaults = dict(
        params=AcoParams(m=6, k=2, max_iters=4, seed=11),
        instance_path=path,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# synthetic instances ----------------------------------------------------------

def test_make_synthetic_instance_deterministic():
    a = make_synthetic_instance(30, seed=5)
    b = make_synthetic_instance(30, seed=5)
    assert a == b
    assert a.dimension == 30
    assert a.name == "rnd30"
    c = make_synthetic_instance(30, seed=6)
    assert c != a


def test_synthetic_round_trips_through_serializer():
    raw = make_synthetic_instance(25, seed=1, kind="uniform")
    assert parse_instance(serialize_instance(raw)) == raw
    build_instance(raw)  # and it is a usable metric instance


def test_make_synthetic_instance_validates_kind():
    with pytest.raises(ValueError, match="kind must be clustered or uniform"):
        make_synthetic_instance(10, kind="spiral")


# config -----------------------------------------------------------------------

def test_config_json_round_trip(rnd10):
    cfg = tiny_config(
        rnd10,
        params=AcoParams(m=6, k=2, max_iters=4, seed=11,
                         selection=Selection.RW,
                         gamma_schedule=GammaSchedule(1.25, 1.0, 50)),
        repetitions=3, best_known=123.0)
    d = json.loads(json.dumps(config_to_dict(cfg)))
    again = config_from_dict(d)
    assert again == cfg


@pytest.mark.parametrize("edit, named", [
    (lambda d: d.update(chunk_size=4), "unknown config key 'chunk_size'"),
    (lambda d: d["params"].update(chunk_sz=4), "unknown config key 'params.chunk_sz'"),
    (lambda d: d["params"]["gamma_schedule"].update(p=1),
     "unknown config key 'params.gamma_schedule.p'"),
    (lambda d: d.pop("params"), "missing config key 'params'"),
    (lambda d: d["params"].pop("k"), "missing config key 'params.k'"),
    (lambda d: d["params"].update(m="six"), "^m must be an integer, got 'six'$"),
    (lambda d: d.update(params=[]), "config params must be a JSON object"),
    (lambda d: d.update(synthetic={"n": 30}), "unknown config key 'synthetic'"),
    (lambda d: d.pop("instance_path"), "missing config key 'instance_path'"),
], ids=["top", "params", "schedule", "no-params", "no-k", "type", "not-object",
        "synthetic", "no-path"])
def test_config_from_dict_names_the_bad_key(edit, named, rnd10):
    d = json.loads(json.dumps(config_to_dict(tiny_config(rnd10))))
    edit(d)
    with pytest.raises(ValueError, match=named):
        config_from_dict(d)


@pytest.mark.parametrize("field, value", [
    ("m", 4.0), ("k", 1.0), ("max_iters", 2.0), ("seed", 1.5), ("seed", True),
    ("seed", "0"), ("repetitions", 1.0), ("repetitions", np.True_),
    ("best_known", "5"), ("best_known", float("nan")), ("best_known", float("inf")),
    ("best_known", 0.0), ("time_limit_seconds", float("nan")),
    ("instance_path", 3), ("instance_path", ["a"]), ("instance_path", None),
    ("output_path", 3), ("summary_path", 7), ("lenient", "false"), ("lenient", 0),
    ("alpha", float("inf")), ("beta", float("inf")), ("q0_tau", float("inf")),
    ("alpha", True), ("alpha", "2"), ("beta", None), ("rho", None), ("rho", np.True_),
    ("q0_tau", "1"), ("best_known", True), ("time_limit_seconds", "5"),
    ("time_limit_seconds", False),
])
def test_config_rejects_a_mistyped_or_non_finite_value(field, value, rnd10):
    # each of these used to pass validation and end in a traceback mid-run,
    # or, for a NaN time limit, run to the iteration cap
    params = {"m": 4, "k": 1, "max_iters": 2, "seed": 0}
    rest = {}
    (params if field in AcoParams.__dataclass_fields__ else rest)[field] = value
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        tiny_config(rnd10, params=AcoParams(**params), **rest)


def test_integer_fields_take_numpy_integers_as_int(rnd10):
    cfg = tiny_config(rnd10, params=AcoParams(m=np.int32(4), k=np.int64(1),
                                              max_iters=np.uint8(2), seed=np.uint64(2**63)),
                      repetitions=np.int16(2))
    assert [type(v) for v in (cfg.params.m, cfg.params.k, cfg.params.max_iters,
                              cfg.params.seed, cfg.repetitions)] == [int] * 5
    assert cfg.params.seed == 2**63


def test_config_rejects_repetitions_past_the_largest_seed(rnd10):
    d = json.loads(json.dumps(config_to_dict(tiny_config(
        rnd10, params=AcoParams(m=4, k=1, seed=2**64 - 1)))))
    assert config_from_dict(d).params.seed == 2**64 - 1  # one run still fits
    d["repetitions"] = 2
    with pytest.raises(ValueError, match=rf"^seed {2**64 - 1} with 2 repetitions runs"):
        config_from_dict(d)


# run_experiment ----------------------------------------------------------------

def test_run_experiment_record_invariants(rnd10):
    cfg = tiny_config(rnd10, repetitions=2)
    records, summaries = run_experiment(cfg, clock=FakeClock())
    assert len(records) == 2 * 4
    assert len(summaries) == 2
    for run_id in (0, 1):
        rs = [r for r in records if r.run_id == run_id]
        assert [r.iteration for r in rs] == [0, 1, 2, 3]
        assert all(r.seed == 11 + run_id for r in rs)
        # best-so-far is the running minimum of iteration bests
        best = np.inf
        for r in rs:
            best = min(best, r.iteration_best_cost)
            assert r.best_cost_so_far == best
            assert r.rho == cfg.params.rho
            assert r.gamma is not None  # default mechanism anneals
        assert summaries[run_id].final_best_cost == best
        assert summaries[run_id].terminated_by == "max_iters"


def test_run_experiment_is_deterministic_byte_for_byte(rnd10):
    cfg = tiny_config(rnd10, repetitions=2)
    a, _ = run_experiment(cfg, clock=FakeClock())
    b, _ = run_experiment(cfg, clock=FakeClock())
    assert records_csv_text(a) == records_csv_text(b)


def test_run_experiment_real_clock_changes_only_timing(rnd10):
    cfg = tiny_config(rnd10)
    a, _ = run_experiment(cfg)
    b, _ = run_experiment(cfg)
    strip = lambda recs: [
        (r.run_id, r.seed, r.iteration, r.iteration_best_cost,
         r.best_cost_so_far, r.gamma, r.rho) for r in recs]
    assert strip(a) == strip(b)


def test_gamma_column_empty_for_non_adaptive(rnd10):
    cfg = tiny_config(rnd10, params=AcoParams(m=6, k=2, max_iters=2, seed=0,
                                              selection=Selection.IR))
    records, _ = run_experiment(cfg, clock=FakeClock())
    assert all(r.gamma is None for r in records)
    text = records_csv_text(records)
    assert text.splitlines()[0] == ",".join(ITER_COLUMNS)
    assert text.splitlines()[1].split(",")[7] == ""


def test_solution_error_needs_best_known(rnd10):
    cfg = tiny_config(rnd10)
    records, _ = run_experiment(cfg, clock=FakeClock())
    assert all(r.solution_error_percent is None for r in records)
    cfg2 = tiny_config(rnd10, best_known=100.0)
    records2, summaries2 = run_experiment(cfg2, clock=FakeClock())
    for r in records2:
        assert r.solution_error_percent == pytest.approx(
            100.0 * (r.best_cost_so_far - 100.0) / 100.0)
    assert summaries2[0].solution_error_percent is not None


def test_time_limit_terminates_and_is_recorded(rnd10):
    # run_experiment calls the clock 3x per iteration (t0, t1, limit check)
    # plus once at run start; a 1s tick with a 2.5s budget stops after the
    # first iteration's check
    cfg = tiny_config(rnd10, params=AcoParams(m=4, k=1, max_iters=50, seed=0),
                      time_limit_seconds=2.5)
    records, summaries = run_experiment(cfg, clock=FakeClock(tick=1.0))
    assert summaries[0].terminated_by == "time_limit"
    assert summaries[0].iterations_run < 50
    assert len(records) == summaries[0].iterations_run


def test_convergence_generation_definition():
    assert _convergence_generation([10.0, 5.0, 1.0, 1.0]) == 2
    assert _convergence_generation([1.0, 1.0]) == 0
    # entering the band counts, equality included
    final = 100.0
    inside = final * (1.0 + CONVERGENCE_BAND)
    assert _convergence_generation([200.0, inside, final]) == 1
    just_outside = final * (1.0 + CONVERGENCE_BAND) + 1e-9
    assert _convergence_generation([just_outside, final]) == 1


def test_summary_json_shape(rnd10):
    cfg = tiny_config(rnd10, best_known=50.0)
    inst = load_instance(cfg)
    _, summaries = run_experiment(cfg, inst, clock=FakeClock())
    doc = json.loads(summary_json_text(cfg, inst, summaries))
    assert doc["instance"]["n"] == 10
    assert doc["instance"]["best_known_source"] == "override"
    assert len(doc["runs"]) == 1
    assert "median_final_best_cost" in doc["aggregate"]
    assert doc["config"]["params"]["selection"] == "adair"


def test_summary_names_bundled_table_only_when_it_has_an_entry(rnd10):
    def source(cfg):
        inst = load_instance(cfg)
        _, summaries = run_experiment(cfg, inst, clock=FakeClock())
        return json.loads(summary_json_text(cfg, inst, summaries))["instance"]

    doc = source(tiny_config(rnd10))  # rnd10: no table entry, no override
    assert doc["best_known"] is None
    assert doc["best_known_source"] is None
    doc = source(tiny_config(os.path.join(DATA, "u159.tsp"),
                             params=AcoParams(m=4, k=1, max_iters=1, seed=0)))
    assert doc["best_known"] is not None
    assert doc["best_known_source"] == "bundled-table"


# CSV format ---------------------------------------------------------------------

def test_records_csv_golden_row():
    rec = IterationRecord(run_id=0, seed=7, iteration=3, wall_clock_ms=1.5,
                          iteration_best_cost=42.0, best_cost_so_far=41.0,
                          solution_error_percent=None, gamma=1.25, rho=0.1)
    text = records_csv_text([rec])
    lines = text.splitlines()
    assert lines[0] == ("run_id,seed,iteration,wall_clock_ms,"
                        "iteration_best_cost,best_cost_so_far,"
                        "solution_error_percent,gamma,rho")
    assert lines[1] == "0,7,3,1.5,42.0,41.0,,1.25,0.1"


# scaling study -------------------------------------------------------------------

def test_scaling_study_rows_and_speedup():
    inst = build_instance(make_synthetic_instance(10, seed=3))
    rows = run_scaling_study([inst], [4, 6], "both", iterations=2,
                             repetitions=1, seed=0)
    assert len(rows) == 4
    for row in rows:
        assert set(row) == set(SCALING_COLUMNS)
        assert row["status"] == "ok"
        assert row["mean_ms_per_iter"] > 0.0
    batched = [r for r in rows if r["mode"] == "batched"]
    assert all(r["speedup_vs_sequential"] is not None for r in batched)
    sequential = [r for r in rows if r["mode"] == "sequential"]
    assert all(r["speedup_vs_sequential"] is None for r in sequential)


def test_scaling_study_budget_marker():
    inst = build_instance(make_synthetic_instance(10, seed=3))
    rows = run_scaling_study([inst], [64], "sequential", iterations=1,
                             repetitions=1, seed=0, budget_ms=1e-6)
    assert len(rows) == 1
    assert rows[0]["status"] == "exceeded_budget"
    assert rows[0]["mean_ms_per_iter"] is None


def test_scaling_study_rejects_bad_mode():
    inst = build_instance(make_synthetic_instance(10, seed=3))
    with pytest.raises(ValueError):
        run_scaling_study([inst], [4], "warp")


@pytest.mark.parametrize("counts, named", [
    (dict(iterations=0), "iterations must be >= 1, got 0"),
    (dict(repetitions=0), "repetitions must be >= 1, got 0"),
    (dict(iterations=-2), "iterations must be >= 1, got -2"),
])
def test_scaling_study_rejects_empty_samples(counts, named):
    # no measured iteration would leave nan timings in a row marked ok
    inst = build_instance(make_synthetic_instance(10, seed=3))
    with pytest.raises(ValueError, match=named):
        run_scaling_study([inst], [4], "batched", **counts)


def test_scaling_study_rejects_repetitions_past_the_largest_seed():
    # rep r runs seed base+r; the check comes before any cell is timed
    inst = build_instance(make_synthetic_instance(10, seed=3))
    readings = []

    def clock():
        readings.append(None)
        return 0.0

    with pytest.raises(ValueError, match=rf"^seed {2**64 - 1} with 2 repetitions runs"):
        run_scaling_study([inst], [4], "batched", iterations=1, repetitions=2,
                          seed=2**64 - 1, clock=clock)
    assert readings == []


# shift study ---------------------------------------------------------------------

def test_shift_study_requires_adaptive():
    inst = build_instance(make_synthetic_instance(8, seed=0))
    with pytest.raises(ValueError):
        run_probability_shift_study(
            inst, AcoParams(m=4, k=1, selection=Selection.IR), 2)


def test_shift_study_rows_and_gamma_one_matches_ir_probability():
    inst = build_instance(make_synthetic_instance(8, seed=0))
    params = AcoParams(m=4, k=1, seed=5, selection=Selection.ADAIR,
                       gamma_schedule=GammaSchedule(1.0, 1.0, 10))
    rows = run_probability_shift_study(inst, params, 2, trials=40_000)
    assert [r["iteration"] for r in rows] == [0, 1]
    for r in rows:
        assert r["gamma"] == 1.0
        assert 0.0 < r["p_max"] <= 1.0
        assert 0.0 <= r["p_hat_max_prime"] <= 1.0

    # recompute iteration 0's masked row of city 0 and integrate the exact
    # plain independent-roulette win probability of its argmax city
    tau = PheromoneState.initial(inst.n, params.q0_tau)
    prob = compute_probability_matrix(tau, inst, params)
    row = prob.p[0].copy()
    row[0] = 0.0
    row /= row.sum()
    j = int(np.argmax(row))
    assert rows[0]["p_max"] == pytest.approx(row[j])

    u = np.linspace(0.0, 1.0, 200_001)
    others = [p_i for i, p_i in enumerate(row) if i != j and p_i > 0.0]
    integrand = np.ones_like(u)
    for p_i in others:
        integrand *= np.minimum(1.0, u * row[j] / p_i)
    exact = np.trapezoid(integrand, u)
    assert rows[0]["p_hat_max_prime"] == pytest.approx(exact, abs=0.015)


def test_shift_study_annealing_reports_schedule_gammas():
    inst = build_instance(make_synthetic_instance(8, seed=0))
    params = AcoParams(m=4, k=1, seed=5, selection=Selection.ADAIR,
                       gamma_schedule=GammaSchedule(1.5, 1.0, 4))
    rows = run_probability_shift_study(inst, params, 4, trials=1000)
    gammas = [r["gamma"] for r in rows]
    assert gammas[0] == 1.5
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))


def test_shift_study_estimates_through_the_oracle():
    inst = build_instance(make_synthetic_instance(8, seed=0))
    params = AcoParams(m=4, k=1, seed=5, selection=Selection.ADAIR,
                       gamma_schedule=GammaSchedule(1.5, 1.0, 4))
    rows = run_probability_shift_study(inst, params, 4, trials=1500)
    colony = Colony(inst, params)
    for it, r in enumerate(rows):
        row = colony.prob.p[0]
        row = row / row.sum()
        freq = empirical_selection_distribution(Selection.ADAIR, row, r["gamma"], 1500,
                                                seed=params.seed)
        assert r["p_hat_max_prime"] == freq[int(np.argmax(row))]
        colony.iterate(it)


@pytest.mark.parametrize("trials", [0, -5])
def test_shift_study_rejects_trials_below_one(trials):
    inst = build_instance(make_synthetic_instance(8, seed=0))
    params = AcoParams(m=4, k=1, selection=Selection.ADAIR)
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        run_probability_shift_study(inst, params, 2, trials=trials)


# pinned outputs -------------------------------------------------------------------

# sha256 of seeded outputs (the tours, and so every record, depend on the
# step blocks' and the start cities' bits). rw's was recorded when the
# wheel's step came to draw one (m, 1) threshold block instead of an
# (m, n - s) one, so every threshold after the first step's changed, and to
# spin by run > u * total; ir's and adair's when they moved to chunk, bound
# and fallback rows (on 20 cities every step is a last-c step, which scans
# each ant's unvisited cities in a new order).
# The digests are of repr'd floats, so they assume IEEE doubles and the
# numpy/libm results of an x86-64 Linux build.
RECORD_DIGESTS = {
    "rw": "8bfa1d6fb933a383cc94b6e5a31ba26e8f752e48c9a86fb3199fc75bd2d3e82d",
    "ir": "ef09460ddee78aa86cedb6d47057af0a74094257e23f0c436c987cd9cbc562d7",
    "adair": "48dae206eac439f1d7c6795c887c465a8146acf611740be16489362f24d401c5",
}
# Every row of the shift study reads the oracle estimator's block-0
# deviates, so SHIFT_DIGEST changes with the estimator's keying; the study
# reads city 0's row and runs Colony.iterate between rows, so it changes
# with the construction draws' too. Recorded when the adaptive mechanism
# moved to chunk, bound and fallback rows.
SHIFT_DIGEST = "4e1e01cd85161923b9e8e63347031fd18557e57fcf5a9719253ecb58ec26ae5f"


@pytest.mark.parametrize("mech", list(Selection))
def test_run_experiment_outputs_are_pinned(mech, rnd20):
    cfg = ExperimentConfig(
        params=AcoParams(m=8, k=2, selection=mech, max_iters=3, seed=7,
                         gamma_schedule=GammaSchedule(period=3)),
        instance_path=rnd20, repetitions=2)
    records, summaries = run_experiment(cfg, clock=FakeClock())
    runs = json.dumps([asdict(s) for s in summaries], sort_keys=True)
    digest = hashlib.sha256((records_csv_text(records) + runs).encode()).hexdigest()
    assert digest == RECORD_DIGESTS[mech.value]


def test_shift_study_rows_are_pinned(rnd20):
    inst = load_instance(ExperimentConfig(params=AcoParams(m=1, k=1), instance_path=rnd20))
    params = AcoParams(m=8, k=2, seed=5, selection=Selection.ADAIR,
                       gamma_schedule=GammaSchedule(1.5, 1.0, 4))
    buf = io.StringIO()
    write_dict_csv(run_probability_shift_study(inst, params, 4, trials=2000),
                   SHIFT_COLUMNS, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SHIFT_DIGEST
