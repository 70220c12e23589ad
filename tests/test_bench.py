import hashlib
import io
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from antbatch import rng
from antbatch.bench import (
    CONVERGENCE_BAND,
    ExperimentConfig,
    ITER_COLUMNS,
    IterationRecord,
    SCALING_COLUMNS,
    SHIFT_COLUMNS,
    SyntheticSpec,
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
from antbatch.colony import compute_probability_matrix
from antbatch.model import (
    AcoParams,
    GammaSchedule,
    PheromoneState,
    Selection,
    build_instance,
)
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


def tiny_config(**kw):
    defaults = dict(
        params=AcoParams(m=6, k=2, max_iters=4, seed=11),
        synthetic=SyntheticSpec(n=10, seed=3),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# synthetic instances ----------------------------------------------------------

def test_make_synthetic_instance_deterministic():
    a = make_synthetic_instance(SyntheticSpec(n=30, seed=5))
    b = make_synthetic_instance(SyntheticSpec(n=30, seed=5))
    assert a == b
    assert a.dimension == 30
    assert a.name == "rnd30"
    c = make_synthetic_instance(SyntheticSpec(n=30, seed=6))
    assert c != a


def test_synthetic_round_trips_through_serializer():
    raw = make_synthetic_instance(SyntheticSpec(n=25, seed=1, kind="uniform"))
    assert parse_instance(serialize_instance(raw)) == raw
    build_instance(raw)  # and it is a usable metric instance


def test_synthetic_spec_validates_kind():
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, kind="spiral")


# config -----------------------------------------------------------------------

def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(params=AcoParams(m=2, k=1))
    with pytest.raises(ValueError):
        ExperimentConfig(params=AcoParams(m=2, k=1),
                         instance_path="x.tsp",
                         synthetic=SyntheticSpec(n=5))


def test_config_json_round_trip():
    cfg = tiny_config(
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
    (lambda d: d["params"].update(m="six"), "bad config value"),
    (lambda d: d.update(params=[]), "config params must be a JSON object"),
], ids=["top", "params", "schedule", "no-params", "no-k", "type", "not-object"])
def test_config_from_dict_names_the_bad_key(edit, named):
    d = json.loads(json.dumps(config_to_dict(tiny_config())))
    edit(d)
    with pytest.raises(ValueError, match=named):
        config_from_dict(d)


# run_experiment ----------------------------------------------------------------

def test_run_experiment_record_invariants():
    cfg = tiny_config(repetitions=2)
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


def test_run_experiment_is_deterministic_byte_for_byte():
    cfg = tiny_config(repetitions=2)
    a, _ = run_experiment(cfg, clock=FakeClock())
    b, _ = run_experiment(cfg, clock=FakeClock())
    assert records_csv_text(a) == records_csv_text(b)


def test_run_experiment_real_clock_changes_only_timing():
    cfg = tiny_config()
    a, _ = run_experiment(cfg)
    b, _ = run_experiment(cfg)
    strip = lambda recs: [
        (r.run_id, r.seed, r.iteration, r.iteration_best_cost,
         r.best_cost_so_far, r.gamma, r.rho) for r in recs]
    assert strip(a) == strip(b)


def test_gamma_column_empty_for_non_adaptive():
    cfg = tiny_config(params=AcoParams(m=6, k=2, max_iters=2, seed=0,
                                       selection=Selection.IR))
    records, _ = run_experiment(cfg, clock=FakeClock())
    assert all(r.gamma is None for r in records)
    text = records_csv_text(records)
    assert text.splitlines()[0] == ",".join(ITER_COLUMNS)
    assert text.splitlines()[1].split(",")[7] == ""


def test_solution_error_needs_best_known():
    cfg = tiny_config()
    records, _ = run_experiment(cfg, clock=FakeClock())
    assert all(r.solution_error_percent is None for r in records)
    cfg2 = tiny_config(best_known=100.0)
    records2, summaries2 = run_experiment(cfg2, clock=FakeClock())
    for r in records2:
        assert r.solution_error_percent == pytest.approx(
            100.0 * (r.best_cost_so_far - 100.0) / 100.0)
    assert summaries2[0].solution_error_percent is not None


def test_time_limit_terminates_and_is_recorded():
    # run_experiment calls the clock 3x per iteration (t0, t1, limit check)
    # plus once at run start; a 1s tick with a 2.5s budget stops after the
    # first iteration's check
    cfg = tiny_config(params=AcoParams(m=4, k=1, max_iters=50, seed=0),
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


def test_summary_json_shape():
    cfg = tiny_config(best_known=50.0)
    inst = load_instance(cfg)
    _, summaries = run_experiment(cfg, inst, clock=FakeClock())
    doc = json.loads(summary_json_text(cfg, inst, summaries))
    assert doc["instance"]["n"] == 10
    assert doc["instance"]["best_known_source"] == "override"
    assert len(doc["runs"]) == 1
    assert "median_final_best_cost" in doc["aggregate"]
    assert doc["config"]["params"]["selection"] == "adair"


def test_summary_names_bundled_table_only_when_it_has_an_entry():
    def source(cfg):
        inst = load_instance(cfg)
        _, summaries = run_experiment(cfg, inst, clock=FakeClock())
        return json.loads(summary_json_text(cfg, inst, summaries))["instance"]

    doc = source(tiny_config())  # rnd10: no table entry, no override
    assert doc["best_known"] is None
    assert doc["best_known_source"] is None
    doc = source(tiny_config(instance_path=os.path.join(DATA, "u159.tsp"), synthetic=None,
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
    inst = build_instance(make_synthetic_instance(SyntheticSpec(n=10, seed=3)))
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
    inst = build_instance(make_synthetic_instance(SyntheticSpec(n=10, seed=3)))
    rows = run_scaling_study([inst], [64], "sequential", iterations=1,
                             repetitions=1, seed=0, budget_ms=1e-6)
    assert len(rows) == 1
    assert rows[0]["status"] == "exceeded_budget"
    assert rows[0]["mean_ms_per_iter"] is None


def test_scaling_study_rejects_bad_mode():
    inst = build_instance(make_synthetic_instance(SyntheticSpec(n=10, seed=3)))
    with pytest.raises(ValueError):
        run_scaling_study([inst], [4], "warp")


# shift study ---------------------------------------------------------------------

def test_shift_study_requires_adaptive():
    inst = build_instance(make_synthetic_instance(SyntheticSpec(n=8, seed=0)))
    with pytest.raises(ValueError):
        run_probability_shift_study(
            inst, AcoParams(m=4, k=1, selection=Selection.IR), 2)


def test_shift_study_rows_and_gamma_one_matches_ir_probability():
    inst = build_instance(make_synthetic_instance(SyntheticSpec(n=8, seed=0)))
    params = AcoParams(m=4, k=1, seed=5, selection=Selection.ADAIR,
                       gamma_schedule=GammaSchedule(1.0, 1.0, 10))
    rows = run_probability_shift_study(inst, params, 2, trials=40_000)
    assert [r["iteration"] for r in rows] == [0, 1]
    for r in rows:
        assert r["gamma"] == 1.0
        assert 0.0 < r["p_max"] <= 1.0
        assert 0.0 <= r["p_hat_max_prime"] <= 1.0

    # recompute iteration 0's masked row and integrate the exact plain
    # independent-roulette win probability of its argmax city
    tau = PheromoneState.initial(inst.n, params.q0_tau)
    prob = compute_probability_matrix(tau, inst, params)
    start = int(rng.start_cities(params.seed, 0, params.m, inst.n)[0])
    row = prob.p[start].copy()
    row[start] = 0.0
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
    inst = build_instance(make_synthetic_instance(SyntheticSpec(n=8, seed=0)))
    params = AcoParams(m=4, k=1, seed=5, selection=Selection.ADAIR,
                       gamma_schedule=GammaSchedule(1.5, 1.0, 4))
    rows = run_probability_shift_study(inst, params, 4, trials=1000)
    gammas = [r["gamma"] for r in rows]
    assert gammas[0] == 1.5
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))


# pinned outputs -------------------------------------------------------------------

# sha256 of seeded outputs, computed before colony.iterate replaced the three
# inline copies of the iteration loop. The digests are of repr'd floats, so
# they assume IEEE doubles and the numpy/libm results of an x86-64 Linux build.
RECORD_DIGESTS = {
    "rw": "3758f1902adddea79671f42229f38bd4e05298a4aae508b5124270b03f24c16b",
    "ir": "ca6b4f4d93a731856cd944eeb8ee91248c3c57adcd0eb6e9042209964e5aac56",
    "adair": "a679c1e0ce66bc6bc776219ac7fbf72818f0d6bb4df5634137f74b8cc14633bf",
}
SHIFT_DIGEST = "339e36725116f3f5c307127f962ba05d6d3937cab180f0963ee0c753676ea4e0"
PINNED_SPEC = SyntheticSpec(n=20, seed=4)


@pytest.mark.parametrize("mech", list(Selection))
def test_run_experiment_outputs_are_pinned(mech):
    cfg = ExperimentConfig(
        params=AcoParams(m=8, k=2, selection=mech, max_iters=3, seed=7,
                         gamma_schedule=GammaSchedule(period=3)),
        synthetic=PINNED_SPEC, repetitions=2)
    records, summaries = run_experiment(cfg, clock=FakeClock())
    runs = json.dumps([asdict(s) for s in summaries], sort_keys=True)
    digest = hashlib.sha256((records_csv_text(records) + runs).encode()).hexdigest()
    assert digest == RECORD_DIGESTS[mech.value]


def test_shift_study_rows_are_pinned():
    inst = build_instance(make_synthetic_instance(PINNED_SPEC))
    params = AcoParams(m=8, k=2, seed=5, selection=Selection.ADAIR,
                       gamma_schedule=GammaSchedule(1.5, 1.0, 4))
    buf = io.StringIO()
    write_dict_csv(run_probability_shift_study(inst, params, 4, trials=2000),
                   SHIFT_COLUMNS, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SHIFT_DIGEST
