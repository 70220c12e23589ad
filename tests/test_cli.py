import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from antbatch import rng
from antbatch.bench import (
    config_to_dict,
    ExperimentConfig,
    make_synthetic_instance,
    run_probability_shift_study,
)
from antbatch.cli import _estimator_bytes, _resident_bytes, _sequential_bytes, main
from antbatch.colony import Colony, compute_probability_matrix, construct_tours
from antbatch.model import AcoParams, GammaSchedule, PheromoneState, Selection, build_instance
from antbatch.oracle import sequential_aco_step
from antbatch.tsplib import parse_instance, serialize_instance

from conftest import PKG_DATA


@pytest.fixture
def inst_path(tmp_path):
    path = str(tmp_path / "t12.tsp")
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_instance(make_synthetic_instance(12, seed=4)))
    return path


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def test_solve_writes_csv(inst_path, tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    rc = main(["solve", inst_path, "--ants", "5", "--elite", "1",
               "--iters", "3", "--seed", "2", "--selection", "ir",
               "--out", out])
    assert rc == 0
    lines = read(out).splitlines()
    assert lines[0].startswith("run_id,seed,iteration")
    assert len(lines) == 4
    assert "wrote 3 records" in capsys.readouterr().out


def test_solve_stdout_when_no_out(inst_path, capsys):
    rc = main(["solve", inst_path, "--ants", "4", "--iters", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("run_id,seed,iteration")
    assert len(out.splitlines()) == 3


def test_solve_summary_and_best_known(inst_path, tmp_path):
    out = str(tmp_path / "run.csv")
    summary = str(tmp_path / "run.json")
    rc = main(["solve", inst_path, "--ants", "6", "--iters", "2",
               "--reps", "2", "--best-known", "1000",
               "--out", out, "--summary", summary])
    assert rc == 0
    doc = json.loads(read(summary))
    assert doc["instance"]["best_known"] == 1000.0
    assert len(doc["runs"]) == 2
    err_col = read(out).splitlines()[1].split(",")[6]
    assert err_col != ""


def test_solve_config_file_with_flag_override(inst_path, tmp_path):
    cfg = ExperimentConfig(
        params=AcoParams(m=5, k=1, max_iters=2, seed=3,
                         selection=Selection.RW),
        instance_path=inst_path,
    )
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(config_to_dict(cfg), f)
    out = str(tmp_path / "run.csv")
    rc = main(["solve", inst_path, "--config", cfg_path,
               "--iters", "4", "--out", out])
    assert rc == 0
    lines = read(out).splitlines()
    assert len(lines) == 5          # --iters flag overrode the file
    assert lines[1].split(",")[1] == "3"  # file's seed survived


def _config_file(tmp_path, instance_path):
    cfg = ExperimentConfig(params=AcoParams(m=4, k=1, max_iters=2, seed=5),
                           instance_path=instance_path)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(config_to_dict(cfg), f)
    return cfg_path


def test_solve_reads_instance_from_config(tmp_path):
    # the config names rnd120 and no positional is given: that file is run
    summary = str(tmp_path / "run.json")
    cfg_path = _config_file(tmp_path, os.path.join(PKG_DATA, "rnd120.tsp"))
    rc = main(["solve", "--config", cfg_path,
               "--ants", "3", "--iters", "1", "--out", str(tmp_path / "run.csv"),
               "--summary", summary])
    assert rc == 0
    doc = json.loads(read(summary))
    assert doc["instance"]["n"] == 120
    assert doc["config"]["instance_path"].endswith("rnd120.tsp")


def test_solve_positional_instance_overrides_config(inst_path, tmp_path):
    summary = str(tmp_path / "run.json")
    cfg_path = _config_file(tmp_path, os.path.join(PKG_DATA, "rnd120.tsp"))
    rc = main(["solve", inst_path, "--config", cfg_path,
               "--ants", "3", "--iters", "1", "--out", str(tmp_path / "run.csv"),
               "--summary", summary])
    assert rc == 0
    doc = json.loads(read(summary))
    assert doc["instance"]["n"] == 12
    assert doc["config"]["instance_path"] == inst_path


def test_solve_without_instance_or_config_is_one_line_error(capsys):
    rc = main(["solve", "--ants", "3", "--iters", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "antbatch: error: solve needs an instance file or a --config naming one\n"


def test_config_with_unknown_key_is_one_line_error(inst_path, tmp_path, capsys):
    d = config_to_dict(ExperimentConfig(params=AcoParams(m=5, k=1),
                                        instance_path=inst_path))
    d["chunk_size"] = 4
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(d, f)
    rc = main(["solve", inst_path, "--config", cfg_path, "--iters", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "antbatch: error: unknown config key 'chunk_size'\n"


def test_config_with_a_fractional_seed_is_one_line_error(inst_path, tmp_path, capsys):
    d = config_to_dict(ExperimentConfig(params=AcoParams(m=5, k=1),
                                        instance_path=inst_path))
    d["params"]["seed"] = 1.5
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(d, f)
    rc = main(["solve", "--config", cfg_path, "--iters", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "antbatch: error: seed must be an integer, got 1.5\n"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["params"]["gamma_schedule"].update(period=2.5),
     "period must be an integer, got 2.5"),
    (lambda d: d.update(lenient="false"), "lenient must be a bool, got 'false'"),
    (lambda d: d.update(output_path=3), "output_path must be None or a str, got 3"),
    (lambda d: d.update(summary_path=7), "summary_path must be None or a str, got 7"),
    (lambda d: d.update(instance_path=["a"]), "instance_path must be a str, got ['a']"),
    (lambda d: d["params"].update(alpha="2"), "alpha must be a real number, got '2'"),
    (lambda d: d["params"].update(rho=None), "rho must be a real number, got None"),
    (lambda d: d["params"]["gamma_schedule"].update(gamma_min=True),
     "gamma_min must be a real number, got True"),
    (lambda d: d.update(time_limit_seconds="5"),
     "time_limit_seconds must be a real number, got '5'"),
    (lambda d: d.update(best_known=True), "best_known must be a real number, got True"),
], ids=["period", "lenient", "output_path", "summary_path", "instance_path", "alpha",
        "rho", "gamma_min", "time_limit_seconds", "best_known"])
def test_config_with_a_mistyped_value_is_one_line_error(edit, message, inst_path,
                                                         tmp_path, capsys):
    # each of these used to run with exit 0 or end in a TypeError traceback
    d = config_to_dict(ExperimentConfig(params=AcoParams(m=5, k=1),
                                        instance_path=inst_path))
    edit(d)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(d, f)
    rc = main(["solve", "--config", cfg_path, "--iters", "1"])
    assert rc == 2
    assert capsys.readouterr() == ("", f"antbatch: error: {message}\n")


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
def test_high_beta_underflow_is_one_line_error(optimize):
    # beta = 120 underflows tau^alpha * eta^beta entry by entry on rnd120;
    # those rows are rebuilt in the log domain, so the run returns its tours
    # and writes nothing to stderr, under python -O as well
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "antbatch.cli", "solve",
         os.path.join(src, "antbatch", "data", "rnd120.tsp"),
         "--beta", "120", "--iters", "2", "--ants", "8"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 3


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
@pytest.mark.parametrize("value, line", [
    ("nan", r"city 2 has coordinates \(nan, [^)]+\); coordinates must be finite"),
    ("inf", r"city 2 has coordinates \(inf, [^)]+\); coordinates must be finite"),
    ("1e200", r"cities \d+ and 2 lie 1e\+200 apart on one axis; "
              r"their squared distance overflows"),
])
def test_coordinates_out_of_range_are_one_line_error(value, line, optimize, tmp_path):
    # a nan coordinate used to end in "row 0 normalizer is nan", blaming the
    # pheromone, and inf or 1e200 in two lines of numpy warnings before that
    raw = make_synthetic_instance(12, seed=4)
    coords = list(raw.node_coords)
    coords[2] = (3, float(value), coords[2][2])
    path = tmp_path / f"{value}.tsp"
    path.write_text(serialize_instance(replace(raw, node_coords=tuple(coords))))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "antbatch.cli", "solve", str(path),
         "--iters", "1", "--ants", "3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert re.fullmatch(f"antbatch: error: {line}\n", proc.stderr), proc.stderr


def test_seed_overflow_across_repetitions_fails_before_any_run(inst_path, tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(["solve", inst_path, "--seed", str(2**64 - 1), "--reps", "2",
               "--iters", "3", "--ants", "4", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"antbatch: error: seed {2**64 - 1} with 2 repetitions runs "
                   "past the largest seed, 2**64 - 1\n")
    assert not out.exists()


def test_missing_file_is_error(capsys):
    rc = main(["solve", "/no/such/file.tsp", "--iters", "1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_malformed_instance_is_error(tmp_path, capsys):
    bad = str(tmp_path / "bad.tsp")
    with open(bad, "w") as f:
        f.write("DIMENSION : 5\nEDGE_WEIGHT_TYPE : EXPLICIT\n")
    rc = main(["solve", bad, "--iters", "1"])
    assert rc == 2
    assert "EXPLICIT" in capsys.readouterr().err


_NO_MEMORY = ("Unable to allocate 2.98 GiB for an array with shape (20000, 20000) "
              "and data type float64")


@pytest.mark.parametrize("target", ["antbatch.cli.build_instance", "antbatch.bench.Colony.iterate"],
                         ids=["antbatch.cli.build_instance", "antbatch.bench.iterate"])
def test_out_of_memory_is_one_line_error(target, inst_path, tmp_path, capsys, monkeypatch):
    # an instance (build_instance) or colony (Colony.iterate) too large for memory
    # ends in one line and exit 2, not in a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError(_NO_MEMORY)

    monkeypatch.setattr(target, exhausted)
    rc = main(["solve", inst_path, "--ants", "3", "--iters", "1",
               "--out", str(tmp_path / "run.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"antbatch: error: out of memory: {_NO_MEMORY}\n"


_TOO_MANY_ANTS = {
    "solve": ["solve", "{inst}", "--ants", "5000000", "--iters", "1"],
    "scaling": ["scaling", "--instances", "{inst}", "--ants", "4,5000000"],
    "shift-study": ["shift-study", "{inst}", "--ants", "5000000", "--iters", "1"],
    "convergence": ["convergence", "{inst}", "--ants", "5000000", "--iters", "1"],
}
# 8 * (4 * 12**2 + 2 * 12 * 11 + 12 + 5 * 5000000 * 12 + 4 * 5000000 * 11
# + 10 * 5000000) + 5000000 * 12 + 16 * 2**15 bytes
_TOO_LARGE = ("antbatch: error: a run on n = 12 cities with m = 5000000 ants needs "
              "about 4.3 GiB of arrays, more than {what} (1.0 GiB)\n")


def _never_loaded(raw, **kwargs):
    raise AssertionError(f"{raw.name} was loaded")


@pytest.mark.parametrize("command", list(_TOO_MANY_ANTS))
def test_run_too_large_for_the_address_space_limit_exits_before_loading(
        command, inst_path, capsys, monkeypatch):
    # the estimate from DIMENSION and m is checked before anything is
    # allocated; here the soft limit is 1 GiB
    real = resource.getrlimit
    monkeypatch.setattr(resource, "getrlimit", lambda which: (
        (1 << 30, resource.RLIM_INFINITY) if which == resource.RLIMIT_AS else real(which)))
    monkeypatch.setattr("antbatch.cli.build_instance", _never_loaded)
    rc = main([arg.format(inst=inst_path) for arg in _TOO_MANY_ANTS[command]])
    assert rc == 2
    assert capsys.readouterr().err == _TOO_LARGE.format(what="the address-space limit")


def test_run_too_large_for_physical_memory_exits_before_loading(inst_path, capsys,
                                                                 monkeypatch):
    real = os.sysconf
    pages = (1 << 30) // real("SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf",
                        lambda name: pages if name == "SC_PHYS_PAGES" else real(name))
    monkeypatch.setattr(resource, "getrlimit", lambda which: (
        resource.RLIM_INFINITY, resource.RLIM_INFINITY))
    monkeypatch.setattr("antbatch.cli.build_instance", _never_loaded)
    rc = main(["solve", inst_path, "--ants", "5000000", "--iters", "1"])
    assert rc == 2
    assert capsys.readouterr().err == _TOO_LARGE.format(what="physical memory")


@pytest.mark.parametrize("mech", list(Selection))
@pytest.mark.parametrize("n, m", [(60, 4000), (12, 20000), (3, 50000)])
def test_construction_peak_stays_within_the_size_checks_colony_term(n, m, mech):
    # the (m, n) term of the up-front size check bounds what one
    # construction allocates above its inputs
    inst = build_instance(make_synthetic_instance(n, seed=1))
    params = AcoParams.for_instance(m, selection=mech)
    p = compute_probability_matrix(PheromoneState.initial(n, 1.0), inst, params)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        construct_tours(p, inst, params, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= _resident_bytes(n, m) - _resident_bytes(n, 0)


@pytest.mark.parametrize("mech", list(Selection))
def test_a_run_peaks_within_the_size_checks_matrix_term(mech):
    # the arrays of a run with a single ant, from the parsed file on (the
    # load, the colony's initial tau and p, one iteration), peak within the
    # four (n, n) arrays counted: the instance's dist, tau and p, and the
    # one an iteration builds on top of them. Besides them
    # the row normalization p /= sums takes one fixed ufunc buffer of
    # getbufsize() elements, which the size check does not count. An
    # untraced first run fills the caches and free lists a first call
    # leaves behind.
    params = AcoParams(m=1, k=1, selection=mech)

    def run(raw):
        inst = build_instance(raw)
        Colony(inst, params).iterate(0)
        return inst.n

    raw = parse_instance(read(os.path.join(PKG_DATA, "rnd442.tsp")))
    run(raw)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        n = run(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= _resident_bytes(n, 1) + 8 * np.getbufsize()


def test_a_shift_study_peaks_within_the_size_check_with_the_estimators_chunk():
    # the shift study keeps city 0's row, not a transition matrix, so it
    # peaks within a run's four (n, n) arrays and the estimator's chunk,
    # beside the ufunc buffer of the row normalization
    params = AcoParams(m=1, k=1, seed=3, selection=Selection.ADAIR,
                       gamma_schedule=GammaSchedule(period=3))

    def run(raw):
        inst = build_instance(raw)
        run_probability_shift_study(inst, params, 3, trials=10)
        return inst.n

    raw = parse_instance(read(os.path.join(PKG_DATA, "rnd442.tsp")))
    run(raw)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        n = run(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= _resident_bytes(n, 1) + _estimator_bytes(n) + 8 * np.getbufsize()


@pytest.mark.parametrize("mech", list(Selection))
@pytest.mark.parametrize("n, m", [(30, 200), (120, 4)])
def test_the_sequential_reference_peaks_within_the_size_checks_sequential_term(n, m, mech):
    # above its inputs, dist and tau, one iteration of the scalar reference
    # holds Python lists of the transition matrix and of dist, 32 bytes an
    # entry, which the colony's count does not cover
    inst = build_instance(make_synthetic_instance(n, seed=1))
    params = AcoParams.for_instance(m, selection=mech)
    tau = PheromoneState.initial(n, params.q0_tau)
    sequential_aco_step(tau, inst, params, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sequential_aco_step(tau, inst, params, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= _sequential_bytes(n, m) - 2 * 8 * n * n


def test_a_scaling_run_holds_one_instance_at_a_time(tmp_path):
    # each instance is built when its cells start, so three files peak
    # within one run's count, as one file does (the ufunc buffer of the row
    # normalization besides); holding every instance's distances for the
    # whole grid peaked at 6.08 (n, n) arrays against 4.08 for one file
    path = os.path.join(PKG_DATA, "rnd442.tsp")
    out = str(tmp_path / "scaling.csv")

    def run(*paths):
        assert main(["scaling", "--instances", *paths, "--ants", "2", "--mode", "batched",
                     "--iterations", "1", "--reps", "1", "--out", out]) == 0

    run(path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run(path, path, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read(out).splitlines()) == 4
    assert peak - start <= _resident_bytes(442, 2) + 8 * np.getbufsize()


@pytest.mark.parametrize("mech", [Selection.IR, Selection.ADAIR])
def test_a_construction_that_falls_back_peaks_within_the_size_check(mech, monkeypatch):
    # n = 100 > CHUNK + 1, so some steps draw and score fallback rows; above
    # its inputs dist and p (and tau, which a run holds), one construction
    # peaks within the count, log table and chunk tables included
    n, m = 100, 3000
    inst = build_instance(make_synthetic_instance(n, seed=1))
    params = AcoParams.for_instance(m, selection=mech)
    p = compute_probability_matrix(PheromoneState.initial(n, 1.0), inst, params)
    widths = []
    real = rng.step_exponentials

    def spy(g, mm, r, out=None):
        widths.append(r)
        return real(g, mm, r, out)

    monkeypatch.setattr(rng, "step_exponentials", spy)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        construct_tours(p, inst, params, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widths.count(n) > 0
    assert peak - start <= _resident_bytes(n, m) - 3 * 8 * n * n


_SEQUENTIAL_TOO_LARGE = ("the sequential reference on n = 12 cities with m = 1000000 ants "
                         "needs about 1.1 GiB of arrays, more than the address-space limit "
                         "(1.0 GiB)")


@pytest.mark.parametrize("mode, message", [("sequential", _SEQUENTIAL_TOO_LARGE),
                                           ("both", _SEQUENTIAL_TOO_LARGE),
                                           ("batched", "rnd12 loaded")])
def test_scaling_checks_the_sequential_reference_unless_batched(mode, message, inst_path,
                                                                capsys, monkeypatch):
    # at n = 12 a million ants fit the colony's count (0.9 GiB) under a
    # 1 GiB soft limit, but not the sequential reference's (1.1 GiB)
    real = resource.getrlimit
    monkeypatch.setattr(resource, "getrlimit", lambda which: (
        (1 << 30, resource.RLIM_INFINITY) if which == resource.RLIMIT_AS else real(which)))

    def loaded(raw, **kwargs):
        raise ValueError(f"{raw.name} loaded")

    monkeypatch.setattr("antbatch.cli.build_instance", loaded)
    rc = main(["scaling", "--instances", inst_path, "--ants", "1000000", "--mode", mode])
    assert rc == 2
    assert capsys.readouterr().err == f"antbatch: error: {message}\n"


_PARSE_ONCE = {
    "solve": ["solve", "{inst}", "--iters", "1"],
    "solve --ants": ["solve", "{inst}", "--ants", "4", "--iters", "1"],
    "solve --config": ["solve", "--config", "{cfg}", "--iters", "1"],
    "scaling": ["scaling", "--instances", "{inst}", "--ants", "4", "--mode", "batched",
                "--iterations", "1", "--reps", "1"],
    "shift-study": ["shift-study", "{inst}", "--iters", "1", "--trials", "10"],
    "shift-study --ants": ["shift-study", "{inst}", "--ants", "4", "--iters", "1",
                           "--trials", "10"],
    "convergence": ["convergence", "{inst}", "--iters", "1", "--reps", "1",
                    "--out-prefix", "{prefix}"],
}


@pytest.mark.parametrize("command", list(_PARSE_ONCE))
def test_each_command_parses_its_instance_once(command, inst_path, tmp_path, monkeypatch):
    parsed = []

    def spy(text):
        parsed.append(text)
        return parse_instance(text)

    for module in ("antbatch.cli", "antbatch.bench"):
        monkeypatch.setattr(f"{module}.parse_instance", spy)
    fields = {"inst": inst_path, "cfg": _config_file(tmp_path, inst_path),
              "prefix": str(tmp_path / "conv")}
    assert main([arg.format(**fields) for arg in _PARSE_ONCE[command]]) == 0
    assert len(parsed) == 1


@pytest.mark.parametrize("command", ["solve", "shift-study", "convergence"])
def test_zero_iterations_is_named_as_max_iters(command, inst_path, tmp_path, capsys,
                                               monkeypatch):
    # the default gamma schedule's period follows --iters, and it used to be
    # checked first: "period must be positive, got 0", a field never set
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    rc = main([command, inst_path, "--ants", "4", "--iters", "0"])
    assert rc == 2
    assert capsys.readouterr() == ("", "antbatch: error: max_iters must be positive, got 0\n")
    assert list(work.iterdir()) == []


def test_iters_and_time_limit_are_mutually_exclusive(inst_path, capsys):
    rc = main(["solve", inst_path, "--iters", "5", "--time-limit", "1"])
    assert rc == 2


def test_unknown_subcommand_fails():
    assert main(["traveling"]) == 2


def test_scaling_subcommand(inst_path, tmp_path):
    out = str(tmp_path / "scaling.csv")
    rc = main(["scaling", "--instances", inst_path, "--ants", "4,6",
               "--mode", "batched", "--iterations", "1", "--reps", "1",
               "--out", out])
    assert rc == 0
    lines = read(out).splitlines()
    assert lines[0].startswith("instance,n,m,mode")
    assert len(lines) == 3
    assert all(",batched," in ln for ln in lines[1:])


def test_shift_study_subcommand(inst_path, tmp_path):
    out = str(tmp_path / "shift.csv")
    rc = main(["shift-study", inst_path, "--ants", "4", "--iters", "3",
               "--trials", "500", "--out", out])
    assert rc == 0
    lines = read(out).splitlines()
    assert lines[0] == "iteration,gamma,p_max,p_hat_max_prime"
    assert len(lines) == 4


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_shift_study_trials_below_one_is_one_line_error(inst_path, trials, capsys):
    rc = main(["shift-study", inst_path, "--ants", "4", "--iters", "2",
               "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"antbatch: error: trials must be >= 1, got {trials}\n"
    assert captured.out == ""


@pytest.mark.parametrize("counts, message", [
    (["--iterations", "0", "--reps", "1"], "iterations must be >= 1, got 0"),
    (["--iterations", "1", "--reps", "0"], "repetitions must be >= 1, got 0"),
    # a later --ants replaces the first; it used to exit with int()'s
    # "invalid literal for int() with base 10: 'x'", naming no flag
    (["--ants", "4,x"], "--ants: 'x' is not an integer"),
], ids=["counts0-iterations", "counts1-repetitions", "counts2-ants"])
def test_scaling_empty_sample_is_one_line_error(inst_path, counts, message, capsys):
    rc = main(["scaling", "--instances", inst_path, "--ants", "4", *counts])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"antbatch: error: {message}\n"
    assert captured.out == ""


def test_scaling_seed_overflow_across_repetitions_fails_before_any_run(
        inst_path, tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    rc = main(["scaling", "--instances", inst_path, "--ants", "4", "--mode", "batched",
               "--seed", str(2**64 - 1), "--reps", "2", "--iterations", "1",
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (f"antbatch: error: seed {2**64 - 1} with 2 repetitions runs "
                            "past the largest seed, 2**64 - 1\n")
    assert captured.out == ""
    assert not out.exists()


def test_convergence_subcommand(inst_path, tmp_path, capsys):
    prefix = str(tmp_path / "abl")
    rc = main(["convergence", inst_path, "--ants", "6", "--elite", "1",
               "--iters", "3", "--reps", "2", "--out-prefix", prefix])
    assert rc == 0
    for mech in ("rw", "ir", "adair"):
        assert os.path.exists(f"{prefix}_{mech}.csv")
        assert os.path.exists(f"{prefix}_{mech}.json")
    out = capsys.readouterr().out
    assert "mechanism,median_convergence_generation" in out


def test_convergence_table_equals_json_aggregates(tmp_path, capsys):
    # with an even number of runs the median is the mean of the middle two,
    # which the printed table must show as the summary JSON does
    prefix = str(tmp_path / "conv")
    rc = main(["convergence", os.path.join(PKG_DATA, "rnd120.tsp"), "--ants", "10",
               "--iters", "5", "--reps", "2", "--out-prefix", prefix])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mechanism,median_convergence_generation,median_final_best_cost"
    assert len(lines) == 4
    for line in lines[1:]:
        mech, conv, final = line.split(",")
        agg = json.loads(read(f"{prefix}_{mech}.json"))["aggregate"]
        assert conv == repr(agg["median_convergence_generation"])
        assert final == repr(agg["median_final_best_cost"])
