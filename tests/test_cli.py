import json
import os
import subprocess
import sys

import pytest

from antbatch.bench import (
    SyntheticSpec,
    config_to_dict,
    ExperimentConfig,
    make_synthetic_instance,
)
from antbatch.cli import main
from antbatch.model import AcoParams, Selection
from antbatch.tsplib import serialize_instance

from conftest import PKG_DATA


@pytest.fixture
def inst_path(tmp_path):
    path = str(tmp_path / "t12.tsp")
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_instance(make_synthetic_instance(SyntheticSpec(n=12, seed=4))))
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


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
def test_high_beta_underflow_is_one_line_error(optimize):
    # beta = 120 underflows tau^alpha * eta^beta to zero for every unvisited
    # city of some ant; the check that catches it must survive python -O
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "antbatch.cli", "solve",
         os.path.join(src, "antbatch", "data", "rnd120.tsp"),
         "--beta", "120", "--iters", "2", "--ants", "8"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("antbatch: error: ant ")
    assert "already-visited city" in lines[0] and "step" in lines[0]


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
