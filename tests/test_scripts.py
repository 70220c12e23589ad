import importlib.util
import json
import os
import subprocess

import pytest

from conftest import HERE, PKG_DATA

MAKE_INSTANCE = os.path.join(HERE, os.pardir, "scripts", "make_instance.py")


@pytest.fixture(scope="module")
def make_instance():
    spec = importlib.util.spec_from_file_location("make_instance", MAKE_INSTANCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("args, bundled", [
    (["120", "--seed", "7"], "rnd120.tsp"),
    (["442", "--seed", "11", "--kind", "uniform"], "rnd442.tsp"),
])
def test_make_instance_regenerates_the_bundled_files(make_instance, tmp_path, args, bundled):
    out = tmp_path / bundled
    assert make_instance.main([*args, "--out", str(out)]) == 0
    with open(os.path.join(PKG_DATA, bundled), "rb") as f:
        assert out.read_bytes() == f.read()


BENCH_RECORD = os.path.join(HERE, os.pardir, "scripts", "bench_record.py")


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", BENCH_RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 40}))
    calls = []

    def run(cmd, cwd, **kwargs):
        # canned perfbench/run.py output: metric lines, the record, the result
        args = dict(zip(cmd[2::2], cmd[3::2]))
        seed, trace = int(args["--seed"]), int(args["--trace"])
        calls.append((str(cwd), seed, args["--seconds"], trace))
        if trace:
            metrics = {"ir.rng.deviates_ms": {"value": 20.0 + seed, "unit": "ms"}}
        else:
            metrics = {"setup_s": {"value": 0.01 * seed, "unit": "s"},
                       "ir.iter_ms": {"value": [0, 60.0, 64.0, 62.0][seed], "unit": "ms"}}
        record = {"workload": args["--workload"], "seed": seed, "seconds": 40.0,
                  "trace": trace, "python": "3.11.7", "numpy": "2.4.6", "cpu_count": 2,
                  "git_sha": "abc123", "attempted": 10, "failed": int(seed == 2),
                  "missing": ["colony.gone"] if trace else []}
        result = {"correct": seed != 3, "attempted": 10, "failed": int(seed == 2),
                  "metrics": metrics}
        stdout = "".join(f"{name} {m['value']} {m['unit']}\n" for name, m in metrics.items())
        stdout += json.dumps({"record": record}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(module.subprocess, "run", run)
    return module, calls


def test_bench_record_appends_one_entry_per_call(bench_record, tmp_path):
    module, calls = bench_record
    out = tmp_path / "BENCH_solve-120.json"
    out.write_text(json.dumps([{"sha": "older", "kept": [1, 2]}]))
    assert module.main(["--workload", "solve-120", "--seeds", "1-3",
                        "--root", str(tmp_path)]) == 0
    # one untraced run per seed, then one traced run at the first seed
    assert calls == [(str(tmp_path), 1, "40", 0), (str(tmp_path), 2, "40", 0),
                     (str(tmp_path), 3, "40", 0), (str(tmp_path), 1, "40", 1)]
    older, entry = json.loads(out.read_text())
    assert older == {"sha": "older", "kept": [1, 2]}
    assert entry.pop("date")
    assert entry == {
        "sha": "abc123", "python": "3.11.7", "numpy": "2.4.6", "cpu_count": 2,
        "seeds": [1, 2, 3], "seconds": 40.0,
        "metrics": {
            "setup_s": {"unit": "s", "median": 0.02, "q1": 0.01, "q3": 0.03,
                        "values": [0.01, 0.02, 0.03]},
            "ir.iter_ms": {"unit": "ms", "median": 62.0, "q1": 60.0, "q3": 64.0,
                           "values": [60.0, 64.0, 62.0]},
        },
        "attempted": 40, "failed": 1, "failed_share": 0.025,
        "correct": False, "missing": ["colony.gone"],
        "traced": {"seed": 1, "metrics": {"ir.rng.deviates_ms": 21.0}},
    }
    module.main(["--workload", "solve-120", "--seeds", "2", "--root", str(tmp_path)])
    entries = json.loads(out.read_text())
    assert entries[:2] == [older, {**entry, "date": entries[1]["date"]}]
    assert entries[2]["seeds"] == [2]
    assert entries[2]["metrics"]["setup_s"] == {"unit": "s", "median": 0.02, "q1": 0.02,
                                                "q3": 0.02, "values": [0.02]}


def test_bench_record_stops_on_a_failed_run(bench_record, tmp_path, monkeypatch):
    module, _ = bench_record
    monkeypatch.setattr(module.subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 2, "", "error: no src/antbatch\n"))
    with pytest.raises(RuntimeError, match="seed 1, trace 0: exit 2"):
        module.main(["--workload", "solve-120", "--seeds", "1", "--root", str(tmp_path)])
    assert not (tmp_path / "BENCH_solve-120.json").exists()
