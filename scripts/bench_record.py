#!/usr/bin/env python3
"""Append one entry to the benchmark trajectory, BENCH_<workload>.json.

    python3 scripts/bench_record.py --workload few-ants-1000 --seeds 1-3 [--root DIR]

Runs perfbench/run.py from DIR (default: this repository) once per seed
untraced and once traced at the first seed, each for the ``run_seconds`` of
DIR's BENCHMARK.json, and appends one entry to BENCH_<workload>.json at the
root of this repository. The entry holds:

- the sha from the runs' record, the date recorded, and the runs' Python,
  numpy and cpu_count;
- each end-to-end metric's values over the seeds, with their median and
  quartiles as perfbench/spread.py computes them;
- the failed share of operations over all runs, whether every run was
  correct and the wrapped names any run found missing;
- the traced run's per-layer values.

Existing entries are never rewritten, and no bound is set here: the bounds
live in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    """``1-3`` or ``1,4,6-8`` as a list of seeds."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One run of ``root``'s perfbench/run.py: its record and its result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"seed {seed}, trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles, as perfbench/spread.py computes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def make_entry(untraced: list[tuple[dict, dict]], traced: tuple[dict, dict]) -> dict:
    """The trajectory entry of the untraced runs, one per seed, and the
    traced run."""
    runs = [*untraced, traced]
    first = untraced[0][0]
    names = untraced[0][1]["metrics"]
    attempted = sum(result["attempted"] for _, result in runs)
    failed = sum(result["failed"] for _, result in runs)
    return {
        "sha": first["git_sha"],
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": first["python"], "numpy": first["numpy"], "cpu_count": first["cpu_count"],
        "seeds": [record["seed"] for record, _ in untraced],
        "seconds": first["seconds"],
        "metrics": {name: {"unit": metric["unit"],
                           **spread([result["metrics"][name]["value"]
                                     for _, result in untraced])}
                    for name, metric in names.items()},
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "correct": all(result["correct"] for _, result in runs),
        "missing": sorted({name for record, _ in runs for name in record["missing"]}),
        "traced": {"seed": traced[0]["seed"],
                   "metrics": {name: metric["value"]
                               for name, metric in traced[1]["metrics"].items()}},
    }


def append(path: Path, entry: dict) -> None:
    """Add ``entry`` after the entries ``path`` holds, leaving them as they are."""
    entries = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(entries, list):
        raise ValueError(f"{path} does not hold a list of entries")
    path.write_text(json.dumps([*entries, entry], indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-3")
    ap.add_argument("--root", type=Path, default=REPO,
                    help="checkout whose perfbench/run.py runs (default: this repository)")
    args = ap.parse_args(argv)

    seconds = json.loads((args.root / "BENCHMARK.json").read_text())["run_seconds"]
    chosen = seeds(args.seeds)
    untraced = [run_once(args.root, args.workload, seed, seconds, 0) for seed in chosen]
    traced = run_once(args.root, args.workload, chosen[0], seconds, 1)
    entry = make_entry(untraced, traced)
    path = REPO / f"BENCH_{args.workload}.json"
    append(path, entry)
    print(f"appended {entry['sha']} to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
