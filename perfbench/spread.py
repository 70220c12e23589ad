#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solve-120 --seeds 1-10

Run from the repository root. Each seed is one run of perfbench/run.py with
the ``run_seconds`` of BENCHMARK.json, one after another. For every metric
it prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
the quartile distance as a share of the median, and that share against
the metric's bound. It also prints the failed share of operations and each
run's wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    here = Path(__file__).resolve().parent
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(here / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        runs.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']} ({share:.4f})", flush=True)
        for failure in record["failures"]:
            print(f"  failure: {failure}")

    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        flag = "  over a third of the bound" if spread > bound / 3 else ""
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
