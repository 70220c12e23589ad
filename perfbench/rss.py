#!/usr/bin/env python3
"""Peak resident memory of the program alone.

    python3 perfbench/rss.py INSTANCE.tsp RUNS_JSON

Run from the repository root; run.py starts it as a child process. It
imports the program from ``src/``, calls ``load_instance`` on INSTANCE.tsp
and ``run_experiment`` once for each run in RUNS_JSON (a JSON list of
``AcoParams`` keyword dicts; a ``gamma_period`` key becomes a
``GammaSchedule``), and allocates nothing of the benchmark's own. It
prints one JSON line: ``peak_rss_mb`` and each run's ``final_best_cost``.

The peak is ``VmHWM`` of /proc/self/status, the high-water mark of this
process's own address space. ``ru_maxrss`` would not do: Linux carries the
parent's high-water mark over ``exec`` into it, so a child started from
the benchmark would report the benchmark's peak whenever it is larger.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    path, runs = argv[0], json.loads(argv[1])
    sys.path.insert(0, str(Path.cwd() / "src"))
    from antbatch import bench, model

    inst = None
    finals = []
    for kw in runs:
        period = kw.pop("gamma_period", None)
        if period is not None:
            kw["gamma_schedule"] = model.GammaSchedule(period=period)
        config = bench.ExperimentConfig(params=model.AcoParams(**kw), instance_path=path)
        if inst is None:
            inst = bench.load_instance(config)
        _, summaries = bench.run_experiment(config, inst=inst)
        finals.append(summaries[0].final_best_cost)
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "final_best": finals}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
