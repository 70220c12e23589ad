#!/usr/bin/env python3
"""antbatch benchmark: colony runs through the public library calls, with
every output checked against the benchmark's own computations.

    python3 perfbench/run.py --workload few-ants-1000 --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ``src/``. The
instance is generated from ``--seed`` and written as TSPLIB text under
``.bench_out/``. Rounds of colony runs (rw, ir, adair in turn) repeat for
about ``--seconds``. With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics; with ``--trace 1`` every run is made
twice, untraced and traced, and the object carries the per-layer metrics.
The line before it is a JSON record of the run's conditions and counts.
See README.md in this directory.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import (CheckFailed, RunChecker, check_distances, check_not_longer,  # noqa: E402
                    check_oracle)
from geometry import Reference, coordinates, tsplib_text  # noqa: E402
from probe import Capture, Patches, Tracer  # noqa: E402

MECHANISMS = ("rw", "ir", "adair")


@dataclass(frozen=True)
class Workload:
    n: int
    kind: str
    m: int
    k: int
    iters: int            # iterations per colony run; iteration 0 is the warm-up
    solve: bool = False   # converged solve: gamma period = iters, quality checked


WORKLOADS = {
    "few-ants-1000": Workload(n=1000, kind="uniform", m=10, k=1, iters=6),
    "solve-120": Workload(n=120, kind="clustered", m=120, k=12, iters=300, solve=True),
}

# The known high-beta fault: tau**alpha * eta**beta underflows entry by
# entry and an ant is left with no selectable city. Fixed inputs, so these
# runs fail the same way whatever the seed; they are counted, never timed.
HIGH_BETA_CITIES = (120, "clustered", 7)
HIGH_BETA_PARAMS = dict(m=8, k=1, beta=120.0, max_iters=2)
HIGH_BETA_SEED = 0

# load_instance is timed at least SETUP_MIN_LOADS times over at least
# SETUP_MIN_SECONDS before the rounds, then again between rounds whenever
# SETUP_INTERVAL seconds have passed, so its median spans the whole run.
SETUP_MIN_LOADS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_INTERVAL = 5.0
ORACLE_ANTS, ORACLE_ELITE = 3, 2
# Peak memory is read in a child process (rss.py) that makes the first
# round's three colony runs with their seeds, cut to RSS_ITERS iterations:
# the program's arrays are the same in every iteration.
RSS_ITERS = 6
RSS_TIMEOUT_S = 120
# Bytes a selection kernel moves per entry of its (m, n) block, counted
# from the arrays each numpy call reads and writes (README, "Computed bytes").
ARGMAX_BYTES_PER_ENTRY = 57
WHEEL_BYTES_PER_ENTRY = 82

# End-to-end timings are reported at reference speed (README, "Reference
# speed"): a wall time times CAL_REF_S over the calibration kernel's time
# measured just before and just after it. CAL_REF_S is the kernel's time on
# an uncontended core of the shared 2-vCPU Intel Xeon (2.1 GHz) virtual
# machine the benchmark was built on.
CAL_REF_S = 0.00035


def calibration_seconds() -> float:
    """Best of three runs of a fixed mix of the program's kinds of work: a
    keyed Philox Exp(1) block, an elementwise pass with a row argmax, and a
    scalar Python loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        e = np.random.Generator(np.random.Philox(7)).standard_exponential((32, 1000))
        (e[::-1] - e).argmax(axis=1)
        acc = 0.0
        for i in range(500):
            acc += math.sqrt(i * i + 0.5)
        best = min(best, time.perf_counter() - t0)
    return best


# Loads are scalar Python work, which the calibration kernel above tracks
# less closely across the machine's regimes; they are scaled by a kernel of
# their own, shaped like the program's distance loop. CAL_LOAD_REF_S is its
# uncontended time on the same machine (the fastest of 3000 runs).
CAL_LOAD_REF_S = 0.00015
CAL_LOAD_POINTS = [(float(i), float(i * 7 % 13)) for i in range(40)]


def load_calibration_seconds() -> float:
    """Best of three runs of EUC_2D distances of 40 points in a Python
    double loop."""
    best = math.inf
    pts = CAL_LOAD_POINTS
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i, (xi, yi) in enumerate(pts):
            for xj, yj in pts[i + 1:]:
                dx, dy = xi - xj, yi - yj
                acc += int(math.sqrt(dx * dx + dy * dy) + 0.5)
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, before: float, after: float,
                       ref: float = CAL_REF_S) -> float:
    return seconds * ref / (0.5 * (before + after))


# Layer metric -> the traced labels whose self time it sums.
LAYER_TIMES = {
    "rng.deviates_ms": ("rng.step_exponentials", "rng.step_uniforms"),
    "selection.kernel_ms": ("selection.argmax_select_block", "selection.rw_spin_block"),
    "selection.log_weights_ms": ("selection.scaled_log_weights",),
    "colony.construct_self_ms": ("colony.construct_tours",),
    "colony.refresh_ms": ("colony.compute_probability_matrix",),
    "pheromone.elite_ms": ("pheromone.select_elite",),
    "pheromone.deposit_ms": ("pheromone.accumulate_increments",),
    "pheromone.evaporate_ms": ("pheromone.apply_update",),
    "model.costs_ms": ("model.batch_costs",),
}


def colony_seed(seed: int, round_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1, np.uint64)[0])


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
        return "unknown"
    except OSError:
        return "unknown (not a git checkout)"


def iteration_windows(readings: list[float], wall_ms: list[float]) -> list[tuple[float, float]]:
    """The (start, end) clock readings behind each recorded iteration time.

    The program records (t1 - t0) * 1e3 for each iteration; the pair of
    consecutive readings that gives exactly that value is the iteration.
    """
    windows = []
    j = 0
    for ms in wall_ms:
        while j + 1 < len(readings) and (readings[j + 1] - readings[j]) * 1e3 != ms:
            j += 1
        if j + 1 >= len(readings):
            raise CheckFailed("timing: a recorded iteration time matches no pair of clock readings")
        windows.append((readings[j], readings[j + 1]))
        j += 1
    return windows


def reference_times(windows, wall_ms, calibrations) -> list[float]:
    """Each iteration's time at reference speed, from the calibrations run
    last before it started and first after it ended."""
    times = [t for t, _ in calibrations]
    out = []
    for (w0, w1), ms in zip(windows, wall_ms):
        i = bisect_right(times, w0) - 1
        j = bisect_left(times, w1)
        if i < 0 or j >= len(times):
            raise CheckFailed("timing: no calibration before and after an iteration")
        out.append(at_reference_speed(ms, calibrations[i][1], calibrations[j][1]))
    return out


def layer_sums(spans, windows) -> Counter:
    """Totals over the timed iterations (warm-up skipped) of one traced run:
    self seconds per label, deviate and entry counts, and the harness self
    time, which is each iteration minus the wrapped calls made directly in it."""
    timed = windows[1:]
    starts = [w0 for w0, _ in timed]
    top = [0.0] * len(timed)
    out = Counter()
    for s in spans:
        i = bisect_right(starts, s.start) - 1
        if i < 0 or s.end > timed[i][1]:
            continue
        out[s.label] += s.self_time
        if s.depth == 0:
            top[i] += s.end - s.start
        if s.label == "rng.step_exponentials":
            out["drawn"] += s.deviates
            out["blocks"] += 1
        else:
            out["read"] += s.deviates
        if s.label == "selection.argmax_select_block":
            out["bytes"] += ARGMAX_BYTES_PER_ENTRY * s.entries
        elif s.label == "selection.rw_spin_block":
            out["bytes"] += WHEEL_BYTES_PER_ENTRY * s.entries
    out["harness"] += sum((w1 - w0) - t for (w0, w1), t in zip(timed, top))
    out["iterations"] += len(timed)
    return out


@dataclass
class RunResult:
    mech: str
    timed_ms: list[float]     # iteration wall times, warm-up excluded
    ref_ms: list[float]       # the same at reference speed
    final_best: float
    best_so_far: list[float]  # as the run's records report it
    digests: list[str]
    layers: Counter | None    # layer_sums of a traced run


class Bench:
    def __init__(self, args, root: Path):
        from antbatch import bench, model  # the program under test

        self.bench = bench
        self.model = model
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.high_beta: list[str] = []
        self.missing: set[str] = set()
        self.patches = Patches("antbatch")
        self.capture = Capture(calibration_seconds)
        self.loads: list[float] = []
        self.loads_ref: list[float] = []
        self.parse: list[float] = []
        self.build: list[float] = []
        self.out_dir = root / ".bench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.files: list[Path] = []

    # -- instances and set-up ---------------------------------------------

    def write_instance(self, name: str, n: int, kind: str, seed: int) -> tuple[Path, Reference]:
        pts = coordinates(n, kind, seed)
        path = self.out_dir / f"{name}-{os.getpid()}.tsp"
        path.write_text(tsplib_text(name, pts, f"{kind} layout, seed {seed}"))
        self.files.append(path)
        return path, Reference.from_coordinates(pts)

    def config(self, path: Path, **params):
        return self.bench.ExperimentConfig(params=self.model.AcoParams(**params),
                                           instance_path=str(path))

    def load(self):
        """One timed load_instance; traced in trace mode."""
        config = self.config(self.path, m=self.wl.m, k=self.wl.k)
        tracer = Tracer("antbatch") if self.args.trace else None
        before = load_calibration_seconds()
        t0 = time.perf_counter()
        if tracer:
            with tracer:
                inst = self.bench.load_instance(config)
        else:
            inst = self.bench.load_instance(config)
        seconds = time.perf_counter() - t0
        self.loads.append(seconds)
        self.loads_ref.append(at_reference_speed(seconds, before, load_calibration_seconds(),
                                                 CAL_LOAD_REF_S))
        self.last_load = time.perf_counter()
        if tracer:
            self.missing.update(tracer.patches.missing)
            for s in tracer.spans:
                if s.label == "tsplib.parse_instance":
                    self.parse.append(s.end - s.start)
                elif s.label == "model.build_instance":
                    self.build.append(s.self_time)
        return inst

    def setup(self) -> None:
        wl = self.wl
        self.path, self.ref = self.write_instance(
            f"{self.args.workload}-s{self.args.seed}", wl.n, wl.kind, self.args.seed)
        while len(self.loads) < SETUP_MIN_LOADS or sum(self.loads) < SETUP_MIN_SECONDS:
            self.inst = self.load()
        try:
            check_distances(self.inst.dist, self.ref.dist)
        except CheckFailed as exc:
            self.correct = False
            self.failures.append(str(exc))

    # -- colony runs -------------------------------------------------------

    def colony_run(self, mech: str, seed: int, traced: bool, *, checker=None, path=None,
                   inst=None, ref=None, **overrides) -> RunResult:
        """One run_experiment call, every layer's output checked."""
        wl = self.wl
        params = dict(m=wl.m, k=wl.k, selection=mech, max_iters=wl.iters, seed=seed)
        if wl.solve:
            params["gamma_schedule"] = self.model.GammaSchedule(period=wl.iters)
        params.update(overrides)
        config = self.config(path or self.path, **params)
        if checker is None:
            checker = RunChecker(ref or self.ref, config.params, self.model.TAU_MIN)
        self.capture.start(checker.feed)
        tracer = Tracer("antbatch") if traced else None
        t0 = time.perf_counter()
        if tracer:
            with tracer:
                records, summaries = self.bench.run_experiment(
                    config, inst=inst or self.inst, clock=self.capture.clock)
            self.missing.update(tracer.patches.missing)
        else:
            records, summaries = self.bench.run_experiment(
                config, inst=inst or self.inst, clock=self.capture.clock)
        wall = time.perf_counter() - t0
        self.capture.deliver()
        checker.finish(records, summaries[0].final_best_cost)
        wall_ms = [r.wall_clock_ms for r in records]
        windows = iteration_windows(self.capture.readings, wall_ms)
        for d0, d1 in self.capture.deliveries:
            if any(d0 < w1 and d1 > w0 for w0, w1 in windows):
                raise CheckFailed("timing: the checks ran inside a timed iteration")
        if sum(wall_ms) > wall * 1e3:
            raise CheckFailed("timing: recorded iteration times exceed the run's wall time")
        ref_ms = reference_times(windows, wall_ms, self.capture.calibrations)
        return RunResult(mech, wall_ms[1:], ref_ms[1:], summaries[0].final_best_cost,
                         [r.best_cost_so_far for r in records], checker.digests,
                         layer_sums(tracer.spans, windows) if tracer else None)

    def solve_op(self, mech: str, seed: int):
        """One colony run; in trace mode made twice, untraced then traced,
        and the two must build the same tours."""
        res = self.colony_run(mech, seed, False)
        if not self.args.trace:
            return res, None
        tr = self.colony_run(mech, seed, True)
        if tr.digests != res.digests:
            raise CheckFailed("tours differ with tracing on and off")
        return res, tr

    def high_beta_runs(self) -> list[str]:
        """The three known-failing runs; each counts as failed unless it
        returns tours that pass every check."""
        if not hasattr(self, "hb_inst"):
            n, kind, seed = HIGH_BETA_CITIES
            self.hb_path, self.hb_ref = self.write_instance("high-beta", n, kind, seed)
            self.hb_inst = self.bench.load_instance(self.config(self.hb_path, m=8, k=1))
        outcomes = []
        for mech in MECHANISMS:
            self.attempted += 1
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    self.colony_run(mech, HIGH_BETA_SEED, False, path=self.hb_path,
                                    inst=self.hb_inst, ref=self.hb_ref, **HIGH_BETA_PARAMS)
                outcomes.append(f"{mech}: ok")
            except Exception as exc:  # counted: these runs are expected to fail
                self.failed += 1
                outcomes.append(f"{mech}: {type(exc).__name__}: {exc}")
        return outcomes

    def rounds(self):
        """Whole rounds for about --seconds. A round is one operation per
        mechanism, then, on the solve workload, the three high-beta runs.
        Another round starts only if it should end within half a round of
        --seconds."""
        untraced = defaultdict(list)
        traced = defaultdict(list)
        self.first_round: list[RunResult] = []
        start = time.perf_counter()
        r = 0
        while True:
            seed = colony_seed(self.args.seed, r)
            for mech in MECHANISMS:
                self.attempted += 1
                try:
                    res, tr = self.solve_op(mech, seed)
                except Exception as exc:  # the benchmark must finish and report
                    self.failed += 1
                    self.correct = False
                    self.failures.append(f"{mech}: {type(exc).__name__}: {exc}")
                    continue
                untraced[mech].append(res)
                if tr is not None:
                    traced[mech].append(tr)
                if r == 0:
                    self.first_round.append(res)
            if self.wl.solve:
                self.high_beta = self.high_beta_runs()
            r += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / r >= self.args.seconds:
                break
            if time.perf_counter() - self.last_load >= SETUP_INTERVAL:
                self.load()
        self.n_rounds = r
        self.measured_s = time.perf_counter() - start
        return untraced, traced

    def oracle_check(self) -> None:
        """One iteration of a small colony through run_experiment against
        oracle.sequential_aco_step, for each mechanism."""
        from antbatch import oracle

        seed = colony_seed(self.args.seed, 0)
        for mech in MECHANISMS:
            try:
                params = self.model.AcoParams(m=ORACLE_ANTS, k=ORACLE_ELITE, selection=mech,
                                              max_iters=1, seed=seed)
                checker = RunChecker(self.ref, params, self.model.TAU_MIN)
                self.colony_run(mech, seed, False, checker=checker, m=ORACLE_ANTS,
                                k=ORACLE_ELITE, max_iters=1)
                tau0 = self.model.PheromoneState.initial(self.inst.n, params.q0_tau)
                o_batch, o_tau = oracle.sequential_aco_step(tau0, self.inst, params, 0)
                check_oracle(checker.batch, checker.tau_state, o_batch, o_tau)
            except Exception as exc:  # reported as incorrect, never raised
                self.correct = False
                self.failures.append(f"oracle {mech}: {type(exc).__name__}: {exc}")

    def quality(self) -> float:
        """Mean over the first round's runs of final best / best nearest-
        neighbour tour. On the solve workload each final best must be no
        longer than the mean nearest-neighbour tour: against the best one,
        correct runs come within 2-4% on some seeds (README, "Checks")."""
        ratios = {res.mech: res.final_best / self.ref.nn_length for res in self.first_round}
        self.ratios = ratios
        if self.wl.solve:
            for res in self.first_round:
                try:
                    check_not_longer(res.final_best, self.ref.nn_mean_length, res.mech)
                except CheckFailed as exc:
                    self.correct = False
                    self.failures.append(str(exc))
        return float(np.mean(list(ratios.values()))) if ratios else float("nan")

    def program_peak_rss(self) -> float:
        """Peak RSS in MB of a child that loads the instance and makes the
        first round's runs, cut to RSS_ITERS iterations; their bests must
        match the first round's at that iteration."""
        seed = colony_seed(self.args.seed, 0)
        iters = min(self.wl.iters, RSS_ITERS)
        runs = []
        for res in self.first_round:
            kw = dict(m=self.wl.m, k=self.wl.k, selection=res.mech, max_iters=iters, seed=seed)
            if self.wl.solve:
                kw["gamma_period"] = self.wl.iters
            runs.append(kw)
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "rss.py"),
               str(self.path), json.dumps(runs)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RSS_TIMEOUT_S,
                                  check=True)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            self.correct = False
            self.failures.append(f"peak rss: {type(exc).__name__}: {exc}")
            return float("nan")
        want = [res.best_so_far[iters - 1] for res in self.first_round]
        if out["final_best"] != want:
            self.correct = False
            self.failures.append(f"peak rss: the child's bests {out['final_best']} differ "
                                 f"from the first round's {want}")
        return float(out["peak_rss_mb"])

    def cleanup(self) -> None:
        self.patches.restore()
        for path in self.files:
            path.unlink(missing_ok=True)


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def summary(values) -> dict:
    v = sorted(values)
    if len(v) < 2:
        return {"n": len(v), "values": v}
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return {"n": len(v), "min": v[0], "q1": q1, "median": q2, "q3": q3, "max": v[-1],
            "mean": statistics.fmean(v)}


def mean_ms(results, field: str) -> float:
    values = [ms for res in results for ms in getattr(res, field)]
    return statistics.fmean(values) if values else float("nan")


def end_to_end(b: Bench, untraced) -> tuple[dict, dict]:
    """Timings at reference speed; the raw wall times go to the record."""
    metrics = {"setup_s": (median(b.loads_ref), "s")}
    counts = {"setup_s": summary(b.loads_ref), "setup_s.wall": summary(b.loads)}
    tours = 0
    total_ms = 0.0
    for mech in MECHANISMS:
        ref = [ms for res in untraced[mech] for ms in res.ref_ms]
        metrics[f"{mech}.iter_ms"] = (median(ref), "ms")
        counts[f"{mech}.iter_ms"] = summary(ref)
        counts[f"{mech}.iter_ms.wall"] = summary([ms for res in untraced[mech] for ms in res.timed_ms])
        tours += b.wl.m * len(ref)
        total_ms += sum(ref)
    metrics["tours_per_s"] = (tours / (total_ms / 1e3) if total_ms else float("nan"), "tours/s")
    metrics["best_len_ratio"] = (b.quality(), "ratio")
    metrics["peak_rss_mb"] = (b.program_peak_rss(), "MB")
    return metrics, counts


def per_layer(b: Bench, untraced, traced) -> tuple[dict, dict]:
    metrics = {"tsplib.parse_ms": (median(b.parse) * 1e3, "ms"),
               "model.build_instance_ms": (median(b.build) * 1e3, "ms")}
    counts = {"tsplib.parse_ms": len(b.parse), "model.build_instance_ms": len(b.build)}
    for mech in MECHANISMS:
        total = Counter()
        for res in traced[mech]:
            total.update(res.layers)
        per = max(total["iterations"], 1)
        out = {name: sum(total[lb] for lb in labels) * 1e3 / per
               for name, labels in LAYER_TIMES.items()}
        out["bench.harness_self_ms"] = total["harness"] * 1e3 / per
        mean_traced = mean_ms(traced[mech], "timed_ms")
        mean_untraced = mean_ms(untraced[mech], "timed_ms")
        overhead_ref = mean_ms(traced[mech], "ref_ms") - mean_ms(untraced[mech], "ref_ms")
        counts[mech] = {
            "traced_iterations": total["iterations"],
            "untraced_iterations": sum(len(res.timed_ms) for res in untraced[mech]),
            "traced_iter_ms": mean_traced,
            "layer_self_sum_ms": sum(out.values()),
            "harness_share": out["bench.harness_self_ms"] / mean_traced,
            "overhead_wall_ms": mean_traced - mean_untraced,
        }
        for name, value in out.items():
            metrics[f"{mech}.{name}"] = (value, "ms")
        drawn = total["drawn"]
        metrics[f"{mech}.rng.deviates_drawn"] = (drawn / per, "count")
        metrics[f"{mech}.rng.block_calls"] = (total["blocks"] / per, "count")
        metrics[f"{mech}.rng.useful_deviate_ratio"] = (total["read"] / drawn if drawn else 0.0, "ratio")
        metrics[f"{mech}.selection.kernel_bytes"] = (total["bytes"] / per, "bytes")
        metrics[f"{mech}.trace.overhead_ms"] = (overhead_ref, "ms")
    return metrics, counts


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "antbatch" / "__init__.py").is_file():
        print(f"error: no src/antbatch under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    b = Bench(args, root)
    try:
        b.setup()
        b.capture.install(b.patches)
        untraced, traced = b.rounds()
        if args.trace:
            metrics, counts = per_layer(b, untraced, traced)
        else:
            metrics, counts = end_to_end(b, untraced)
        b.oracle_check()
    finally:
        b.cleanup()
    b.missing.update(b.patches.missing)
    if b.missing:
        print("warning: wrapped names that no longer exist: " + ", ".join(sorted(b.missing)),
              file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "git_sha": git_sha(root),
        "attempted": b.attempted, "failed": b.failed, "rounds": b.n_rounds,
        "measured_s": round(b.measured_s, 3), "samples": counts,
        "high_beta": b.high_beta, "failures": b.failures, "missing": sorted(b.missing),
    }
    if not args.trace:
        record["best_len_ratio_by_mechanism"] = b.ratios
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": b.correct, "attempted": b.attempted, "failed": b.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
