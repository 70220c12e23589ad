"""Experiment harness: convergence runs, runtime scaling over colony size,
selection-mechanism ablations, and the selection-probability shift study.

Output is CSV for per-iteration records (fixed column order, RFC-4180
quoting) plus one JSON summary per experiment (config echo and aggregate
stats). Timing uses an injectable clock so determinism tests can fix it;
aggregates exclude instance parsing and each run's first (warmup) iteration.
Run r of an experiment uses seed base+r, and every row records the seed and
evaporation rate for replay.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import rng
from .colony import compute_probability_matrix, iterate
from .colony import construct_tours  # noqa: F401  (perfbench/test_checks.py reaches it here)
from .model import (
    AcoParams,
    GammaSchedule,
    PheromoneState,
    Selection,
    TspInstance,
    build_instance,
)
from .oracle import sequential_aco_step
from .selection import argmax_select_block, gamma_at, scaled_log_weights
from .tsplib import RawTspFile, parse_instance

# Within 0.1% of a run's final best cost counts as converged; the first
# iteration inside that band is the run's convergence generation.
CONVERGENCE_BAND = 1e-3

SCALING_COLUMNS = [
    "instance", "n", "m", "mode", "selection", "repetitions", "iterations",
    "mean_ms_per_iter", "std_ms_per_iter", "speedup_vs_sequential", "status",
]

SHIFT_COLUMNS = ["iteration", "gamma", "p_max", "p_hat_max_prime"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic synthetic instance: n cities, layout kind, coord seed."""

    n: int
    seed: int = 0
    kind: str = "clustered"
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("clustered", "uniform"):
            raise ValueError(f"kind must be clustered or uniform, got {self.kind!r}")
        if not self.name:
            object.__setattr__(self, "name", f"rnd{self.n}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; mirrors the CLI's JSON config file.

    Exactly one of instance_path / synthetic names the instance. When
    time_limit_seconds is set it governs termination and max_iters acts as
    a cap; otherwise max_iters governs.
    """

    params: AcoParams
    instance_path: str | None = None
    synthetic: SyntheticSpec | None = None
    repetitions: int = 1
    time_limit_seconds: float | None = None
    output_path: str | None = None
    summary_path: str | None = None
    best_known: float | None = None
    lenient: bool = False

    def __post_init__(self):
        if (self.instance_path is None) == (self.synthetic is None):
            raise ValueError("exactly one of instance_path / synthetic is required")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.time_limit_seconds is not None and self.time_limit_seconds <= 0:
            raise ValueError("time_limit_seconds must be positive")


@dataclass(frozen=True)
class IterationRecord:
    run_id: int
    seed: int
    iteration: int
    wall_clock_ms: float
    iteration_best_cost: float
    best_cost_so_far: float
    solution_error_percent: float | None
    gamma: float | None
    rho: float


ITER_COLUMNS = [f.name for f in fields(IterationRecord)]


@dataclass(frozen=True)
class RunSummary:
    run_id: int
    seed: int
    iterations_run: int
    final_best_cost: float
    solution_error_percent: float | None
    convergence_generation: int
    mean_ms_per_iter: float
    terminated_by: str  # "max_iters" or "time_limit"


def make_synthetic_instance(spec: SyntheticSpec) -> RawTspFile:
    """Deterministic TSPLIB-format instance from a SyntheticSpec.

    Clustered layouts group cities around a handful of centers (structure
    for pheromone to exploit); uniform layouts scatter them. Coordinates are
    rounded to one decimal so files round-trip compactly; distances follow
    the normal EUC_2D convention.
    """
    g = np.random.default_rng(spec.seed)
    if spec.kind == "clustered":
        n_centers = max(2, spec.n // 25)
        centers = g.uniform(0.0, 2000.0, size=(n_centers, 2))
        which = g.integers(0, n_centers, size=spec.n)
        pts = centers[which] + g.normal(0.0, 60.0, size=(spec.n, 2))
    else:
        pts = g.uniform(0.0, 2000.0, size=(spec.n, 2))
    pts = np.round(pts, 1)
    coords = tuple((i + 1, float(x), float(y)) for i, (x, y) in enumerate(pts))
    return RawTspFile(
        name=spec.name,
        dimension=spec.n,
        edge_weight_type="EUC_2D",
        comment=f"synthetic {spec.kind} layout, coord seed {spec.seed}",
        node_coords=coords,
    )


def load_instance(config: ExperimentConfig) -> TspInstance:
    if config.instance_path is not None:
        with open(config.instance_path, "r", encoding="utf-8") as f:
            raw = parse_instance(f.read())
    else:
        raw = make_synthetic_instance(config.synthetic)
    return build_instance(raw, best_known=config.best_known, lenient=config.lenient)


def _convergence_generation(best_trace: list[float]) -> int:
    final = best_trace[-1]
    band = final * (1.0 + CONVERGENCE_BAND)
    for it, v in enumerate(best_trace):
        if v <= band:
            return it
    return len(best_trace) - 1


def run_experiment(config: ExperimentConfig, inst: TspInstance | None = None,
                   clock=time.perf_counter,
                   ) -> tuple[list[IterationRecord], list[RunSummary]]:
    """Execute the configured runs, one colony.iterate call per iteration.

    Run r uses seed base+r. Records are buffered per run and returned in run
    order. Hitting the time limit is normal termination, recorded in the
    run's summary. ``inst`` can be passed to skip re-parsing; parsing never
    counts toward any timing either way.
    """
    if inst is None:
        inst = load_instance(config)
    base = config.params
    records: list[IterationRecord] = []
    summaries: list[RunSummary] = []
    bk = inst.best_known

    for run_id in range(config.repetitions):
        params = replace(base, seed=base.seed + run_id)
        tau = PheromoneState.initial(inst.n, params.q0_tau)
        prob = compute_probability_matrix(tau, inst, params)
        best_so_far = float("inf")
        best_trace: list[float] = []
        iter_ms: list[float] = []
        terminated_by = "max_iters"
        run_start = clock()

        for it in range(params.max_iters):
            t0 = clock()
            batch, tau, prob = iterate(tau, prob, inst, params, it)
            t1 = clock()

            ms = (t1 - t0) * 1e3
            iter_ms.append(ms)
            iteration_best = float(batch.costs.min())
            best_so_far = min(best_so_far, iteration_best)
            best_trace.append(best_so_far)
            gamma = (gamma_at(it, params.gamma_schedule)
                     if params.selection is Selection.ADAIR else None)
            err = (100.0 * (best_so_far - bk) / bk) if bk else None
            records.append(IterationRecord(
                run_id=run_id, seed=params.seed, iteration=it,
                wall_clock_ms=ms, iteration_best_cost=iteration_best,
                best_cost_so_far=best_so_far, solution_error_percent=err,
                gamma=gamma, rho=params.rho,
            ))
            if (config.time_limit_seconds is not None
                    and clock() - run_start >= config.time_limit_seconds):
                terminated_by = "time_limit"
                break

        measured = iter_ms[1:] if len(iter_ms) > 1 else iter_ms
        summaries.append(RunSummary(
            run_id=run_id, seed=params.seed, iterations_run=len(iter_ms),
            final_best_cost=best_so_far,
            solution_error_percent=records[-1].solution_error_percent,
            convergence_generation=_convergence_generation(best_trace),
            mean_ms_per_iter=float(np.mean(measured)),
            terminated_by=terminated_by,
        ))

    return records, summaries


# ---------------------------------------------------------------------------
# Scaling study
# ---------------------------------------------------------------------------

def _time_batched_cell(inst: TspInstance, params: AcoParams, iterations: int,
                       clock) -> list[float]:
    tau = PheromoneState.initial(inst.n, params.q0_tau)
    prob = compute_probability_matrix(tau, inst, params)
    times = []
    for it in range(iterations):
        t0 = clock()
        _, tau, prob = iterate(tau, prob, inst, params, it)
        times.append((clock() - t0) * 1e3)
    return times


def _time_sequential_cell(inst: TspInstance, params: AcoParams, iterations: int,
                          clock) -> list[float]:
    tau = PheromoneState.initial(inst.n, params.q0_tau)
    times = []
    for it in range(iterations):
        t0 = clock()
        _, tau = sequential_aco_step(tau, inst, params, it)
        times.append((clock() - t0) * 1e3)
    return times


def run_scaling_study(instances: list[TspInstance], population_sizes: list[int],
                      mode: str = "both", *, iterations: int = 3,
                      repetitions: int = 3, seed: int = 0,
                      selection: Selection = Selection.IR,
                      budget_ms: float | None = None,
                      clock=time.perf_counter) -> list[dict]:
    """Mean/std per-iteration wall time per (instance, m) cell.

    Each repetition runs one warmup iteration (excluded) plus ``iterations``
    measured ones, with seed base+rep. mode is "batched", "sequential", or
    "both"; with "both" the batched row carries speedup_vs_sequential.
    When ``budget_ms`` is set, a cell whose projected per-iteration time
    exceeds it is skipped with status "exceeded_budget" (the projection
    scales a small-colony probe linearly in m, sound for the per-ant
    sequential loop, and is used for sequential cells only).
    """
    if mode not in ("batched", "sequential", "both"):
        raise ValueError(f"mode must be batched, sequential, or both, got {mode!r}")
    timers = {"batched": _time_batched_cell, "sequential": _time_sequential_cell}
    modes = ["batched", "sequential"] if mode == "both" else [mode]
    rows: list[dict] = []

    for inst in instances:
        for m in population_sizes:
            base = AcoParams.for_instance(inst.n, m=m, selection=selection, seed=seed)
            cell: dict[str, dict] = {}
            for cell_mode in modes:
                row = cell[cell_mode] = {
                    "instance": inst.name or f"n{inst.n}", "n": inst.n, "m": m,
                    "mode": cell_mode, "selection": base.selection.value,
                    "repetitions": repetitions, "iterations": iterations,
                    "mean_ms_per_iter": None, "std_ms_per_iter": None,
                    "speedup_vs_sequential": None, "status": "ok",
                }
                rows.append(row)
                if cell_mode == "sequential" and budget_ms is not None:
                    probe_m = max(1, min(32, m // 100))
                    probe = AcoParams.for_instance(inst.n, m=probe_m,
                                                   selection=selection, seed=seed)
                    probe_ms = _time_sequential_cell(inst, probe, 1, clock)[0]
                    if probe_ms * (m / probe_m) > budget_ms:
                        row["status"] = "exceeded_budget"
                        continue
                samples: list[float] = []
                for rep in range(repetitions):
                    params = replace(base, seed=seed + rep)
                    times = timers[cell_mode](inst, params, iterations + 1, clock)
                    samples.extend(times[1:])  # drop warmup
                row["mean_ms_per_iter"] = float(np.mean(samples))
                row["std_ms_per_iter"] = float(np.std(samples))
            if len(cell) == 2 and cell["sequential"]["status"] == "ok":
                batched = cell["batched"]
                batched["speedup_vs_sequential"] = (
                    cell["sequential"]["mean_ms_per_iter"] / batched["mean_ms_per_iter"])
    return rows


# ---------------------------------------------------------------------------
# Probability shift study
# ---------------------------------------------------------------------------

def run_probability_shift_study(inst: TspInstance, params: AcoParams,
                                iterations: int, trials: int = 10_000) -> list[dict]:
    """Track how the adaptive deviate exponent shifts effective selection.

    At each iteration's first construction step, records ant 0's masked
    (renormalized) probability row maximum p_max and the Monte-Carlo
    estimate p_hat_max_prime of the probability that the adaptive mechanism
    picks that same max-probability city, over ``trials`` draws. As gamma
    anneals to 1 the estimate approaches the plain independent-roulette
    value.
    """
    if params.selection is not Selection.ADAIR:
        raise ValueError("the shift study requires the adaptive mechanism")
    rows: list[dict] = []
    tau = PheromoneState.initial(inst.n, params.q0_tau)
    prob = compute_probability_matrix(tau, inst, params)

    for it in range(iterations):
        gamma = gamma_at(it, params.gamma_schedule)
        # ant 0's row at its start city: the diagonal is already zero, so
        # this is the row masked to the unvisited cities
        row = prob.p[rng.start_cities(params.seed, it, params.m, inst.n)[0]]
        row = row / row.sum()
        target = int(np.argmax(row))
        p_max = float(row[target])

        e = rng.mc_stream(params.seed, it).standard_exponential((trials, inst.n))
        picks = argmax_select_block(scaled_log_weights(row, gamma)[None],
                                    np.zeros(trials, dtype=np.int64), e,
                                    np.broadcast_to(False, e.shape), np.empty(e.shape))
        hits = int(np.count_nonzero(picks == target))

        rows.append({
            "iteration": it, "gamma": gamma, "p_max": p_max,
            "p_hat_max_prime": hits / trials,
        })
        _, tau, prob = iterate(tau, prob, inst, params, it)
    return rows


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_records_csv(records: list[IterationRecord], out) -> None:
    """Per-iteration CSV with the fixed ITER_COLUMNS order."""
    write_dict_csv([asdict(r) for r in records], ITER_COLUMNS, out)


def write_dict_csv(rows: list[dict], columns: list[str], out) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(row.get(c)) for c in columns])


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["params"]["selection"] = config.params.selection.value
    return d


def _checked_keys(cls, d, where: str) -> dict:
    """A copy of ``d`` whose keys are all fields of ``cls`` and include its
    required ones; ValueError naming the first key that is not."""
    if not isinstance(d, dict):
        raise ValueError(f"config {where or 'file'} must be a JSON object")
    prefix = f"{where}." if where else ""
    known = {f.name: f for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ValueError(f"unknown config key {prefix + key!r}")
    for name, f in known.items():
        if name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing config key {prefix + name!r}")
    return dict(d)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Inverse of config_to_dict. Raises ValueError on an unknown or missing
    key and on a value of the wrong type."""
    d = _checked_keys(ExperimentConfig, d, "")
    p = _checked_keys(AcoParams, d.pop("params"), "params")
    try:
        sched = p.pop("gamma_schedule", None)
        if sched is not None:
            p["gamma_schedule"] = GammaSchedule(
                **_checked_keys(GammaSchedule, sched, "params.gamma_schedule"))
        syn = d.pop("synthetic", None)
        if syn is not None:
            syn = SyntheticSpec(**_checked_keys(SyntheticSpec, syn, "synthetic"))
        return ExperimentConfig(params=AcoParams(**p), synthetic=syn, **d)
    except TypeError as e:
        raise ValueError(f"bad config value: {e}") from None


def median_outcomes(summaries: list[RunSummary]) -> dict:
    """Median final best cost and convergence generation over the runs."""
    return {f"median_{key}": float(np.median([getattr(s, key) for s in summaries]))
            for key in ("final_best_cost", "convergence_generation")}


def summary_json_text(config: ExperimentConfig, inst: TspInstance,
                      summaries: list[RunSummary]) -> str:
    """One JSON document per experiment: config echo plus aggregates."""
    doc = {
        "config": config_to_dict(config),
        "instance": {
            "name": inst.name, "n": inst.n, "best_known": inst.best_known,
            "best_known_source": ("override" if config.best_known is not None
                                  else "bundled-table" if inst.best_known is not None
                                  else None),
        },
        "runs": [asdict(s) for s in summaries],
        "aggregate": {
            **median_outcomes(summaries),
            "mean_ms_per_iter": float(np.mean([s.mean_ms_per_iter for s in summaries])),
            "cpu_count": os.cpu_count(),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
