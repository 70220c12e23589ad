"""Command-line front end.

Subcommands: solve (one experiment, per-iteration CSV), scaling (batched vs
sequential runtime grid), shift-study (selection probability shift under the
adaptive mechanism), convergence (three-mechanism ablation on one instance).
Exit status 0 on success; structured errors and running out of memory
print one line to stderr and exit 2, and so does a run whose arrays cannot
fit in memory, found from the instance's DIMENSION and the colony size
before the instance's arrays are built.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from dataclasses import replace

from .bench import (
    ExperimentConfig,
    SCALING_COLUMNS,
    SHIFT_COLUMNS,
    config_from_dict,
    median_outcomes,
    run_experiment,
    run_probability_shift_study,
    run_scaling_study,
    summary_json_text,
    write_dict_csv,
    write_records_csv,
)
from .model import AcoParams, GammaSchedule, Selection, TspInstance, build_instance
from .oracle import MC_CHUNK_ENTRIES
from .selection import CHUNK, ROW_BLOCK_ENTRIES
from .tsplib import RawTspFile, parse_instance

# Time-limited runs still need an iteration cap for record bookkeeping.
_TIME_LIMIT_ITER_CAP = 1_000_000


def _open_out(path: str, newline: str | None = None):
    """Open an output file for writing, creating parent directories."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline=newline)


def _write_rows(rows: list[dict], columns: list[str], path: str | None) -> int:
    """Write a study's CSV to ``path``, or to stdout when there is none."""
    if path:
        with _open_out(path, newline="") as f:
            write_dict_csv(rows, columns, f)
        print(f"wrote {len(rows)} rows to {path}")
    else:
        write_dict_csv(rows, columns, sys.stdout)
    return 0


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ants", type=int, default=None, metavar="M")
    p.add_argument("--elite", type=int, default=None, metavar="K")
    p.add_argument("--alpha", type=float, default=None, metavar="A")
    p.add_argument("--beta", type=float, default=None, metavar="B")
    p.add_argument("--rho", type=float, default=None, metavar="R")
    p.add_argument("--gamma-max", type=float, default=None, metavar="X")
    p.add_argument("--gamma-min", type=float, default=None, metavar="Y")
    p.add_argument("--period", type=int, default=None, metavar="P")
    p.add_argument("--seed", type=int, default=None, metavar="S")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="antbatch", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one experiment on an instance")
    solve.add_argument("instance", nargs="?", default=None,
                       help="TSPLIB .tsp file (default: --config's instance_path)")
    _add_param_flags(solve)
    solve.add_argument("--selection", choices=[s.value for s in Selection],
                       default=None)
    stop = solve.add_mutually_exclusive_group()
    stop.add_argument("--iters", type=int, default=None, metavar="N")
    stop.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    solve.add_argument("--reps", type=int, default=None, metavar="R")
    solve.add_argument("--out", default=None, metavar="FILE.csv")
    solve.add_argument("--summary", default=None, metavar="FILE.json")
    solve.add_argument("--config", default=None, metavar="FILE.json",
                       help="experiment config file; explicit flags override it")
    solve.add_argument("--best-known", type=float, default=None)
    solve.add_argument("--lenient", action="store_true")

    scaling = sub.add_parser("scaling", help="batched vs sequential timing grid")
    scaling.add_argument("--instances", nargs="+", required=True,
                         metavar="FILE.tsp")
    scaling.add_argument("--ants", required=True,
                         help="comma-separated colony sizes, e.g. 64,442,1000")
    scaling.add_argument("--mode", choices=["batched", "sequential", "both"],
                         default="both")
    scaling.add_argument("--iterations", type=int, default=3)
    scaling.add_argument("--reps", type=int, default=3)
    scaling.add_argument("--seed", type=int, default=0)
    scaling.add_argument("--selection", choices=[s.value for s in Selection],
                         default=Selection.IR.value)
    scaling.add_argument("--budget-ms", type=float, default=None)
    scaling.add_argument("--lenient", action="store_true")
    scaling.add_argument("--out", default=None, metavar="FILE.csv")

    shift = sub.add_parser("shift-study",
                           help="selection-probability shift under the "
                                "adaptive mechanism")
    shift.add_argument("instance")
    _add_param_flags(shift)
    shift.add_argument("--iters", type=int, default=50, metavar="N")
    shift.add_argument("--trials", type=int, default=10_000)
    shift.add_argument("--lenient", action="store_true")
    shift.add_argument("--out", default=None, metavar="FILE.csv")

    conv = sub.add_parser("convergence",
                          help="rw/ir/adair ablation on one instance")
    conv.add_argument("instance")
    _add_param_flags(conv)
    conv.add_argument("--iters", type=int, default=200, metavar="N")
    conv.add_argument("--reps", type=int, default=5, metavar="R")
    conv.add_argument("--best-known", type=float, default=None)
    conv.add_argument("--lenient", action="store_true")
    conv.add_argument("--out-prefix", default="convergence",
                      metavar="PREFIX", help="writes PREFIX_<mechanism>.csv/.json")
    return top


# flag dest -> field it sets, for the flags a user may leave out
_PARAM_FLAGS = {"ants": "m", "elite": "k", "alpha": "alpha", "beta": "beta",
                "rho": "rho", "seed": "seed", "iters": "max_iters", "selection": "selection"}
_SCHEDULE_FLAGS = {"gamma_max": "gamma_max", "gamma_min": "gamma_min",
                   "period": "period"}
_CONFIG_FLAGS = {"instance": "instance_path", "reps": "repetitions",
                 "time_limit": "time_limit_seconds", "out": "output_path",
                 "summary": "summary_path", "best_known": "best_known"}


def _given(args, flags: dict) -> dict:
    return {name: getattr(args, dest) for dest, name in flags.items()
            if getattr(args, dest, None) is not None}


def _overlay(args, params: AcoParams) -> AcoParams:
    """``params`` with every parameter flag given on the command line on top."""
    sched = replace(params.gamma_schedule, **_given(args, _SCHEDULE_FLAGS))
    return replace(params, gamma_schedule=sched, **_given(args, _PARAM_FLAGS))


def _read(path: str) -> RawTspFile:
    """The parsed instance file; each command parses each file once."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_instance(f.read())


def _default_params(args, default_iters: int, n: int) -> AcoParams:
    """Defaults for an instance of n cities: --ants ants, or one per city
    without it, with k = m/10 as ``AcoParams.for_instance`` sizes them,
    --iters or ``default_iters`` iterations (checked as max_iters before
    the schedule is built), and one gamma cycle over them."""
    max_iters = args.iters if args.iters is not None else default_iters
    params = AcoParams.for_instance(args.ants if args.ants is not None else n,
                                    max_iters=max_iters)
    return replace(params, gamma_schedule=GammaSchedule(period=max_iters))


def _resident_bytes(n: int, m: int) -> int:
    """Bytes of the arrays a run holds at its peak: four 8-byte (n, n)
    arrays (the instance's dist, the colony's tau and p and the one an
    iteration builds on top of them, the log table of the argmax
    mechanisms), their chunk tables (``top`` and ``topv``, (n, c) with
    c = min(CHUNK, n - 1), and the (n,) bound), two 8-byte argpartition
    row blocks of at most ``ROW_BLOCK_ENTRIES`` entries (or one row), and
    construction's arrays. The argmax mechanisms hold five 8-byte (m, n)
    blocks (tours, the visited penalty, and the fallback rows' deviates,
    scores and gather index) and four (m, c) blocks (chunk cities,
    deviates, scores, gather index); the wheel holds five (m, n) blocks
    (candidates, deviates, scratch, gather index, tours) and an (m, n)
    bool mask; ``batch_costs`` then holds tours and two (m, n) copies.
    Each step's (m,) vectors are counted as ten. Traced, one argmax
    construction peaks at 0.99 of the count's (m, ...) part at n = 60 and
    m = 4000, 0.96 at n = 12 and 0.91 at n = 3."""
    c = min(CHUNK, n - 1)
    return (8 * (4 * n * n + 2 * n * c + n + 5 * m * n + 4 * m * c + 10 * m) + m * n
            + 16 * max(ROW_BLOCK_ENTRIES, n))


def _estimator_bytes(n: int) -> int:
    """Bytes of the shift study's Monte-Carlo chunk, which the run's arrays
    do not count: three 8-byte blocks of ``MC_CHUNK_ENTRIES`` entries, or
    of one row of n when that is longer (deviates, scores, gather index),
    and its (trials,) vectors, counted as a fourth."""
    return 32 * max(MC_CHUNK_ENTRIES, n)


def _sequential_bytes(n: int, m: int) -> int:
    """Bytes the scaling study's sequential reference holds at its peak: its
    inputs dist and tau, and above them eight 8-byte (n, n) arrays (its
    transition matrix, the argmax mechanisms' log table, the Python lists of
    the table the ants read and later of dist at 32 bytes an entry, the
    deposit, the new pheromone and its copy), the argmax mechanisms' chunk
    lists, nine words per (n, c) entry with c = min(CHUNK, n - 1),
    twenty-five 8-byte (n,) rows for the lists' headers and the bound, and
    per ant ten 8-byte (n,) rows (its visited flags, its tour, its rows of
    the step blocks) and thirty words. Traced, what it holds above its
    inputs is 0.88 of that part of the count at n = 300 and m = 4, 0.45 at
    n = 5 and m = 20000, and 0.36 at n = 40 and m = 300."""
    c = min(CHUNK, n - 1)
    return 8 * (10 * n * n + 9 * n * c + 25 * n + 10 * m * n + 30 * m)


def _memory_limit() -> tuple[int, str]:
    """The smaller of the address-space soft limit and physical memory,
    with its name."""
    limits = [(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), "physical memory")]
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limits.append((soft, "the address-space limit"))
    return min(limits)


def _check_fits(what: str, need: int, n: int, m: int) -> None:
    limit, name = _memory_limit()
    if need > limit:
        raise ValueError(
            f"{what} on n = {n} cities with m = {m} ants needs about "
            f"{need / 2**30:.1f} GiB of arrays, more than {name} "
            f"({limit / 2**30:.1f} GiB)")


def _check_sizes(n: int, m: int, *, estimator: bool = False,
                 sequential: bool = False) -> None:
    """Check from a file's DIMENSION n and the colony size m that a run's
    arrays, with the estimator's chunk when ``estimator``, can fit in
    memory at all, and, when ``sequential``, the sequential reference's,
    which runs after the colony's arrays are gone; ValueError naming both
    sizes otherwise, before anything is allocated."""
    _check_fits("a run", _resident_bytes(n, m) + (_estimator_bytes(n) if estimator else 0),
                n, m)
    if sequential:
        _check_fits("the sequential reference", _sequential_bytes(n, m), n, m)


def _load(raw: RawTspFile, m: int, best_known: float | None = None,
          lenient: bool = False, *, estimator: bool = False) -> TspInstance:
    """``build_instance`` of the parsed file ``raw``, after ``_check_sizes``."""
    _check_sizes(raw.dimension, m, estimator=estimator)
    return build_instance(raw, best_known=best_known, lenient=lenient)


def _run_and_write(config: ExperimentConfig, inst: TspInstance) -> tuple[list, list]:
    """Run ``config`` on ``inst`` and write its records CSV (to stdout when
    it names no output path) and, when it names one, its summary JSON."""
    records, summaries = run_experiment(config, inst)
    if config.output_path:
        with _open_out(config.output_path, newline="") as f:
            write_records_csv(records, f)
    else:
        write_records_csv(records, sys.stdout)
    if config.summary_path:
        with _open_out(config.summary_path) as f:
            f.write(summary_json_text(config, inst, summaries))
    return records, summaries


def _cmd_solve(args) -> int:
    # The base comes from --config or from the defaults; every flag given
    # on the command line is applied on top of it.
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as f:
            base = config_from_dict(json.load(f))
        raw = _read(args.instance if args.instance is not None else base.instance_path)
    elif args.instance is None:
        raise ValueError("solve needs an instance file or a --config naming one")
    else:
        raw = _read(args.instance)
        iters = _TIME_LIMIT_ITER_CAP if args.time_limit is not None else 1000
        base = ExperimentConfig(params=_default_params(args, iters, raw.dimension),
                                instance_path=args.instance)
    config = replace(base, params=_overlay(args, base.params),
                     lenient=args.lenient or base.lenient, **_given(args, _CONFIG_FLAGS))

    inst = _load(raw, config.params.m, config.best_known, config.lenient)
    records, summaries = _run_and_write(config, inst)
    if config.output_path:
        best = min(s.final_best_cost for s in summaries)
        err = min((s.solution_error_percent for s in summaries
                   if s.solution_error_percent is not None), default=None)
        line = (f"wrote {len(records)} records to {config.output_path}; "
                f"best cost {best:.6g}")
        if err is not None:
            line += f" (error {err:.3f}%)"
        print(line)
    return 0


def _cmd_scaling(args) -> int:
    sizes = []
    for tok in filter(str.strip, args.ants.split(",")):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise ValueError(f"--ants: {tok.strip()!r} is not an integer") from None
    if not sizes:
        raise ValueError("--ants needs at least one colony size")
    # every file is parsed and size-checked first; each instance's distances
    # are built when its cells start, so that one is held at a time
    raws = [_read(path) for path in args.instances]
    for raw in raws:
        _check_sizes(raw.dimension, max(sizes), sequential=args.mode != "batched")
    rows = run_scaling_study(
        (build_instance(raw, lenient=args.lenient) for raw in raws), sizes, args.mode,
        iterations=args.iterations, repetitions=args.reps, seed=args.seed,
        selection=args.selection, budget_ms=args.budget_ms)
    return _write_rows(rows, SCALING_COLUMNS, args.out)


def _cmd_shift(args) -> int:
    raw = _read(args.instance)
    params = _overlay(args, _default_params(args, args.iters, raw.dimension))
    inst = _load(raw, params.m, lenient=args.lenient, estimator=True)
    rows = run_probability_shift_study(inst, params, args.iters,
                                       trials=args.trials)
    return _write_rows(rows, SHIFT_COLUMNS, args.out)


def _cmd_convergence(args) -> int:
    raw = _read(args.instance)
    base = _overlay(args, _default_params(args, args.iters, raw.dimension))
    inst = _load(raw, base.m, args.best_known, args.lenient)
    report = []
    for mech in (Selection.RW, Selection.IR, Selection.ADAIR):
        params = replace(base, selection=mech)
        config = ExperimentConfig(
            params=params, instance_path=args.instance,
            repetitions=args.reps, best_known=args.best_known,
            lenient=args.lenient,
            output_path=f"{args.out_prefix}_{mech.value}.csv",
            summary_path=f"{args.out_prefix}_{mech.value}.json",
        )
        _, summaries = _run_and_write(config, inst)
        report.append((mech.value, median_outcomes(summaries)))
    print("mechanism,median_convergence_generation,median_final_best_cost")
    for mech, med in report:
        print(f"{mech},{med['median_convergence_generation']!r},"
              f"{med['median_final_best_cost']!r}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "scaling": _cmd_scaling,
    "shift-study": _cmd_shift,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as e:  # every structured error is a ValueError
        print(f"antbatch: error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # an instance or colony too large for memory
        print(f"antbatch: error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
