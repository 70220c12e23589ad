"""Robustness sweep over the whole validated parameter space.

Every ``AcoParams`` that passes validation, on any instance that builds,
must end in permutation tours with finite costs or in one structured error:
``AllZeroWeights`` or ``NumericalUnderflow`` from the colony, or
``DegenerateInstance`` from the instance build. Each case runs a few
iterations through ``Colony.iterate`` with warnings raised as errors, so a
floating-point warning on the way counts as an unstructured failure too.
The share of structured errors is printed and bounded by nothing: it shows
how far the arithmetic reaches, not whether it is correct. A few drawn cases
also go through the command line, as TSPLIB and config files, and end in
exit 0 or in exit 2 with one line on stderr, under ``python -O`` as well.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antbatch.bench import ExperimentConfig, config_to_dict
from antbatch.cli import main
from antbatch.colony import Colony, NumericalUnderflow
from antbatch.model import (
    AcoParams,
    DegenerateInstance,
    GammaSchedule,
    Selection,
    build_instance,
)
from antbatch.selection import AllZeroWeights
from antbatch.tsplib import RawTspFile, serialize_instance

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

STRUCTURED = (AllZeroWeights, NumericalUnderflow, DegenerateInstance)


def _log_uniform(lo_exp: float, hi_exp: float):
    """Floats 10**e for e uniform in [lo_exp, hi_exp], with both ends."""
    return st.one_of(st.sampled_from([10.0**lo_exp, 10.0**hi_exp]),
                     st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e))


@st.composite
def _params(draw):
    m = draw(st.one_of(st.just(1), st.integers(1, 6)))
    gamma_max = draw(st.one_of(st.just(1.0), _log_uniform(0, 300)))
    gamma_min = draw(st.one_of(st.just(gamma_max), _log_uniform(-300, 0),
                               st.floats(1e-300, gamma_max)))
    return AcoParams(
        m=m,
        k=draw(st.one_of(st.just(m), st.integers(1, m))),
        alpha=draw(st.one_of(st.just(1.0), _log_uniform(-300, 300))),
        beta=draw(st.one_of(st.sampled_from([0.0, 300.0]), st.floats(0.0, 300.0))),
        rho=draw(st.one_of(st.sampled_from([0.0, 1 - 1e-9]), st.floats(0.0, 1 - 1e-9))),
        q0_tau=draw(_log_uniform(-300, 300)),
        selection=draw(st.sampled_from(Selection)),
        gamma_schedule=GammaSchedule(gamma_max, gamma_min,
                                     draw(st.integers(1, 4))),
        max_iters=4,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def _instances(draw):
    """A parsed file of n >= 3 cities at a coordinate scale from 1e-6 to
    1e6: scattered, collinear, or with coincident cities."""
    n = draw(st.integers(3, 9))
    scale = draw(_log_uniform(-6, 6))
    unit = st.floats(0.0, 1.0)
    pts = [[draw(unit), draw(unit)] for _ in range(n)]
    layout = draw(st.sampled_from(["scattered", "collinear", "coincident"]))
    if layout == "collinear":
        for p in pts:
            p[1] = 0.5
    elif layout == "coincident":
        for i in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=n - 1)):
            pts[i] = list(pts[draw(st.integers(0, i - 1))])
    return RawTspFile(
        name="", dimension=n,
        edge_weight_type=draw(st.sampled_from(["EUC_2D", "CEIL_2D", "ATT"])),
        node_coords=tuple((i + 1, x * scale, y * scale) for i, (x, y) in enumerate(pts)))


def _run_case(raw, lenient, params, iterations):
    """The outcome's name: "tours", or the structured error's class name."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            inst = build_instance(raw, lenient=lenient)
            colony = Colony(inst, params)
            for it in range(iterations):
                batch = colony.iterate(it)
                assert batch.tours.shape == (params.m, inst.n)
                assert (np.sort(batch.tours, axis=1) == np.arange(inst.n)).all()
                assert np.isfinite(batch.costs).all()
        except STRUCTURED as e:
            return type(e).__name__
    return "tours"


def test_every_validated_case_ends_in_tours_or_a_structured_error():
    outcomes = Counter()

    @given(_instances(), st.booleans(), _params(), st.integers(2, 4))
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def sweep(raw, lenient, params, iterations):
        outcomes[_run_case(raw, lenient, params, iterations)] += 1

    sweep()
    cases = sum(outcomes.values())
    errors = cases - outcomes["tours"]
    print(f"\nrobustness sweep: {cases} cases, {errors / cases:.0%} structured errors "
          f"({', '.join(f'{k} {v}' for k, v in sorted(outcomes.items()))})")


def _solve_argv(where, raw, lenient, params, iterations) -> list[str]:
    """``solve`` arguments for one case, written under ``where`` as a TSPLIB
    file and a config file naming it."""
    where.mkdir(exist_ok=True)
    tsp, cfg = where / "case.tsp", where / "case.json"
    tsp.write_text(serialize_instance(raw))
    config = ExperimentConfig(params=replace(params, max_iters=iterations),
                              instance_path=str(tsp), lenient=lenient)
    cfg.write_text(json.dumps(config_to_dict(config)))
    return ["solve", "--config", str(cfg), "--out", str(where / "case.csv")]


def test_drawn_cases_end_in_exit_0_or_one_line_through_the_cli(tmp_path):
    runs = []

    @given(_instances(), st.booleans(), _params(), st.integers(2, 4))
    @settings(max_examples=8, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def sweep(raw, lenient, params, iterations):
        argv = _solve_argv(tmp_path / f"case{len(runs)}", raw, lenient, params, iterations)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, len(err.getvalue().splitlines())) in ((0, 0), (2, 1))
        assert (code == 0) == (_run_case(raw, lenient, params, iterations) == "tours")
        runs.append((argv, code, err.getvalue()))

    sweep()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for argv, code, err in (runs[0], runs[-1]):
        proc = subprocess.run([sys.executable, "-O", "-m", "antbatch.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, err)
