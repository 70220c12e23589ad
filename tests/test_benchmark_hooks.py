"""The program functions the benchmark's tracer wraps, and the kernel
arguments it reads, still exist in the form it expects.

``perfbench/probe.py`` wraps functions by their dotted names from outside
the package and reads the selection kernels' arguments by position, so a
rename or a reordered signature would break traced runs without failing
any other test.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

from antbatch.colony import Colony
from antbatch.model import AcoParams, Selection
from antbatch.selection import CHUNK

from conftest import HERE, random_metric_instance

PROBE_PATH = os.path.join(HERE, os.pardir, "perfbench", "probe.py")


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_capture_targets_exist(probe):
    patches = probe.Patches("antbatch")
    try:
        probe.Capture(calibrate=lambda: 0.0).install(patches)
        assert patches.missing == []
    finally:
        patches.restore()


@pytest.mark.parametrize("mech", list(Selection), ids=lambda s: s.value)
def test_traced_iteration_counts(probe, mech):
    # n = 127 > CHUNK + 1, so the argmax mechanisms' chunks do not decide
    # every pick; a fallback block sweeps a multiple of n entries, which no
    # block of m ants and at most CHUNK columns does
    n, m = (12, 5) if mech is Selection.RW else (127, 5)
    inst = random_metric_instance(np.random.default_rng(3), n)
    params = AcoParams(m=m, k=1, selection=mech, seed=2)
    colony = Colony(inst, params)
    with probe.Tracer("antbatch") as tracer:
        colony.iterate(0)
    assert tracer.patches.missing == []

    if mech is Selection.RW:
        kernel, draw = "selection.rw_spin_block", "rng.step_uniforms"
    else:
        kernel, draw = "selection.argmax_select_block", "rng.step_exponentials"
    calls = [s for s in tracer.spans if s.label == kernel]
    blocks = [s for s in tracer.spans if s.label == "rng.step_exponentials"]
    if mech is Selection.RW:
        draws = [s for s in tracer.spans if s.label == draw]
        assert len(calls) == len(draws) == n - 1
        # step s sweeps the (m, n - s) block of the ants' candidates and
        # draws one (m, 1) block, each deviate of which its spin reads
        for step, (span, block, read) in enumerate(zip(calls, blocks, draws, strict=True),
                                                   start=1):
            assert span.entries == m * (n - step)
            assert block.deviates == read.deviates == m
    else:
        # each step sweeps and draws the (m, CHUNK) chunk block, then the
        # (f, n) block of the f ants whose chunk did not decide, if any; the
        # last CHUNK steps sweep and draw the (m, r) blocks of each ant's r
        # unvisited cities
        entries = [s.entries for s in calls]
        assert entries == [s.deviates for s in blocks]
        assert [e for e in entries if e % n] == \
            [m * CHUNK] * (n - 1 - CHUNK) + [m * r for r in range(CHUNK, 0, -1)]
        falls = [e for e in entries if e % n == 0]
        assert falls and all(e <= m * n for e in falls)
