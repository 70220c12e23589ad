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
    n, m = 12, 5
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
    assert len(calls) == n - 1
    assert len([s for s in tracer.spans if s.label == draw]) == n - 1
    blocks = [s for s in tracer.spans if s.label == "rng.step_exponentials"]
    # step s sweeps and draws the (m, n - s) block of the ants' candidates
    for step, (span, block) in enumerate(zip(calls, blocks, strict=True), start=1):
        assert span.entries == m * (n - step)
        assert block.deviates == m * (n - step)
