import importlib.util
import os

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
