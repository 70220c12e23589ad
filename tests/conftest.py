import os

import numpy as np
import pytest

from antbatch.bench import make_synthetic_instance
from antbatch.model import AcoParams, TspInstance, build_instance, euclidean_instance
from antbatch.tsplib import RawTspFile, parse_instance, serialize_instance

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
PKG_DATA = os.path.join(HERE, os.pardir, "src", "antbatch", "data")


def read_fixture(name: str) -> str:
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as f:
        return f.read()


def load_bundled(name: str) -> TspInstance:
    with open(os.path.join(PKG_DATA, name), "r", encoding="utf-8") as f:
        return build_instance(parse_instance(f.read()))


def random_metric_instance(rng: np.random.Generator, n: int,
                           integer: bool = True) -> TspInstance:
    """Random euclidean instance for equivalence fixtures.

    integer=True goes through the standard file conventions (distinct grid
    points, rounded distances), so every edge weight is integer-valued and
    scalar vs vectorized cost sums agree exactly. integer=False keeps raw
    euclidean distances.
    """
    if not integer:
        return euclidean_instance(rng.uniform(0.0, 1000.0, size=(n, 2)))
    while True:
        coords = rng.integers(0, 1000, size=(n, 2))
        if len(np.unique(coords, axis=0)) == n:
            break
    raw = RawTspFile(
        name="", dimension=n, edge_weight_type="EUC_2D",
        node_coords=tuple((i + 1, float(x), float(y))
                          for i, (x, y) in enumerate(coords)),
    )
    return build_instance(raw)


@pytest.fixture(scope="session")
def synthetic_files(tmp_path_factory):
    """Paths of the TSPLIB files of the synthetic instances the experiment
    tests read, written once per session: rnd10 (seed 3) and rnd20 (seed 4)."""
    folder = tmp_path_factory.mktemp("instances")
    paths = {}
    for n, seed in ((10, 3), (20, 4)):
        path = folder / f"rnd{n}.tsp"
        path.write_text(serialize_instance(make_synthetic_instance(n, seed=seed)),
                        encoding="utf-8")
        paths[f"rnd{n}"] = str(path)
    return paths


@pytest.fixture
def rnd10(synthetic_files):
    return synthetic_files["rnd10"]


@pytest.fixture
def rnd20(synthetic_files):
    return synthetic_files["rnd20"]


@pytest.fixture
def square5():
    # unit square plus center point: optimum is the 4-cycle detour via center
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.5]])
    return euclidean_instance(coords)


@pytest.fixture
def params8():
    return AcoParams(m=4, k=2, max_iters=10, seed=0)
