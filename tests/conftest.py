import os

import numpy as np
import pytest

from antbatch.bench import make_synthetic_instance
from antbatch.model import AcoParams, TspInstance, _check_permutation, build_instance
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


def euclidean_instance(coords) -> TspInstance:
    """Instance with exact (unrounded) Euclidean distances.

    For synthetic geometry where integer rounding would collapse distinct
    edge lengths; TSPLIB files go through build_instance instead.
    """
    pts = np.asarray(coords, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return TspInstance(np.sqrt((diff * diff).sum(axis=2)))


def tour_cost(tour, inst: TspInstance) -> float:
    """Closed-tour length: consecutive edges plus the edge back to the start.

    A scalar reference for ``batch_costs``; raises InvalidPermutation
    unless ``tour`` is a permutation of the instance's cities.
    """
    t = np.asarray(tour, dtype=np.int64)
    _check_permutation(t, inst.n)
    return float(inst.dist[t, np.roll(t, -1)].sum())


def transformed_deviate_pdf(y: float, gamma: float) -> float:
    """Density of Y = X**gamma for X uniform on (0,1): (1/gamma) y^((1-gamma)/gamma).

    Zero outside the open interval (0, 1). For gamma > 1 the density
    diverges at 0 and the mass shifts toward small values (median
    (1/2)**gamma < 1/2), which is what makes large gamma exploratory.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if not 0.0 < y < 1.0:
        return 0.0
    return (1.0 / gamma) * y ** ((1.0 - gamma) / gamma)


def sample_transformed_deviates(gamma: float, size: int,
                                rng_stream: np.random.Generator) -> np.ndarray:
    """Draw Y = X**gamma (X uniform on (0,1)) as exp(-gamma * E), E ~ Exp(1)."""
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    return np.exp(-gamma * rng_stream.standard_exponential(size))


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
