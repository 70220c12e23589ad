import dataclasses
import hashlib
import os

import numpy as np
import pytest

from antbatch.colony import compute_probability_matrix
from antbatch.model import (
    AcoParams,
    DegenerateInstance,
    GammaSchedule,
    InvalidPermutation,
    PheromoneState,
    ProbabilityMatrix,
    Selection,
    TAU_MIN,
    TourBatch,
    TspInstance,
    batch_costs,
    build_instance,
)
from antbatch.tsplib import parse_instance

from conftest import DATA, PKG_DATA, euclidean_instance, random_metric_instance, tour_cost


def test_build_instance_distances_and_eta(square5):
    # distances are unrounded euclidean here; eta = 1/d off-diagonal, so at
    # tau = 1 and alpha = beta = 1 each row of p is 1/d normalized
    assert square5.n == 5
    assert square5.dist[0, 1] == 1.0
    assert square5.dist[0, 2] == pytest.approx(np.sqrt(2.0))
    assert np.all(np.diag(square5.dist) == 0.0)
    params = AcoParams(m=1, k=1, alpha=1.0, beta=1.0)
    p = compute_probability_matrix(PheromoneState.initial(5, 1.0), square5, params).p
    assert np.all(np.diag(p) == 0.0)
    off = ~np.eye(5, dtype=bool)
    eta = np.zeros((5, 5))
    eta[off] = 1.0 / square5.dist[off]
    assert np.allclose(p, eta / eta.sum(axis=1, keepdims=True))


# sha256 of build_instance(...).dist, recorded when the matrix was still
# filled pair by pair from a scalar distance function
DIST_DIGESTS = {
    os.path.join(DATA, "u159.tsp"):
        "0166b6047160669f79d464a8bc0b830f162929c28cd7c1b7faebf63e033df823",
    os.path.join(DATA, "pcb442.tsp"):
        "5b6be0d1f209a8df5fe2a90ba37a6a7a70ac93f5b825a88b2a6e7c290d3b69a6",
    os.path.join(PKG_DATA, "rnd120.tsp"):
        "9ca187e0045008474eb73766473eb91d19c33e01d22e0a7d2b7d7f2db64513a5",
    os.path.join(PKG_DATA, "rnd442.tsp"):
        "f370b05313b92e9684ca3b4594b25aa8721c3f2e82133411dd3361b1d07511a2",
}


@pytest.mark.parametrize("path", list(DIST_DIGESTS), ids=os.path.basename)
def test_build_instance_distances_pinned(path):
    with open(path, "r", encoding="utf-8") as f:
        dist = build_instance(parse_instance(f.read())).dist
    assert dist.dtype == np.float64 and dist.flags.c_contiguous
    assert hashlib.sha256(dist.tobytes()).hexdigest() == DIST_DIGESTS[path]


def test_instance_arrays_are_frozen(square5):
    with pytest.raises(ValueError):
        square5.dist[0, 1] = 99.0


def test_public_constructors_copy_their_arrays():
    # a caller's array never aliases a value: writing to it afterwards
    # changes nothing the value holds
    g = np.random.default_rng(0)
    dist = g.uniform(1, 2, (4, 4))
    given = {
        TspInstance: {"dist": dist + dist.T},
        PheromoneState: {"tau": g.uniform(1, 2, (4, 4))},
        ProbabilityMatrix: {"p": g.uniform(0, 1, (4, 4))},
        TourBatch: {"tours": np.array([[0, 1, 2, 3]]), "costs": np.array([4.0])},
    }
    for cls, arrays in given.items():
        before = {name: a.copy() for name, a in arrays.items()}
        value = cls(**arrays)
        for name, a in arrays.items():
            a += 1
            held = getattr(value, name)
            assert np.array_equal(held, before[name]), (cls.__name__, name)
            assert not held.flags.writeable and not np.shares_memory(held, a)


def test_built_instances_share_no_input_and_are_read_only():
    coords = np.random.default_rng(1).uniform(0, 100, (6, 2))
    raw = parse_instance(
        "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
        "1 0.0 0.0\n2 3.0 0.0\n3 0.0 4.0\n")
    for inst, given in ((euclidean_instance(coords), coords), (build_instance(raw), None)):
        assert not inst.dist.flags.writeable
        assert given is None or not np.shares_memory(inst.dist, given)


def test_instance_holds_its_distances_and_derives_n():
    inst = TspInstance(np.ones((4, 4)), 9.0, "four")
    assert [f.name for f in dataclasses.fields(inst)] == ["dist", "best_known", "name"]
    assert inst.n == 4 and inst.best_known == 9.0 and inst.name == "four"
    for bad, message in ((np.ones((3, 5)), r"shape \(3, 5\)"),
                         (np.ones(4), r"shape \(4,\)"),
                         (np.ones((2, 3, 3)), r"shape \(2, 3, 3\)"),
                         (5, r"shape \(\)")):
        with pytest.raises(ValueError, match=rf"^dist must be a square 2-D array, got {message}$"):
            TspInstance(bad)
    with pytest.raises(DegenerateInstance, match="need at least 3 cities, got 2"):
        TspInstance(np.ones((2, 2)))
    for cell, value, message in (((1, 2), -3.0, r"dist\[1, 2\] is -3.0"),
                                 ((0, 2), np.nan, r"dist\[0, 2\] is nan"),
                                 ((0, 3), np.inf, r"dist\[0, 3\] is inf")):
        bad = np.ones((4, 4))
        bad[cell] = bad[cell[::-1]] = value
        with pytest.raises(ValueError, match=rf"^{message}; distances must be finite "
                                             "and non-negative$"):
            TspInstance(bad)
    skew = np.ones((4, 4))
    skew[3, 1] = 2.0
    with pytest.raises(ValueError, match=r"^dist\[1, 3\] is 1.0 but dist\[3, 1\] is 2.0; "
                                         "distances must be symmetric$"):
        TspInstance(skew)


def test_build_instance_from_tsplib_rounds():
    raw = parse_instance(
        "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
        "1 0.0 0.0\n2 1.4 0.0\n3 0.0 10.0\n")
    inst = build_instance(raw)
    assert inst.dist[0, 1] == 1.0  # rounded, not 1.4
    assert inst.dist[0, 2] == 10.0
    assert inst.dist.dtype == np.float64


def test_best_known_lookup_and_override():
    raw = parse_instance(
        "NAME : berlin52-not-really\nDIMENSION : 3\n"
        "EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
        "1 0.0 0.0\n2 3.0 0.0\n3 0.0 4.0\n")
    assert build_instance(raw).best_known is None
    assert build_instance(raw, best_known=123.0).best_known == 123.0


def test_coincident_cities_rejected_unless_lenient():
    raw = parse_instance(
        "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
        "1 0.0 0.0\n2 0.2 0.0\n3 5.0 5.0\n")  # d(1,2) rounds to 0
    with pytest.raises(DegenerateInstance):
        build_instance(raw)
    inst = build_instance(raw, lenient=True)
    assert inst.dist[0, 1] == 0.0
    tau = PheromoneState.initial(3, 1.0)
    p = compute_probability_matrix(tau, inst, AcoParams(m=1, k=1)).p
    assert np.isfinite(p).all()  # eta clamped, not inf


def test_too_few_cities_rejected():
    raw = parse_instance(
        "DIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
        "1 0.0 0.0\n2 3.0 0.0\n")
    with pytest.raises(DegenerateInstance):
        build_instance(raw)
    empty = parse_instance("DIMENSION : 0\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n")
    with pytest.raises(DegenerateInstance):
        build_instance(empty)


def test_gamma_schedule_validation():
    GammaSchedule(gamma_max=2.0, gamma_min=0.5, period=10)
    with pytest.raises(ValueError):
        GammaSchedule(gamma_max=0.5, gamma_min=1.0)  # max < min
    with pytest.raises(ValueError):
        GammaSchedule(gamma_min=0.0)
    with pytest.raises(ValueError):
        GammaSchedule(period=0)
    for period in (2.5, True, "3", 4.0):
        with pytest.raises(ValueError, match="^period must be an integer"):
            GammaSchedule(period=period)
    assert type(GammaSchedule(period=np.int32(7)).period) is int
    with pytest.raises(ValueError):
        GammaSchedule(gamma_max=0.9)  # below 1 disallowed for the ceiling
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^gamma_max must be finite"):
            GammaSchedule(gamma_max=bad)
    # a bool used to pass as 1 and a string or None to raise a TypeError
    # naming no field
    for name in ("gamma_max", "gamma_min"):
        for bad in (True, np.True_, "1.2", None):
            with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                GammaSchedule(**{name: bad})


def test_aco_params_validation():
    p = AcoParams(m=10, k=3)
    assert p.selection is Selection.ADAIR
    assert p.alpha == 1.0 and p.beta == 2.0 and p.rho == 0.1
    for bad in (
        dict(m=0, k=1),
        dict(m=4, k=0),
        dict(m=4, k=5),       # k > m
        dict(m=4, k=1, rho=1.5),
        dict(m=4, k=1, rho=-0.1),
        dict(m=4, k=1, alpha=-1.0),
        dict(m=4, k=1, q0_tau=0.0),
        dict(m=4, k=1, max_iters=0),
        dict(m=4, k=1, seed=-1),
        dict(m=4, k=1, seed=2**64),
    ):
        with pytest.raises(ValueError):
            AcoParams(**bad)
    # a non-finite exponent or initial level used to pass and end in a
    # misleading NumericalUnderflow or a warning mid-run
    for name in ("alpha", "beta", "q0_tau"):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                AcoParams(m=4, k=1, **{name: bad})
    # a bool used to pass as 1 or 0 and a string or None to raise a
    # TypeError naming no field
    for name in ("alpha", "beta", "rho", "q0_tau"):
        for bad in (True, False, np.True_, "2", None, [1.0], 1j):
            with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                AcoParams(m=4, k=1, **{name: bad})
    with pytest.raises(ValueError, match="^gamma_schedule must be a GammaSchedule: "):
        AcoParams(m=4, k=1, gamma_schedule={"period": 5})


def test_real_fields_keep_the_number_they_are_given():
    # Python and numpy reals pass as they are, so a config echoes them
    # byte for byte
    values = {"alpha": 2, "beta": np.float32(2.5), "rho": np.float64(0.25),
              "q0_tau": np.int64(3)}
    p = AcoParams(m=4, k=1, gamma_schedule=GammaSchedule(np.float64(1.5), 1), **values)
    for name, value in values.items():
        assert type(getattr(p, name)) is type(value) and getattr(p, name) == value
    assert type(p.gamma_schedule.gamma_max) is np.float64
    assert type(p.gamma_schedule.gamma_min) is int


def test_for_instance_defaults():
    p = AcoParams.for_instance(120)
    assert p.m == 120 and p.k == 12
    assert AcoParams.for_instance(5).k == 1  # floor of 1
    p2 = AcoParams.for_instance(50, m=8, seed=9)
    assert p2.m == 8 and p2.k == 1 and p2.seed == 9


def test_pheromone_initial_state():
    tau = PheromoneState.initial(6, 2.5)
    assert tau.tau.shape == (6, 6)
    assert np.all(np.diag(tau.tau) == 0.0)
    off = ~np.eye(6, dtype=bool)
    assert np.all(tau.tau[off] == 2.5)
    with pytest.raises(ValueError):
        tau.tau[0, 1] = 3.0  # frozen
    assert TAU_MIN > 0.0


def test_tour_cost_roundtrip(square5):
    t = np.array([0, 1, 2, 3, 4])
    # 3 unit edges + two half-diagonals back through the center
    expect = 3.0 + 2.0 * np.hypot(0.5, 0.5)
    assert tour_cost(t, square5) == pytest.approx(expect)


def test_tour_cost_rejects_non_permutations(square5):
    with pytest.raises(InvalidPermutation):
        tour_cost(np.array([0, 1, 2, 3, 3]), square5)
    with pytest.raises(InvalidPermutation):
        tour_cost(np.array([0, 1, 2]), square5)
    # the message names n and one city, never the whole tour
    inst = euclidean_instance(np.random.default_rng(1).uniform(0, 100, (300, 2)))
    base = np.arange(300)
    for tour, detail in ((np.where(base == 3, 300, base), "city 3 is missing"),
                         (np.where(base == 7, 250, base), "city 7 is missing"),
                         (base[1:], "city 0 is missing"),
                         (np.r_[base, 5], "shape (301,)")):
        with pytest.raises(InvalidPermutation) as exc:
            tour_cost(tour, inst)
        assert str(exc.value) == f"not a permutation of 0..299: {detail}"
        assert len(str(exc.value)) <= 100


def test_batch_costs_matches_scalar(square5):
    rng = np.random.default_rng(5)
    tours = np.stack([rng.permutation(5) for _ in range(8)])
    costs = batch_costs(tours, square5)
    for a in range(8):
        assert costs[a] == pytest.approx(tour_cost(tours[a], square5))


def test_integer_grid_instances_have_integer_costs():
    rng = np.random.default_rng(0)
    inst = random_metric_instance(rng, 12)
    t = rng.permutation(12)
    c = tour_cost(t, inst)
    assert c == int(c)


def test_selection_enum_round_trips_strings():
    assert Selection("rw") is Selection.RW
    assert Selection("ir") is Selection.IR
    assert Selection("adair") is Selection.ADAIR
    assert Selection.ADAIR.value == "adair"
