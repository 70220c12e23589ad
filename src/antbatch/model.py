"""Core domain types: instances, parameters, pheromone/probability state, tours.

All types are immutable value objects: every array they hold is read-only,
and state transitions produce new objects. That makes every type safe to
share across threads, and since construction and the oracle each draw from
a generator of their own per call, both may run in several threads at once
on shared values; a ``colony.Colony``, which holds a colony's changing tau
and p, is advanced by one thread at a time. Immutability also keeps the
batched pipeline and the sequential reference operating on literally
identical inputs. Public constructors copy the arrays they are given, so a
caller's array never aliases a value; an array the package has just built
and holds no other reference to is adopted instead (``_adopt``): marked
read-only and stored without a copy, which spares an (n, n) copy of tau
and of p per iteration.
"""

from __future__ import annotations

import enum
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .tsplib import BEST_KNOWN, RawTspFile, distance_matrix

TAU_MIN = 1e-12
ETA_CLAMP = 1e-10


class DegenerateInstance(ValueError):
    """Two cities coincide: an off-diagonal distance is zero."""


class InvalidPermutation(ValueError):
    """A tour is not a permutation of 0..n-1."""


class Selection(str, enum.Enum):
    """Next-city selection mechanism.

    RW is the classic fitness-proportionate roulette wheel (cumulative
    weights, one sequential spin per draw). IR replaces the spin with
    an argmax over independently perturbed weights, which batches across
    ants. ADAIR is IR with a deviate exponent gamma that follows a cosine
    annealing schedule.
    """

    RW = "rw"
    IR = "ir"
    ADAIR = "adair"


def _frozen(a, dtype) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``: what public constructors store."""
    a = np.array(a, dtype=dtype, copy=True)
    a.flags.writeable = False
    return a


def _adopt(cls, **values):
    """A ``cls`` value holding ``values`` as they are, without the copy its
    ``__post_init__`` makes: the one path for arrays the package has just
    built and keeps no other reference to. Each array is marked read-only,
    so nothing writes to it afterwards. ``__post_init__`` does not run, so
    the caller makes any other check it would make."""
    obj = object.__new__(cls)
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def _integer(name: str, value) -> int:
    """``value`` as an int. Python and numpy integers pass; a bool, a float,
    a string or any other value raises ValueError naming the field ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value):
    """``value`` unchanged if it is a real number, Python's or numpy's; a
    bool, a string, None or any other value raises ValueError naming it."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_city_count(n: int) -> None:
    if n < 3:
        raise DegenerateInstance(f"need at least 3 cities, got {n}")


@dataclass(frozen=True, eq=False)
class TspInstance:
    """A symmetric TSP instance: its distances alone, from which ``n`` and
    the heuristic eta = 1/max(dist, ETA_CLAMP) are derived where used.

    Attributes
    ----------
    dist : ndarray, shape (n, n)
        Symmetric, finite, non-negative distances, n >= 3. The diagonal
        need not be zero: no tour reads it.
    best_known : float or None
        Reference tour length for solution-error percentages.
    name : str
        Instance name, "" when anonymous.
    """

    dist: np.ndarray
    best_known: float | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dist", _frozen(self.dist, np.float64))
        if self.dist.ndim != 2 or self.n != self.dist.shape[1]:
            raise ValueError(f"dist must be a square 2-D array, got shape {self.dist.shape}")
        _check_city_count(self.n)
        d = self.dist
        bad = np.argwhere(~((d >= 0.0) & (d < np.inf)))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"dist[{i}, {j}] is {d[i, j]}; distances must be "
                             "finite and non-negative")
        bad = np.argwhere(d != d.T)
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"dist[{i}, {j}] is {d[i, j]} but dist[{j}, {i}] is "
                             f"{d[j, i]}; distances must be symmetric")

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def build_instance(raw: RawTspFile, best_known: float | None = None,
                   lenient: bool = False) -> TspInstance:
    """Build a TspInstance from a parsed .tsp file.

    Distances follow the file's edge-weight convention (integer-valued,
    exact in float64). When two cities coincide, raises DegenerateInstance
    unless ``lenient``; the heuristic clamps their distance to ETA_CLAMP.
    If ``best_known`` is None the bundled optima table is consulted by name.
    """
    dist = distance_matrix([(x, y) for _, x, y in raw.node_coords], raw.edge_weight_type)
    if best_known is None:
        best_known = BEST_KNOWN.get(raw.name)
    _check_city_count(len(dist))
    zero = (dist == 0.0) & ~np.eye(len(dist), dtype=bool)
    if not lenient and zero.any():
        i, j = np.argwhere(zero)[0]
        raise DegenerateInstance(
            f"cities {i} and {j} are at distance 0 (duplicate coordinates)"
        )
    return _adopt(TspInstance, dist=dist, best_known=best_known, name=raw.name)


@dataclass(frozen=True)
class GammaSchedule:
    """Cosine annealing endpoints for the deviate exponent gamma.

    gamma(t) starts each cycle at gamma_max and descends to gamma_min as
    t approaches the cycle length ``period``. gamma_max of 1.5 with
    gamma_min 1.0 makes the adaptive mechanism start exploratory and finish
    as plain independent roulette; values below 1 are permitted for
    gamma_min (greedier than plain IR). ``period`` is an integer, stored as
    int, and the endpoints are real; another type raises ValueError.
    """

    gamma_max: float = 1.5
    gamma_min: float = 1.0
    period: int = 1000

    def __post_init__(self):
        if not 1.0 <= _real("gamma_max", self.gamma_max) < np.inf:
            raise ValueError(f"gamma_max must be finite and >= 1, got {self.gamma_max}")
        if not _real("gamma_min", self.gamma_min) > 0.0:
            raise ValueError(f"gamma_min must be > 0, got {self.gamma_min}")
        if self.gamma_min > self.gamma_max:
            raise ValueError(
                f"gamma_min {self.gamma_min} exceeds gamma_max {self.gamma_max}"
            )
        object.__setattr__(self, "period", _integer("period", self.period))
        if self.period < 1:
            raise ValueError(f"period must be positive, got {self.period}")


@dataclass(frozen=True)
class AcoParams:
    """Colony parameters.

    alpha and beta weight pheromone and heuristic in the transition matrix;
    rho is the evaporation rate; m the ant count; k the elite count whose
    tours deposit pheromone; q0_tau the uniform initial pheromone level.
    ``seed`` keys every random stream of a run. m, k, max_iters and seed
    are integers, stored as int, and the other numbers are real, stored as
    given; a bool, string or other type in one of them raises ValueError
    naming it.
    """

    m: int
    k: int
    alpha: float = 1.0
    beta: float = 2.0
    rho: float = 0.1
    q0_tau: float = 1.0
    selection: Selection = Selection.ADAIR
    gamma_schedule: GammaSchedule = field(default_factory=GammaSchedule)
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "k", "max_iters", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"k must be in [1, m={self.m}], got {self.k}")
        if not 0 < _real("alpha", self.alpha) < np.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 <= _real("beta", self.beta) < np.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0 <= _real("rho", self.rho) < 1:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if not 0 < _real("q0_tau", self.q0_tau) < np.inf:
            raise ValueError(f"q0_tau must be finite and > 0, got {self.q0_tau}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "selection", Selection(self.selection))
        if not isinstance(self.gamma_schedule, GammaSchedule):
            raise ValueError(f"gamma_schedule must be a GammaSchedule: {self.gamma_schedule!r}")

    @classmethod
    def for_instance(cls, n: int, **overrides) -> "AcoParams":
        """Conventional sizing: m = n ants, k = one-tenth of the colony.

        k tracks the effective colony size, so overriding m alone never
        produces an elite set larger than the colony.
        """
        m = overrides.pop("m", n)
        sized = {"m": m, "k": max(1, m // 10)}
        sized.update(overrides)
        return cls(**sized)


@dataclass(frozen=True, eq=False)
class PheromoneState:
    """Pheromone matrix tau, one entry per directed city pair."""

    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", _frozen(self.tau, np.float64))

    @classmethod
    def initial(cls, n: int, q0_tau: float) -> "PheromoneState":
        tau = np.full((n, n), float(q0_tau))
        np.fill_diagonal(tau, 0.0)
        return _adopt(cls, tau=tau)


@dataclass(frozen=True, eq=False)
class ProbabilityMatrix:
    """Row-normalized transition matrix: rows sum to 1, zero diagonal."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen(self.p, np.float64))


@dataclass(frozen=True, eq=False)
class TourBatch:
    """m complete tours (rows are permutations of 0..n-1) with their costs."""

    tours: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tours", _frozen(self.tours, np.int64))
        object.__setattr__(self, "costs", _frozen(self.costs, np.float64))

    @property
    def m(self) -> int:
        return self.tours.shape[0]

    @property
    def n(self) -> int:
        return self.tours.shape[1]


def _check_permutation(tour: np.ndarray, n: int) -> None:
    """Raise InvalidPermutation unless ``tour`` is a permutation of 0..n-1.

    The message names n and the first missing city, never the whole tour.
    """
    if tour.shape == (n,) and np.array_equal(np.sort(tour), np.arange(n)):
        return
    missing = np.setdiff1d(np.arange(n), tour)
    detail = f"city {missing[0]} is missing" if missing.size else f"shape {tour.shape}"
    raise InvalidPermutation(f"not a permutation of 0..{n - 1}: {detail}")


def batch_costs(tours: np.ndarray, inst: TspInstance) -> np.ndarray:
    """Closed-tour lengths of the rows of an (m, n) tour array: each row's
    consecutive edges plus the edge back to its start."""
    closed = np.roll(tours, -1, axis=1)
    return inst.dist[tours, closed].sum(axis=1)
