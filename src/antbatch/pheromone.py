"""Elite pheromone update via one index-mapped scatter.

The k elite tours become one elite-major index map pairing every city with
its predecessor around the closed tour, in both orientations (keeping tau
symmetric). One ``np.add.at`` deposits 1/cost on all 2kn pairs; it adds
repeated cells in index order, so each cell accumulates in elite rank
order and the batched update is bit-reproducible and equals the textbook
per-edge loop exactly.
"""

from __future__ import annotations

import numpy as np

from .model import (TAU_MIN, DegenerateInstance, PheromoneState, TourBatch, _adopt,
                    _check_permutation)


def select_elite(batch: TourBatch, k: int) -> list[tuple[np.ndarray, float]]:
    """The k lowest-cost tours, ascending by cost, ties broken by ant index.

    Returns (tour, cost) pairs; tours are read-only rows of the batch.
    """
    if not 1 <= k <= batch.m:
        raise ValueError(f"k must be in [1, m={batch.m}], got {k}")
    order = np.argsort(batch.costs, kind="stable")[:k]
    return [(batch.tours[a], float(batch.costs[a])) for a in order]


def accumulate_increments(elites: list[tuple[np.ndarray, float]], n: int) -> np.ndarray:
    """Sum of the elites' deposits of 1/cost on their tours' edges, both
    orientations, accumulated in elite rank order by one scatter.

    The k tours are stacked into a (k, n) block and checked with one row
    sort; the first row that is not a permutation of 0..n-1 raises
    InvalidPermutation. The index map is elite-major: for each elite in
    rank order its n (city, predecessor) pairs, then the same pairs
    reversed. ``np.add.at`` adds repeated cells in index order, so every
    cell sums its increments in elite rank order and the result is bitwise
    equal to the sequential per-edge reference loop. An elite tour of length
    0 has no deposit and raises DegenerateInstance.
    """
    if not elites:
        raise ValueError("elites must be nonempty")
    tours = np.stack([t for t, _ in elites]).astype(np.int64, copy=False)
    ok = tours.shape[1] == n and (np.sort(tours, axis=1) == np.arange(n)).all(axis=1)
    if not np.all(ok):
        _check_permutation(tours[np.argmin(ok)], n)
    prev = np.roll(tours, 1, axis=1)
    rows = np.concatenate((tours, prev), axis=1)
    cols = np.concatenate((prev, tours), axis=1)
    costs = np.array([c for _, c in elites], dtype=np.float64)
    if not np.all(costs > 0):
        raise DegenerateInstance("an elite tour has length 0: all its cities coincide")
    inc = 1.0 / costs
    delta = np.zeros((n, n))
    np.add.at(delta, (rows.ravel(), cols.ravel()), np.repeat(inc, 2 * n))
    return delta


def apply_update(tau: PheromoneState, delta: np.ndarray, rho: float) -> PheromoneState:
    """Evaporate and deposit: tau' = (1 - rho) * tau + delta, floored at TAU_MIN.

    The floor keeps every entry strictly positive so transition-matrix rows
    can never lose their normalizer to decay alone. delta must be symmetric
    and non-negative (trusted); symmetry of tau is preserved exactly since
    the update is elementwise.
    """
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    new_tau = tau.tau * (1.0 - rho)
    new_tau += delta
    np.maximum(new_tau, TAU_MIN, out=new_tau)
    return _adopt(PheromoneState, tau=new_tau)
