"""Elite pheromone update via edge-index accumulation.

Each elite tour is turned into an index matrix pairing every city with its
predecessor around the closed tour; deposits of 1/cost land on those index
pairs (both orientations, keeping tau symmetric) and accumulate in elite
rank order so the batched update is bit-reproducible and equals the
textbook per-edge loop exactly.
"""

from __future__ import annotations

import numpy as np

from .model import TAU_MIN, PheromoneState, TourBatch, _check_permutation


def select_elite(batch: TourBatch, k: int) -> list[tuple[np.ndarray, float]]:
    """The k lowest-cost tours, ascending by cost, ties broken by ant index.

    Returns (tour, cost) pairs; tours are read-only rows of the batch.
    """
    if not 1 <= k <= batch.m:
        raise ValueError(f"k must be in [1, m={batch.m}], got {k}")
    order = np.argsort(batch.costs, kind="stable")[:k]
    return [(batch.tours[a], float(batch.costs[a])) for a in order]


def edge_index_matrix(tour) -> np.ndarray:
    """Pair every tour position with its predecessor: row t = (tour[t], tour[t-1]).

    The n rows, read as undirected pairs, are exactly the closed tour's n
    edges. Shape (n, 2).
    """
    t = np.asarray(tour, dtype=np.int64)
    _check_permutation(t, t.size)
    return np.column_stack((t, np.roll(t, 1)))


def accumulate_increments(elites: list[tuple[np.ndarray, float]], n: int) -> np.ndarray:
    """Sum of per-elite increment matrices, accumulated in elite rank order.

    An elite's increment matrix holds 1/cost on each of its tour's edges, in
    both orientations, and zero elsewhere. Within one elite the n directed
    index pairs are distinct, so the fancy in-place add performs each
    deposit exactly once; across elites the accumulation order is the given
    rank order. The result is therefore bitwise equal to the sequential
    per-edge reference loop.
    """
    if not elites:
        raise ValueError("elites must be nonempty")
    delta = np.zeros((n, n))
    for tour, cost in elites:
        idx = edge_index_matrix(tour)
        inc = 1.0 / cost
        delta[idx[:, 0], idx[:, 1]] += inc
        delta[idx[:, 1], idx[:, 0]] += inc
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
    new_tau = (1.0 - rho) * tau.tau + delta
    np.maximum(new_tau, TAU_MIN, out=new_tau)
    return PheromoneState(tau=new_tau)
