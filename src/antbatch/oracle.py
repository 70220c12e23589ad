"""Reference implementations for tests and acceptance: exhaustive TSP
search, a sequential scalar colony step, and a Monte-Carlo estimator of the
selection kernels' distributions.

The references favor auditability over speed: explicit loops, one ant,
one city, one edge at a time, plain Python floats in the inner loops. The
sequential step consumes the same keyed random blocks as the batched
pipeline (both draw an iteration's start cities and then its step blocks,
in step order, from the iteration's own keyed generator, so both read
identical values) and must reproduce the pipeline's tours bit for bit:
Python floats are IEEE doubles, so a scalar running sum retraces cumsum's
partial sums and a scalar strict-greater scan retraces argmax's
first-of-ties choice, which is pinned by the numerics-assumption tests.

The estimator is not a reference: it draws through the colony's selection
kernels, so that the closed-form distribution checks measure those kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .colony import NumericalUnderflow
from .model import (
    ETA_CLAMP,
    TAU_MIN,
    AcoParams,
    DegenerateInstance,
    PheromoneState,
    Selection,
    TourBatch,
    TspInstance,
)
from .selection import (
    CHUNK,
    AllZeroWeights,
    argmax_select_block,
    candidate_chunks,
    gamma_at,
    rw_spin_block,
    scaled_log_weights,
)


class InstanceTooLarge(ValueError):
    """Exhaustive enumeration refused: (n-1)!/2 grows too fast past n=11."""


@dataclass(frozen=True)
class BruteForceResult:
    best_tour: tuple[int, ...]
    best_cost: float
    tours_enumerated: int


def brute_force_tsp(inst: TspInstance) -> BruteForceResult:
    """Globally optimal closed tour by enumerating (n-1)!/2 permutations.

    City 0 is fixed first and only one direction of each cycle is visited
    (second city < last city), which halves the work without losing any
    cost. Ties resolve to the lexicographically smallest tour starting at
    city 0, which is the first one lexicographic enumeration encounters.
    """
    n = inst.n
    if n > 11:
        raise InstanceTooLarge(f"n={n} exceeds the enumeration cap of 11")
    d = inst.dist.tolist()
    d0 = d[0]
    best_cost = math.inf
    best: tuple[int, ...] | None = None
    count = 0
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        count += 1
        prev = perm[0]
        c = d0[prev]
        for city in perm[1:]:
            c += d[prev][city]
            prev = city
        c += d[prev][0]
        if c < best_cost:
            best_cost = c
            best = perm
    return BruteForceResult(best_tour=(0, *best), best_cost=best_cost,
                            tours_enumerated=count)


def scalar_probability_reference(tau: PheromoneState, inst: TspInstance,
                                 params: AcoParams) -> np.ndarray:
    """Transition matrix by scalar double loop: tau^alpha * eta^beta with eta
    = 1/max(dist, ETA_CLAMP), row normalized, zero diagonal, unvectorized.
    A row whose smallest entry is below the smallest normal double or whose
    sum is not finite is rebuilt as exp(L - max L), L = alpha*log(tau) +
    beta*log(eta), or raises NumericalUnderflow when max L is not finite."""
    n = inst.n
    t = tau.tau
    d = inst.dist
    a, b = params.alpha, params.beta
    p = np.zeros((n, n))
    for i in range(n):
        row_sum = 0.0
        for j in range(n):
            if i == j:
                continue
            v = t[i, j] ** a * (1.0 / np.maximum(d[i, j], ETA_CLAMP)) ** b
            p[i, j] = v
            row_sum += v
        if min(p[i, j] for j in range(n) if j != i) < np.finfo(float).tiny \
                or not math.isfinite(row_sum):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                logs = [a * np.log(t[i, j]) + b * np.log(1.0 / np.maximum(d[i, j], ETA_CLAMP))
                        if j != i else -math.inf for j in range(n)]
            top = np.max(logs)
            if not math.isfinite(top):
                raise NumericalUnderflow(
                    f"row {i} normalizer is {row_sum}; "
                    "pheromone or heuristic values out of representable range")
            row_sum = 0.0
            for j in range(n):
                p[i, j] = np.exp(logs[j] - top)
                row_sum += p[i, j]
        for j in range(n):
            p[i, j] = p[i, j] / row_sum
    return p


def sequential_increment_sum(elites: list[tuple[np.ndarray, float]], n: int) -> np.ndarray:
    """Textbook deposit loop: for each elite tour, for each edge, add 1/cost
    at both orientations. The reference accumulate_increments must equal."""
    delta = np.zeros((n, n))
    for tour, cost in elites:
        if not cost > 0:
            raise DegenerateInstance("an elite tour has length 0: all its cities coincide")
        inc = 1.0 / cost
        t = list(tour)
        for s in range(len(t)):
            i, j = t[s], t[s - 1]
            delta[i, j] += inc
            delta[j, i] += inc
    return delta


def _no_positive_weight(ant: int, iteration: int, step: int) -> str:
    return (f"ant {ant} has no unvisited city of positive weight at iteration "
            f"{iteration}, step {step}")


def _sequential_spins(rows: list, tours: list, g, n: int, iteration: int) -> None:
    """The wheel's picks, appended to each ant's tour ``tours[a]``: every ant
    keeps its unvisited cities in the first n - step entries of its
    candidate list, scans them in list order and swaps its pick to the last
    of them, as the pipeline's candidate block does."""
    m = len(tours)
    cands = [list(range(n)) for _ in range(m)]
    for a in range(m):
        cand, s0 = cands[a], tours[a][0]
        cand[s0], cand[n - 1] = cand[n - 1], cand[s0]
    for step in range(1, n):
        r = n - step
        u = rng.step_uniforms(g, m)
        for a in range(m):
            row = rows[tours[a][-1]]
            cand = cands[a]
            ua = u[a]
            total = 0.0
            for j in range(r):
                total += row[cand[j]]
            if not total > 0.0:
                raise AllZeroWeights(_no_positive_weight(a, iteration, step))
            pick = -1
            run = 0.0
            for j in range(r):
                run += row[cand[j]]
                if run > ua * total:
                    pick = j
                    break
            if pick < 0:
                # threshold at or past the total: last positive weight
                for j in range(r - 1, -1, -1):
                    if row[cand[j]] > 0.0:
                        pick = j
                        break
            choice = cand[pick]
            cand[pick], cand[r - 1] = cand[r - 1], choice
            tours[a].append(choice)


def _sequential_argmax(table: np.ndarray, tours: list, g, n: int, iteration: int) -> None:
    """The argmax mechanisms' picks from the log table ``table``, appended
    to each ant's tour ``tours[a]``. While more than c = min(CHUNK, n - 1)
    cities are unvisited, each step draws the (m, c) chunk block and scans
    every ant's chunk of its current row from ``selection.candidate_chunks``
    (a visited city scores -inf); then each ant whose best chunk score is
    not above its row's bound scans all n cities in index order, with its
    row of the (f, n) block the step draws for those ants, in ant order, in
    which its chunk cities keep their chunk deviates. The last c steps draw
    (m, r) blocks and scan each ant's r unvisited cities, listed in
    ascending order when c were left, each pick swapped to the list's last
    unvisited position."""
    m = len(tours)
    c = min(CHUNK, n - 1)
    top, topv, bound = (x.tolist() for x in candidate_chunks(table, c))
    rows = table.tolist()
    visited = [bytearray(n) for _ in tours]
    for a, tour in enumerate(tours):
        visited[a][tour[0]] = 1
    for step in range(1, n - c):
        e_chunk = rng.step_exponentials(g, m, c)
        picks, fall = [], []
        for a in range(m):
            cur, e, seen = tours[a][-1], e_chunk[a].tolist(), visited[a]
            best = -math.inf
            pick = -1
            for j in range(c):
                city = top[cur][j]
                s = -math.inf if seen[city] else topv[cur][j] - e[j]
                if s > best:
                    best = s
                    pick = city
            picks.append(pick)
            if not best > bound[cur]:
                fall.append(a)
        e_full = rng.step_exponentials(g, len(fall), n) if fall else []
        for a, e in zip(fall, e_full):
            cur, seen, e = tours[a][-1], visited[a], e.tolist()
            row = rows[cur]
            for j in range(c):
                e[top[cur][j]] = float(e_chunk[a, j])
            best = -math.inf
            pick = -1
            for city in range(n):
                if not seen[city]:
                    s = row[city] - e[city]
                    if s > best:
                        best = s
                        pick = city
            if pick < 0:
                raise AllZeroWeights(_no_positive_weight(a, iteration, step))
            picks[a] = pick
        for a in range(m):
            tours[a].append(picks[a])
            visited[a][picks[a]] = 1

    cands = [[city for city in range(n) if not seen[city]] for seen in visited]
    for step in range(n - c, n):
        r = n - step
        e_block = rng.step_exponentials(g, m, r).tolist()
        for a in range(m):
            row, e, cand = rows[tours[a][-1]], e_block[a], cands[a]
            best = -math.inf
            pick = -1
            for j in range(r):
                s = row[cand[j]] - e[j]
                if s > best:
                    best = s
                    pick = j
            if pick < 0:
                raise AllZeroWeights(_no_positive_weight(a, iteration, step))
            choice = cand[pick]
            cand[pick], cand[r - 1] = cand[r - 1], choice
            tours[a].append(choice)


def sequential_aco_step(tau: PheromoneState, inst: TspInstance, params: AcoParams,
                        iteration: int) -> tuple[TourBatch, PheromoneState]:
    """One full colony iteration with plain nested loops and no batching.

    Same keyed random blocks as the pipeline, one ant and one city at a
    time: builds the transition matrix by scalar double loop, walks each ant
    through its n-1 selections with per-city Python arithmetic
    (``_sequential_spins``, ``_sequential_argmax``), sorts for the elite,
    deposits edge by edge, and evaporates cell by cell. Tours must match
    the batched pipeline bit for bit (a scalar running sum retraces the
    wheel kernel's cumsum, a strict-greater scan retraces the argmax
    kernel's first-of-ties choice); pheromone within 1e-12 relative (the
    scalar matrix arithmetic differs from the vectorized one by ulps).
    Raises AllZeroWeights when every unvisited city of an ant has weight
    zero.
    """
    n, m = inst.n, params.m
    mech = params.selection
    gamma = gamma_at(iteration, params.gamma_schedule) if mech is Selection.ADAIR else 1.0

    p = scalar_probability_reference(tau, inst, params)
    starts, g = rng.construction_draws(params.seed, iteration, m, n)
    tours = [[int(s)] for s in starts]
    if mech is Selection.RW:
        _sequential_spins(p.tolist(), tours, g, n, iteration)
    else:
        _sequential_argmax(scaled_log_weights(p, gamma), tours, g, n, iteration)

    d = inst.dist.tolist()
    costs = np.empty(m)
    for a in range(m):
        t = tours[a]
        c = 0.0
        for s in range(n):
            c += d[t[s]][t[(s + 1) % n]]
        costs[a] = c
    tours = np.array(tours, dtype=np.int64)

    elite_order = sorted(range(m), key=lambda a: (costs[a], a))[:params.k]
    elites = [(tours[a], float(costs[a])) for a in elite_order]
    delta = sequential_increment_sum(elites, n)

    new_tau = np.empty((n, n))
    keep = 1.0 - params.rho
    for i in range(n):
        for j in range(n):
            v = keep * tau.tau[i, j] + delta[i, j]
            new_tau[i, j] = v if v > TAU_MIN else TAU_MIN

    return TourBatch(tours=tours, costs=costs), PheromoneState(tau=new_tau)


_BLOCK = 1 << 16
# Each keyed block is drawn and scored in chunks of at most this many
# (trial, city) entries, or one trial when a row is longer: a generator
# fills a request element by element in C order, so successive chunks read
# the block's deviates, and the estimate does not depend on the chunk size.
MC_CHUNK_ENTRIES = 1 << 18


def empirical_selection_distribution(mechanism, p, gamma: float | None = None,
                                     trials: int = 10**6, seed: int = 0) -> np.ndarray:
    """Monte-Carlo selection frequencies over keyed trial blocks.

    Returns counts/trials (a frequency vector summing to one). Trials are
    drawn in blocks keyed by block index, so the estimate for a given
    (seed, trials) is deterministic, and each block in chunks of at most
    ``MC_CHUNK_ENTRIES`` entries, so its arrays do not grow with ``trials``.
    Each chunk runs through the colony's own selection kernel, one trial per row
    and every row reading the same weights with every city a candidate, in
    index order (so a picked column is a city), and the estimate measures
    the code the colony runs. Raises ValueError for a negative weight and
    AllZeroWeights when no weight is positive.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    mech = Selection(mechanism)
    w = np.asarray(p, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"expected a non-empty vector, got shape {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if not np.any(w > 0):
        raise AllZeroWeights("no positive weight to select from")
    if mech is Selection.ADAIR and gamma is None:
        raise ValueError("gamma is required for the adaptive mechanism")
    n = w.size
    if mech is Selection.RW:
        table = w[None]
    else:
        table = scaled_log_weights(w, float(gamma) if mech is Selection.ADAIR else 1.0)[None]
    counts = np.zeros(n, dtype=np.int64)
    chunk = max(1, MC_CHUNK_ENTRIES // n)
    for block, first in enumerate(range(0, trials, _BLOCK)):
        g = rng.mc_stream(seed, block)
        size = min(_BLOCK, trials - first)
        for done in range(0, size, chunk):
            c = min(chunk, size - done)
            if mech is Selection.RW:
                kernel, deviates = rw_spin_block, g.random(c)
            else:
                kernel, deviates = argmax_select_block, g.standard_exponential((c, n))
            idx = kernel(table, np.zeros(c, dtype=np.int64), deviates,
                         np.broadcast_to(np.arange(n), (c, n)), np.empty((c, n)),
                         np.empty((c, n), dtype=np.int64))
            counts += np.bincount(idx, minlength=n)
    return counts / trials
