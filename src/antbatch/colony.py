"""The colony iteration: transition-matrix preprocessing, the lockstep
driver that advances all m ants together, and ``Colony``, which chains
construction, elite deposit, evaporation and the next transition matrix.

One iteration's randomness comes from one keyed generator that the
construction owns: it draws the start cities, then each step's blocks in
step order, so an iteration can be replayed in isolation and an ant's
choices never depend on how the others are scheduled.

The roulette wheel keeps each ant's unvisited cities in the first n - s
columns of one (m, n) candidate block at step s; the pick is swap-removed
to the last of those columns, so the block ends as the reversed tours and
no step touches more than the (m, n - s) candidates. Step s draws one
threshold per ant, an (m, 1) deviate block through its uniform view, and
runs all spins in lockstep through ``selection.rw_spin_block``, a row-wise
prefix-sum kernel.

The argmax mechanisms select by bounded independent roulette. Once per
iteration ``selection.candidate_chunks`` takes each row's CHUNK largest
entries of the log table and a bound on the rest. Each step scores every
ant's chunk of its current row through ``selection.argmax_select_block``
against an (m, CHUNK) deviate block, with visited cities masked by an
(m, n) penalty block; a score above the bound is the argmax over the whole
row, since a perturbed score never exceeds its table entry (E >= 0). Only
the ants whose chunk does not decide draw a full row of deviates and take
the kernel over all n cities. The last CHUNK steps, where a chunk would
hold mostly visited cities, scan each ant's unvisited cities directly, as
the wheel does. Every pick is the masked argmax of the full row under the
deviates it reads, so the selection distribution is that of independent
roulette, while a step draws and sweeps (m, CHUNK) entries instead of
(m, n - s) for the ants whose chunk decides.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .model import (
    ETA_CLAMP,
    AcoParams,
    PheromoneState,
    ProbabilityMatrix,
    Selection,
    TourBatch,
    TspInstance,
    _adopt,
    batch_costs,
)
from .pheromone import accumulate_increments, apply_update, select_elite
from .selection import (
    CHUNK,
    AllZeroWeights,
    argmax_select_block,
    candidate_chunks,
    gamma_at,
    rw_spin_block,
    scaled_log_weights,
)


class NumericalUnderflow(ValueError):
    """A transition-matrix row normalizer vanished or became non-finite."""


def compute_probability_matrix(tau: PheromoneState, inst: TspInstance,
                               params: AcoParams) -> ProbabilityMatrix:
    """Row-normalized transition matrix: tau^alpha * eta^beta, rows to 1,
    with eta = 1/max(dist, ETA_CLAMP).

    The diagonal is forced to zero before normalization. A row whose
    smallest off-diagonal entry is below the smallest normal double, or
    whose sum is not finite, is rebuilt as exp(L - max L) with L =
    alpha*log(tau) + beta*log(eta): the same distribution, scaled into
    range. Raises NumericalUnderflow when such a row's max L is not finite,
    as for a row of tau that is zero or not finite.
    """
    # the one (n, n) array built is the result: eta^beta, times tau^alpha,
    # each in place (x * y == y * x in IEEE arithmetic, and pow(x, 1) == x,
    # so the default alpha = 1 multiplies by tau itself); overflow/underflow
    # surfaces as a rebuilt row or a structured error below, not a warning
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        p = np.maximum(inst.dist, ETA_CLAMP)
        np.power(np.divide(1.0, p, out=p), params.beta, out=p)
        p *= tau.tau if params.alpha == 1.0 else np.power(tau.tau, params.alpha)
    np.fill_diagonal(p, np.inf)
    low = p.min(axis=1)
    np.fill_diagonal(p, 0.0)
    sums = p.sum(axis=1, keepdims=True)
    rebuild = np.flatnonzero((low < np.finfo(float).tiny) | ~np.isfinite(sums[:, 0]))
    # in blocks of n/8 rows, so that rebuilding every row holds at most
    # three eighths of an (n, n) array more
    block = max(1, inst.n // 8)
    for start in range(0, rebuild.size, block):
        rows = rebuild[start:start + block]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log = np.log(tau.tau[rows])
            log *= params.alpha
            eta = np.maximum(inst.dist[rows], ETA_CLAMP)
            np.log(np.divide(1.0, eta, out=eta), out=eta)
            eta *= params.beta
            log += eta
        log[np.arange(rows.size), rows] = -np.inf
        top = log.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(top)):
            bad = rows[np.argmin(np.isfinite(top[:, 0]))]
            raise NumericalUnderflow(
                f"row {bad} normalizer is {float(sums[bad, 0])}; "
                "pheromone or heuristic values out of representable range"
            )
        log -= top
        p[rows] = np.exp(log, out=log)
        sums[rows] = log.sum(axis=1, keepdims=True)
    p /= sums
    return _adopt(ProbabilityMatrix, p=p)


def construct_tours(p: ProbabilityMatrix, inst: TspInstance, params: AcoParams,
                    iteration: int) -> TourBatch:
    """Build m complete tours in n-1 lockstep selection rounds.

    The roulette wheel reads the transition matrix (``_spin_tours``); the
    argmax mechanisms read its log table, log(p)/gamma, with gamma = 1 for
    plain IR (``_argmax_tours``). Both draw from the iteration's one keyed
    generator: the start cities, then each step's deviates in step order.

    Raises AllZeroWeights, naming the ant, the iteration and the first such
    step, when every candidate of an ant has weight zero, as when large
    exponents underflow the transition weights.
    """
    if params.selection is Selection.RW:
        tours = _spin_tours(p.p, inst.n, params, iteration)
    else:
        gamma = (gamma_at(iteration, params.gamma_schedule)
                 if params.selection is Selection.ADAIR else 1.0)
        tours = _argmax_tours(scaled_log_weights(p.p, gamma), inst.n, params, iteration)
    return _adopt(TourBatch, tours=tours, costs=batch_costs(tours, inst))


def _no_weight(ant, iteration: int, step) -> AllZeroWeights:
    return AllZeroWeights(
        f"ant {ant} has no unvisited city of positive weight at iteration "
        f"{iteration}, step {step}: the transition weights of all its "
        "unvisited cities underflowed to zero"
    )


def _spin_tours(table: np.ndarray, n: int, params: AcoParams, iteration: int) -> np.ndarray:
    """The wheel's tours: every ant spins over its unvisited cities at
    every step (``_scan_steps``), starting from all cities but the start
    city, which is swap-removed to column n - 1 first, so at the end
    ``cand[:, ::-1]`` is the tours."""
    m = params.m
    current, g = rng.construction_draws(params.seed, iteration, m, n)
    cand = np.tile(np.arange(n), (m, 1))
    cand.ravel()[np.arange(m) * n + current] = n - 1
    cand[:, n - 1] = current
    deviates, scratch = np.empty((m, 1)), np.empty(m * n)
    index = np.empty(m * n, dtype=np.int64)
    _scan_steps(table, rw_spin_block, lambda r: rng.step_uniforms(g, m, out=deviates),
                cand, n - 1, current, scratch, index)
    tours = np.ascontiguousarray(cand[:, ::-1])
    _check_picks(table, tours, 0.0, iteration, scratch, index)
    return tours


def _scan_steps(table: np.ndarray, kernel, draw, cand: np.ndarray, r0: int,
                current: np.ndarray, scratch: np.ndarray, index: np.ndarray) -> None:
    """r0 steps over compacted candidates: each ant keeps its unvisited
    cities in the first r columns of the C-contiguous block ``cand``,
    r = r0, ..., 1. A step takes its deviates from ``draw(r)``, which
    draws them into a buffer of the caller's, runs ``kernel`` over
    ``cand[:, :r]`` with prefixes of the flat buffers ``scratch`` and
    ``index``, and swap-removes each pick to column r - 1, so
    ``cand[:, r0 - 1::-1]`` ends as the picks in step order and no step
    allocates an array of the block's size."""
    m, width = cand.shape
    base = np.arange(m) * width  # offset of each ant's row in the flat block
    flat = cand.ravel()
    for r in range(r0, 0, -1):
        block = draw(r)
        at = base + kernel(table, current, block, cand[:, :r],
                           scratch[:m * r].reshape(m, r), index[:m * r].reshape(m, r))
        last = cand[:, r - 1]
        current = flat[at]
        flat[at] = last
        last[...] = current


def _check_picks(table: np.ndarray, tours: np.ndarray, no_weight: float, iteration: int,
                 scratch: np.ndarray, index: np.ndarray) -> None:
    """Raise AllZeroWeights for the first (step, ant) whose pick has a table
    entry of ``no_weight`` or less: a kernel picks such an entry only when
    every candidate of the ant has one. Gathers through the flat buffers
    ``scratch`` and ``index`` of at least m * (n - 1) entries."""
    m, n = tours.shape
    # column s - 1: each ant's table entry at its pick of step s
    edges = index[:m * (n - 1)].reshape(m, n - 1)
    np.multiply(tours[:, :-1], n, out=edges)
    edges += tours[:, 1:]
    picked = np.take(table.ravel(), edges, out=scratch[:m * (n - 1)].reshape(m, n - 1),
                     mode="clip")
    live = picked > no_weight
    if not live.all():
        step, a = np.argwhere(~live.T)[0]
        raise _no_weight(a, iteration, step + 1)


def _argmax_tours(table: np.ndarray, n: int, params: AcoParams,
                  iteration: int) -> np.ndarray:
    """The argmax mechanisms' tours, from the log table ``table``.

    ``selection.candidate_chunks`` gives each row's top c = min(CHUNK,
    n - 1) entries and the bound on the rest. While more than c cities are
    unvisited, each step scores every ant's chunk of its current row,
    ``topv - E`` for an (m, c) Exp(1) block drawn at the step, with visited
    cities pushed to -inf by adding an (m, n) 0/+inf penalty block to the
    deviates; a best score strictly above the row's bound is the full
    row's argmax, since no score outside the chunk exceeds its table
    entry. The other ants (the fallback rows, in ant order) draw an (f, n)
    block next, keep their chunk cities' deviates, so that their chunk
    scores stand, and take the argmax over all n cities; a fallback row
    whose best score is -inf has no city of positive weight left and
    raises at once. The last c steps, where a chunk would be mostly
    visited cities, scan each ant's c unvisited cities, in ascending
    order, directly (``_scan_steps``). Every pick is therefore the full
    masked argmax under the deviates it reads. Every per-step block is a
    prefix of a buffer allocated once per call.
    """
    m = params.m
    c = min(CHUNK, n - 1)
    top, topv, bound = candidate_chunks(table, c)
    current, g = rng.construction_draws(params.seed, iteration, m, n)
    tours = np.empty((m, n), dtype=np.int64)
    tours[:, 0] = current
    base = np.arange(m) * n  # offset of each ant's row in an (m, n) block
    row_base, chunk_base = base[:, None], np.arange(m) * c
    penalty = np.zeros(m * n)
    penalty[base + current] = np.inf
    columns = np.broadcast_to(np.arange(c), (m, c))
    cities = np.broadcast_to(np.arange(n), (m, n))
    chunk, index = np.empty((m, c), dtype=np.int64), np.empty((m, c), dtype=np.int64)
    dev, score = np.empty((m, c)), np.empty((m, c))
    fdev, fscore, findex = np.empty(m * n), np.empty(m * n), np.empty(m * n, dtype=np.int64)

    for step in range(1, n - c):
        top.take(current, axis=0, out=chunk, mode="clip")
        np.add(chunk, row_base, out=index)
        rng.step_exponentials(g, m, c, out=dev)
        dev += penalty.take(index, out=score, mode="clip")
        at = argmax_select_block(topv, current, dev, columns, score, index)
        at += chunk_base
        pick = chunk.take(at)
        accept = score.take(at) > bound.take(current)
        if np.count_nonzero(accept) < m:
            fall = (~accept).nonzero()[0]
            f = fall.size
            block = rng.step_exponentials(g, f, n, out=fdev[:f * n].reshape(f, n))
            # the chunk cities keep the deviates their chunk scores read
            at = chunk.take(fall, axis=0, out=index[:f], mode="clip")
            at += row_base[:f]
            fdev[at] = dev.take(fall, axis=0, out=score[:f], mode="clip")
            scores = fscore[:f * n].reshape(f, n)
            block += penalty.reshape(m, n).take(fall, axis=0, out=scores, mode="clip")
            won = argmax_select_block(table, current[fall], block, cities[:f], scores,
                                      findex[:f * n].reshape(f, n))
            dead = (scores.take(won + base[:f]) == -np.inf).nonzero()[0]
            if dead.size:
                raise _no_weight(fall[dead[0]], iteration, step)
            pick[fall] = won
        tours[:, step] = pick
        penalty[base + pick] = np.inf
        current = pick

    # each ant's c unvisited cities, c ants at a time, so that no (m, n)
    # mask is built
    visited = penalty.reshape(m, n)
    for a in range(0, m, c):
        np.mod(np.flatnonzero(visited[a:a + c] == 0.0), n, out=chunk[a:a + c].reshape(-1))
    flat = dev.ravel()
    _scan_steps(table, argmax_select_block,
                lambda r: rng.step_exponentials(g, m, r, out=flat[:m * r].reshape(m, r)),
                chunk, c, current, score.ravel(), index.ravel())
    tours[:, n - c:] = chunk[:, ::-1]
    _check_picks(table, tours, -np.inf, iteration, fscore, findex)
    return tours


class Colony:
    """Pheromone ``tau``, from ``PheromoneState.initial``, and its transition matrix ``prob``."""

    def __init__(self, inst: TspInstance, params: AcoParams):
        self.inst, self.params = inst, params
        self.tau = PheromoneState.initial(inst.n, params.q0_tau)
        self.prob = compute_probability_matrix(self.tau, inst, params)

    def iterate(self, iteration: int) -> TourBatch:
        """One colony iteration: construct every ant's tour against ``prob``,
        select the k elite tours, deposit their increments, evaporate, and
        build ``prob`` from the new ``tau``; returns the tours. Dropping
        ``prob`` once the tours are built keeps an iteration at one (n, n)
        array above them; one that raises later leaves no ``prob``."""
        inst, params = self.inst, self.params
        batch = construct_tours(self.prob, inst, params, iteration)
        self.prob = None
        elites = select_elite(batch, params.k)
        self.tau = apply_update(self.tau, accumulate_increments(elites, inst.n), params.rho)
        self.prob = compute_probability_matrix(self.tau, inst, params)
        return batch
