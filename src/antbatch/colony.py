"""The colony iteration: transition-matrix preprocessing, the lockstep
driver that advances all m ants together, and ``Colony``, which chains
construction, elite deposit, evaporation and the next transition matrix.

Each ant keeps its unvisited cities in the first n - s columns of one
(m, n) candidate block at step s; the pick is swap-removed to the last of
those columns, so the block ends as the reversed tours and no step touches
more than the (m, n - s) candidates. One iteration's randomness comes
from one keyed generator that the construction owns: it draws the start
cities, then step s draws one (m, n - s) deviate block covering every ant,
in step order, so an iteration can be replayed in isolation and an ant's
choices never depend on how the others are scheduled. The argmax
mechanisms consume the full block through
``selection.argmax_select_block``; the roulette wheel consumes one
threshold per ant (the uniform view of the block's first column) and runs
all spins in lockstep through ``selection.rw_spin_block``, a row-wise
prefix-sum kernel. These two kernels are the only vectorized
implementations of the selection rules; they take the same arguments, so
every mechanism runs one step on one candidate block.
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
    AllZeroWeights,
    argmax_select_block,
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

    Every ant keeps its unvisited cities in the first r = n - s columns of
    one (m, n) candidate block ``cand``. At step s each ant picks its next
    city among those r candidates, from its current row of the transition
    matrix (for the argmax mechanisms the renormalizer over the candidates
    is a per-row constant and drops out of the argmax; the wheel
    materializes the candidates' CDF), and the pick is swap-removed to
    column r - 1. The start city is swap-removed to column n - 1 before the
    first step, so at the end ``cand[:, ::-1]`` is the tours. The mechanism
    only picks the table, draw and kernel every step uses. Each step draws
    its (m, r) deviate block, and the kernel gathers into its (m, r) scratch
    and index blocks, as prefixes of flat buffers allocated once per call,
    so no step allocates an array of the block's size.

    Raises AllZeroWeights, naming the ant, the iteration and the first such
    step, when every candidate of an ant has weight zero, as when large
    exponents underflow the transition weights. The kernel then picks a
    candidate whose entry in its table is -inf (log weights) or 0 (the
    wheel's p); no other pick has such an entry, so one check of the table
    along the finished tours finds the first (step, ant).
    """
    n, m = inst.n, params.m
    if params.selection is Selection.RW:
        table, draw, kernel, no_weight = p.p, rng.step_uniforms, rw_spin_block, 0.0
    else:
        gamma = (gamma_at(iteration, params.gamma_schedule)
                 if params.selection is Selection.ADAIR else 1.0)
        table = scaled_log_weights(p.p, gamma)
        draw, kernel, no_weight = rng.step_exponentials, argmax_select_block, -np.inf

    current, g = rng.construction_draws(params.seed, iteration, m, n)
    base = np.arange(m) * n  # offset of each ant's row in the flat block
    cand = np.tile(np.arange(n), (m, 1))
    flat = cand.ravel()
    flat[base + current] = n - 1
    cand[:, n - 1] = current
    deviates = np.empty(m * n)
    scratch = np.empty(m * n)
    index = np.empty(m * n, dtype=np.int64)

    # 0/0 in the wheel's CDF is an all-zero row, reported below
    with np.errstate(invalid="ignore"):
        for step in range(1, n):
            r = n - step
            block = draw(g, m, r, out=deviates[:m * r].reshape(m, r))
            at = base + kernel(table, current, block, cand[:, :r],
                               scratch[:m * r].reshape(m, r),
                               index[:m * r].reshape(m, r))
            last = cand[:, r - 1]
            current = flat[at]
            flat[at] = last
            last[...] = current

    tours = np.ascontiguousarray(cand[:, ::-1])
    # column s - 1: each ant's table entry at its pick of step s, gathered
    # through the step buffers, which are free now
    edges = index[:m * (n - 1)].reshape(m, n - 1)
    np.multiply(tours[:, :-1], n, out=edges)
    edges += tours[:, 1:]
    picked = np.take(table.ravel(), edges, out=scratch[:m * (n - 1)].reshape(m, n - 1),
                     mode="clip")
    dead = ~(picked > no_weight)
    if dead.any():
        step, a = np.argwhere(dead.T)[0]
        raise AllZeroWeights(
            f"ant {a} has no unvisited city of positive weight at iteration "
            f"{iteration}, step {step + 1}: the transition weights of all its "
            "unvisited cities underflowed to zero"
        )
    return _adopt(TourBatch, tours=tours, costs=batch_costs(tours, inst))


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
