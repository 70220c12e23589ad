"""The colony iteration: transition-matrix preprocessing, the lockstep
driver that advances all m ants together, and ``iterate``, which chains
construction, elite deposit, evaporation and the next transition matrix.

One iteration's randomness is addressed per construction step: step s draws
one (m, n) deviate block covering every ant, keyed by the step (the rng
module derives all of an iteration's step keys before its first step), so
an ant's choices never depend on how the others are scheduled. The argmax
mechanisms consume the full block through ``selection.argmax_select_block``;
the roulette wheel consumes one threshold per ant (the uniform view of the
block's first column) and runs all spins in lockstep through
``selection.rw_spin_block``, a row-wise prefix-sum kernel. These two kernels
are the only vectorized implementations of the selection rules; they take
the same arguments, so every mechanism runs one step on one visited mask.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .model import (
    AcoParams,
    PheromoneState,
    ProbabilityMatrix,
    Selection,
    TourBatch,
    TspInstance,
    batch_costs,
)
from .pheromone import accumulate_increments, apply_update, select_elite
from .selection import argmax_select_block, gamma_at, rw_spin_block, scaled_log_weights


class NumericalUnderflow(ValueError):
    """A transition-matrix row normalizer vanished or became non-finite."""


class RevisitedCity(ValueError):
    """A selector chose a city its ant had already visited."""


def compute_probability_matrix(tau: PheromoneState, inst: TspInstance,
                               params: AcoParams) -> ProbabilityMatrix:
    """Row-normalized transition matrix: tau^alpha * eta^beta, rows to 1.

    The diagonal is forced to zero before normalization. Raises
    NumericalUnderflow when a row's normalizer is zero or non-finite.
    """
    # overflow/underflow surfaces as a structured error below, not a warning
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        p = np.power(tau.tau, params.alpha)
        p *= np.power(inst.eta, params.beta)
    np.fill_diagonal(p, 0.0)
    sums = p.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(sums)) or np.any(sums <= 0.0):
        bad = int(np.argmin(np.where(np.isfinite(sums), sums, -np.inf)))
        raise NumericalUnderflow(
            f"row {bad} normalizer is {sums[bad, 0]!r}; "
            "pheromone or heuristic values out of representable range"
        )
    p /= sums
    return ProbabilityMatrix(p=p)


def construct_tours(p: ProbabilityMatrix, inst: TspInstance, params: AcoParams,
                    iteration: int) -> TourBatch:
    """Build m complete tours in n-1 lockstep selection rounds.

    At every round each ant picks its next city from its current row of the
    transition matrix restricted to unvisited cities (masked and
    renormalized; for the argmax mechanisms the renormalizer is a per-row
    constant and drops out of the argmax, the wheel materializes the masked
    row's CDF); the mechanism only picks the table, draw and kernel every
    step uses. Every step draws its deviate block into one (m, n) buffer
    allocated once per call, next to the kernel's scratch buffer, so no
    step allocates an (m, n) array for its draw. Raises RevisitedCity when
    a selector returns a city its ant has already visited, which happens
    only when every unvisited city of the ant's row has zero weight.
    """
    n, m = inst.n, params.m
    if params.selection is Selection.RW:
        table, draw, kernel = p.p, rng.step_uniforms, rw_spin_block
    else:
        gamma = (gamma_at(iteration, params.gamma_schedule)
                 if params.selection is Selection.ADAIR else 1.0)
        table = scaled_log_weights(p.p, gamma)
        draw, kernel = rng.step_exponentials, argmax_select_block

    keys = rng.step_keys(params.seed, iteration, n)
    current = rng.start_cities(params.seed, iteration, m, n)
    rows = np.arange(m)
    visited = np.zeros((m, n), dtype=bool)
    visited[rows, current] = True
    tours = np.empty((m, n), dtype=np.int64)
    tours[:, 0] = current
    scratch = np.empty((m, n))
    block = np.empty((m, n))

    for step in range(1, n):
        nxt = kernel(table, current, draw(keys, step, m, n, out=block), visited, scratch)
        revisits = visited[rows, nxt]
        if revisits.any():
            a = int(np.argmax(revisits))
            raise RevisitedCity(
                f"ant {a} chose already-visited city {nxt[a]} at iteration "
                f"{iteration}, step {step}: the transition weights of all its "
                "unvisited cities underflowed to zero"
            )
        current = nxt
        visited[rows, current] = True
        tours[:, step] = current

    return TourBatch(tours=tours, costs=batch_costs(tours, inst))


def iterate(tau: PheromoneState, prob: ProbabilityMatrix, inst: TspInstance,
            params: AcoParams, iteration: int,
            ) -> tuple[TourBatch, PheromoneState, ProbabilityMatrix]:
    """One colony iteration: construct every ant's tour against ``prob``,
    select the k elite tours, deposit their increments, evaporate, and
    precompute the transition matrix for the next iteration.

    ``prob`` must be the transition matrix of ``tau``. Returns the
    iteration's tours with the updated pheromone and transition matrix.
    """
    batch = construct_tours(prob, inst, params, iteration)
    elites = select_elite(batch, params.k)
    # the deposit matrix is passed on, not named, so that it is freed before
    # the next transition matrix is built: the caller still holds the old
    # tau and prob, and each is an (n, n) array
    tau = apply_update(tau, accumulate_increments(elites, inst.n), params.rho)
    return batch, tau, compute_probability_matrix(tau, inst, params)
