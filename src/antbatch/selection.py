"""Next-city selection: roulette wheel, independent roulette, and the
adaptive variant with an annealed deviate exponent.

The roulette wheel (RW) materializes the candidates' cumulative distribution
and inverts it at one uniform threshold: fitness-proportionate, but built on
a cumulative scan and normalization of every candidate (the block form runs
one cumsum and one divide per ant row). Independent roulette (IR) instead
perturbs every candidate weight independently and takes an argmax:

    choice = argmax(r ** gamma * p),   r[i] i.i.d. uniform on (0, 1)

with gamma = 1 for plain IR. The argmax form batches over ants as pure
elementwise work plus a row reduction, which is the whole point.

Evaluation is in the log domain, which is both safe for extreme gamma and
cheap: with E = -log(r) ~ Exp(1),

    argmax(r**gamma * p) = argmax(log p - gamma * E) = argmax(log p / gamma - E)

(dividing by gamma > 0 preserves the argmax). The third form is used
everywhere: gamma is folded into the log-weight table once per iteration, so
the per-step kernel of the adaptive mechanism is byte-for-byte the IR kernel
reading a different table, and at gamma = 1 the division is an IEEE-exact
identity, making the gamma=1 mechanism literally the same computation as IR.
Exponential deviates keep r in the open interval (0, 1) by construction.

Larger gamma pushes the deviates r**gamma toward 0 and makes selection MORE
uniform (exploratory), not less: on p = [p1, p2] with p1 >= p2 > 0 the
probability of picking index 0 is 1 - (p2/p1)**(1/gamma) / 2, which
decreases from 1 - p2/(2 p1) at gamma = 1 toward 1/2 as gamma grows.
Annealing gamma from above 1 down to 1 therefore starts runs exploratory
and finishes them as plain IR.

Each rule has exactly one vectorized implementation, a lockstep kernel over
a block of rows: ``rw_spin_block`` for the wheel and ``argmax_select_block``
for both argmax mechanisms, with the same arguments (a bool ``visited``
mask bars cities). The colony calls them with one row per ant at every
construction step, and the Monte-Carlo estimator
(``oracle.empirical_selection_distribution``) with one row per trial, so the
closed-form distribution checks measure the code the colony runs. The
scalar loops of ``oracle.sequential_aco_step`` are the independent reference
the kernels' picks must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .model import GammaSchedule


class AllZeroWeights(ValueError):
    """No positive entry to select from."""


def gamma_at(iteration: int, schedule: GammaSchedule) -> float:
    """Cosine-annealed gamma at a 0-based iteration.

    gamma(t) = gamma_min + (gamma_max - gamma_min)/2 * (1 + cos(pi * (t mod
    period) / period)); each cycle starts at gamma_max and approaches
    gamma_min as t nears the cycle end, then restarts.
    """
    if iteration < 0:
        raise ValueError(f"iteration must be non-negative, got {iteration}")
    t = iteration % schedule.period
    lo, hi = schedule.gamma_min, schedule.gamma_max
    return lo + 0.5 * (hi - lo) * (1.0 + math.cos(math.pi * t / schedule.period))


def scaled_log_weights(p: np.ndarray, gamma: float) -> np.ndarray:
    """log(p) / gamma for non-negative p; zero entries map to -inf.

    One log pass and one in-place divide (log(0) is IEEE -inf, so no mask
    is needed). Works elementwise on vectors and matrices alike; the batched
    pipeline applies it to the whole transition matrix once per iteration
    and the per-ant reference applies it the same way, so both read
    identical bits.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(p, dtype=np.float64))
    logw /= gamma
    return logw


def rw_spin_block(table: np.ndarray, current: np.ndarray, deviates: np.ndarray,
                  visited: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Lockstep roulette spins, one per ant: the wheel's only implementation.

    Takes the arguments of ``argmax_select_block``, with the transition
    matrix as ``table`` and one uniform threshold per ant as ``deviates``.
    Gathers each ant's row, zeroes the cities ``visited`` marks,
    materializes the masked row's cumulative distribution (prefix sums over
    total), and picks the first index whose CDF value strictly exceeds that
    ant's threshold. Zero-weight entries are never picked (their CDF step
    is empty). cumsum accumulates left to right and the quotients are taken
    prefix by prefix, so each pick is the one a scalar running sum over the
    same masked row finds. ``scratch`` is a caller-owned (m, n) buffer.
    """
    np.take(table, current, axis=0, out=scratch)
    np.multiply(scratch, ~visited, out=scratch)
    np.cumsum(scratch, axis=1, out=scratch)
    total = scratch[:, -1].copy()
    np.divide(scratch, total[:, None], out=scratch)
    nxt = (scratch > deviates[:, None]).argmax(axis=1)
    # a threshold can reach 1.0 exactly (the uniform view of an underflowing
    # deviate), which no CDF value exceeds since the CDF tops out at exactly
    # 1.0; those rows take the last positive-weight index
    for a in np.flatnonzero(scratch[:, -1] <= deviates):
        nxt[a] = np.flatnonzero(table[current[a]] * ~visited[a])[-1]
    return nxt


def argmax_select_block(table: np.ndarray, current: np.ndarray, deviates: np.ndarray,
                        visited: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Lockstep perturbed-argmax for all m ants: the only implementation of
    independent roulette and of its adaptive variant.

    Gathers each ant's row of the log-weight ``table``, subtracts that ant's
    row of Exp(1) ``deviates``, bars the cities ``visited`` marks, and
    reduces with a row argmax. Ties (probability zero in exact arithmetic,
    possible in floats) resolve to the lowest index, matching numpy's
    argmax. ``scratch`` is a caller-owned (m, n) buffer.
    """
    np.take(table, current, axis=0, out=scratch)
    np.subtract(scratch, deviates, out=scratch)
    np.copyto(scratch, -np.inf, where=visited)
    return scratch.argmax(axis=1)


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
