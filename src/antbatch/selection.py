"""Next-city selection: roulette wheel, independent roulette, and the
adaptive variant with an annealed deviate exponent.

The roulette wheel (RW) builds the candidates' prefix sums and inverts them
at one uniform threshold scaled by the total: fitness-proportionate, but
built on a cumulative scan of every candidate (the block form runs one
cumsum and one comparison per ant row). Independent roulette (IR) instead
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
for both argmax mechanisms, with the same arguments. Neither kernel knows
about visited cities: each row's candidates arrive as a row of column
indices into the table (``cand``), and the kernel returns, per row, the
column of ``cand`` it picks. The wheel's candidates are an ant's unvisited
cities. The argmax mechanisms' are first an ant's chunk, the CHUNK
largest entries of its current row from ``candidate_chunks``, read from
the chunk values ``topv``; a pick whose score is above the row's bound on
the other entries is the whole row's argmax, because a score ``L - E``
with E >= 0 never exceeds its entry L (the lazy perturbed-argmax bound of
Mussmann, Levy & Ermon, UAI 2017). Only the ants whose chunk does not
decide are swept over every city. Visited cities reach the argmax
kernel as +inf deviates. Both kernels gather the weights
``table[current[a], cand[a, j]]`` as one flat ``np.take`` through a
caller-owned index block (``mode="clip"``: under the default ``mode="raise"``
numpy stages ``out`` through a hidden buffer, and clipping never moves an
index here, since every current row and candidate column is in range).
The colony calls them with one row per ant at every construction step, and
the Monte-Carlo estimator (``oracle.empirical_selection_distribution``) with
one row per trial and every city a candidate, so the closed-form
distribution checks measure the code the colony runs. The scalar loops of
``oracle.sequential_aco_step`` are the independent reference the kernels'
picks must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .model import GammaSchedule

# Table entries per row that the argmax mechanisms score at every step
# before a bound decides whether the rest of the row is needed. On rnd442
# with m = 442 ants, 16 sends 8.7% of IR's ant-steps and 11.7% of the
# adaptive mechanism's (its table is flatter at gamma 1.5) to the full row,
# and the adaptive iteration takes 1.15-1.18 times IR's; 32 sends 4.2% and
# 5.6%, at 1.10 times.
CHUNK = 32
# Entries per block of ``candidate_chunks``' argpartition, 256 KiB of int64
# indices: the chunk tables are built beside the (n, n) log table, and
# smaller blocks cost more Python per row at n = 1000.
ROW_BLOCK_ENTRIES = 1 << 15


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
    is needed), and no divide at gamma = 1, where it is an IEEE-exact
    identity. Works elementwise on vectors and matrices alike; the batched
    pipeline applies it to the whole transition matrix once per iteration
    and the per-ant reference applies it the same way, so both read
    identical bits.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(p, dtype=np.float64))
    if gamma != 1.0:
        logw /= gamma
    return logw


def candidate_chunks(table: np.ndarray,
                     c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's ``c`` largest entries of the log-weight ``table`` (n, n),
    and a bound on all the others, for 1 <= c < n.

    Returns ``top``, the (n, c) int64 columns of those entries in ascending
    order, ``topv``, their (n, c) values, and ``bound``, each row's
    (c + 1)-th largest entry. No entry of a row outside ``top`` exceeds its
    bound, so a perturbed chunk score ``topv - E`` (E >= 0) strictly above
    the bound beats every score outside the chunk, and the chunk's first
    column reaching it is the full row's first-of-ties pick, since the
    columns are in the row's order. A chunk that is all -inf never scores
    strictly above any bound. Works in row blocks of at most
    ``ROW_BLOCK_ENTRIES`` entries (one row when n is larger), so its
    argpartition index blocks stay small.
    """
    n = table.shape[0]
    if not 1 <= c < n:
        raise ValueError(f"chunk must be in [1, {n - 1}], got {c}")
    top = np.empty((n, c), dtype=np.int64)
    topv = np.empty((n, c))
    bound = np.empty(n)
    step = max(1, ROW_BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        rows = table[start:start + step]
        part = np.argpartition(rows, n - c - 1, axis=1)
        bound[start:start + step] = np.take_along_axis(rows, part[:, n - c - 1:n - c],
                                                       axis=1)[:, 0]
        block = np.sort(part[:, n - c:], axis=1)
        top[start:start + step] = block
        topv[start:start + step] = np.take_along_axis(rows, block, axis=1)
        del part  # before the next block's is built
    return top, topv, bound


def _gather(table: np.ndarray, current: np.ndarray, cand: np.ndarray,
            scratch: np.ndarray, index: np.ndarray) -> None:
    """scratch[a, j] = table[current[a], cand[a, j]], one flat ``np.take``
    through the index block ``index`` (``table`` C-contiguous). ``mode="clip"``
    keeps ``np.take`` from staging ``out`` through a copy and moves no index
    in range, the only kind the kernels' callers pass."""
    np.add(cand, (current * table.shape[1])[:, None], out=index)
    np.take(table.ravel(), index, out=scratch, mode="clip")


def rw_spin_block(table: np.ndarray, current: np.ndarray, deviates: np.ndarray,
                  cand: np.ndarray, scratch: np.ndarray,
                  index: np.ndarray) -> np.ndarray:
    """Lockstep roulette spins, one per ant: the wheel's only implementation.

    Takes the arguments of ``argmax_select_block``, with the transition
    matrix as ``table`` and one uniform threshold u per ant as
    ``deviates``. Gathers each ant's weights over its candidates ``cand``
    into ``scratch``, takes their prefix sums in candidate order, and
    returns the first column whose prefix sum strictly exceeds u * total,
    the row's total weight times that ant's threshold. Zero-weight
    candidates are never picked (their prefix sum equals the one before).
    cumsum accumulates left to right, so each pick is the one a scalar
    running sum over the same candidates finds with the test
    ``run > u * total``. ``scratch`` (float64) and ``index`` (int64,
    C-contiguous) are caller-owned blocks of ``cand``'s shape; ``scratch``
    keeps the prefix sums, whose entry at a row's pick is 0 exactly when
    the row's total weight is zero (the caller's to report; the pick is
    then column 0).
    """
    _gather(table, current, cand, scratch, index)
    np.cumsum(scratch, axis=1, out=scratch)
    total = scratch[:, -1]
    thr = deviates * total
    # the comparison goes into the index block's bytes, dead after the gather
    hit = np.ndarray(cand.shape, np.bool_, index)
    pos = np.greater(scratch, thr[:, None], out=hit).argmax(axis=1)
    # u * total can round to the total (at u = 1.0, the uniform view of an
    # underflowing deviate; below 1 only for a subnormal total), which no
    # prefix sum exceeds; those rows take the last positive-weight
    # candidate, and all-zero rows keep column 0
    for a in np.flatnonzero((total <= thr) & (total > 0.0)):
        pos[a] = np.flatnonzero(table[current[a], cand[a]])[-1]
    return pos


def argmax_select_block(table: np.ndarray, current: np.ndarray, deviates: np.ndarray,
                        cand: np.ndarray, scratch: np.ndarray,
                        index: np.ndarray) -> np.ndarray:
    """Lockstep perturbed-argmax for all m ants: the only implementation of
    independent roulette and of its adaptive variant.

    Gathers each ant's log weights over its candidates ``cand`` from the
    log-weight ``table`` into ``scratch``, subtracts that ant's row of Exp(1)
    ``deviates`` (one per candidate), and returns the row argmax: a column
    of ``cand``. Ties (probability zero in exact arithmetic, possible in
    floats) resolve to the lowest column, matching numpy's argmax.
    ``scratch`` (float64) and ``index`` (int64) are caller-owned blocks of
    ``cand``'s shape; ``scratch`` keeps the scores, whose entry at a row's
    pick is -inf exactly when every candidate of the row has weight zero
    (the caller's to report; the pick is then column 0).
    """
    _gather(table, current, cand, scratch, index)
    np.subtract(scratch, deviates, out=scratch)
    return scratch.argmax(axis=1)

