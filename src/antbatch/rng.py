"""The two keyed generators of a run, each built by the call that draws
from it from ``SeedSequence(entropy=seed, spawn_key=(domain, index))``: the
same key always yields the same values, no generator is shared between
calls or threads, and distinct domains never share a stream.

Construction: ``construction_draws`` keys one SFC64 generator per
(seed, iteration). It draws the start cities, then the steps' blocks of
Exp(1) deviates, in step order, one row per ant. The roulette wheel's step
draws one (m, 1) block, the one deviate per ant that its spin reads,
through the uniform view u = exp(-E) (``step_uniforms``). The argmax
mechanisms' step draws an (m, c) block for the ants' chunks of c table
entries, then an (f, n) block for the f ants whose chunk does not decide,
in ant order (``colony.construct_tours``). So the deviates a step draws
depend on the mechanism and, for the argmax mechanisms, on the table. An
iteration can be replayed in isolation; a step cannot, since its blocks
follow the earlier steps' blocks. The step blocks are the hot path, so
the generator is SFC64, which draws them in about half of Philox's time.

Monte-Carlo estimation: ``mc_stream`` keys one Philox generator per
(seed, trial block). Pinned outputs (the tours of every run, the
estimator's frequencies) depend on the bits of both generators.
"""

from __future__ import annotations

import numpy as np

# Spawn-key domains. Distinct domains guarantee construction draws and
# Monte-Carlo estimation never overlap streams. The estimator's pinned
# frequencies depend on DOMAIN_MC's value.
DOMAIN_CONSTRUCT = 0
DOMAIN_MC = 2


def construction_draws(seed: int, iteration: int, m: int,
                       n: int) -> tuple[np.ndarray, np.random.Generator]:
    """Start cities and step generator of one iteration's construction.

    The generator is ``Generator(SFC64(SeedSequence(entropy=seed,
    spawn_key=(DOMAIN_CONSTRUCT, iteration))))``. Returns its first
    ``integers(0, n, size=m)``, the (m,) int64 start cities, and the
    generator itself, from which the steps draw their blocks in step order.
    Raises ValueError for a negative seed or iteration.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(DOMAIN_CONSTRUCT, iteration))
    g = np.random.Generator(np.random.SFC64(ss))
    return g.integers(0, n, size=m, dtype=np.int64), g


def step_exponentials(g: np.random.Generator, m: int, n: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Exp(1) deviate block for one construction step, shape (m, n).

    ``g`` is the iteration's generator from ``construction_draws``, and the
    block is its next ``standard_exponential((m, n))``, one row per ant:
    the wheel's step passes n = 1 (``step_uniforms``); the argmax
    mechanisms' step passes the chunk width, then the number of cities for
    its fallback rows. With r = exp(-E) these are i.i.d. uniforms on the
    open interval (0, 1).

    With ``out``, a C-contiguous float64 (m, n) array, the block is drawn
    into it and ``out`` is returned, bitwise the block drawn without it;
    another shape raises ValueError.
    """
    return g.standard_exponential(size=(m, n), out=out)


def step_uniforms(g: np.random.Generator, m: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Uniform threshold in (0, 1] per ant for one wheel step, shape (m,).

    The uniform view u = exp(-E) of the step's (m, 1) block from
    ``step_exponentials``: m deviates, one per ant, each of which the
    wheel reads. The lockstep pipeline and the sequential reference both
    call this one function, which keeps their thresholds bit-identical.
    With ``out``, a C-contiguous float64 (m, 1) array, the block is drawn
    into it and overwritten by the thresholds, and the result is a view of
    it; the thresholds are the same with it and without.
    """
    e = step_exponentials(g, m, 1, out)
    return np.exp(np.negative(e, out=e), out=e)[:, 0]


def mc_stream(seed: int, block: int) -> np.random.Generator:
    """Generator for Monte-Carlo estimation, keyed by trial block index:
    ``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(DOMAIN_MC,
    block))))``. The same arguments always yield a generator in the same
    initial state. Raises ValueError for a negative seed or block.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(DOMAIN_MC, block))
    return np.random.Generator(np.random.Philox(ss))
