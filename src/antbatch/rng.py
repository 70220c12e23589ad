"""Keyed random streams for reproducible, order-independent parallel runs.

Every random draw in a run is addressed by an explicit key
``(seed, domain, *indices)`` rather than by position in one global stream.
Streams are Philox counter-based generators seeded through
``numpy.random.SeedSequence`` spawn keys, so any consumer (the batched
pipeline, the sequential reference) regenerates identical values for the
same key regardless of execution order or width.

Construction randomness is drawn in per-step blocks: at iteration ``it``,
step ``step``, the colony draws one (m, n) block of Exp(1) deviates covering
all m ants, and ant ``a`` consumes row ``a``. Every selection mechanism
consumes the same block: the argmax mechanisms read the full row, the
roulette wheel reads one element per row through the uniform view
u = exp(-E). Switching mechanisms therefore never changes the randomness a
step draws, and timing comparisons between mechanisms isolate kernel cost
rather than deviate-generation cost. An ant's substream is identified by
``(seed, iteration, step, ant-row)`` without paying one generator
construction per ant.
"""

from __future__ import annotations

import numpy as np

# Spawn-key domains. Distinct domains guarantee construction deviates,
# start-city draws, and Monte-Carlo estimation never overlap streams.
DOMAIN_CONSTRUCT = 0
DOMAIN_START = 1
DOMAIN_MC = 2


def stream(seed: int, domain: int, *key: int) -> np.random.Generator:
    """Return the Generator addressed by (seed, domain, *key).

    The same arguments always yield a generator in the same initial state.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key))
    return np.random.Generator(np.random.Philox(ss))


def step_exponentials(seed: int, iteration: int, step: int, m: int, n: int) -> np.ndarray:
    """Exp(1) deviate block for one construction step, shape (m, n).

    Row a belongs to ant a. Used by the argmax-based selection mechanisms;
    with r = exp(-E) these are i.i.d. uniforms on the open interval (0, 1).
    """
    g = stream(seed, DOMAIN_CONSTRUCT, iteration, step)
    return g.standard_exponential((m, n))


def step_uniforms(seed: int, iteration: int, step: int, m: int, n: int) -> np.ndarray:
    """Uniform(0,1) threshold per ant for one construction step, shape (m,).

    The uniform view of the step's deviate block: u = exp(-E) of the block's
    first column. The roulette wheel needs one threshold per ant per step; it
    still consumes the same keyed (m, n) block as the argmax mechanisms so
    that the per-step stream geometry is mechanism-independent. Both the
    lockstep pipeline and the sequential reference call this one function,
    which keeps their thresholds bit-identical.
    """
    return np.exp(-step_exponentials(seed, iteration, step, m, n)[:, 0])


def start_cities(seed: int, iteration: int, m: int, n: int) -> np.ndarray:
    """Uniform start city per ant, shape (m,), values in [0, n)."""
    g = stream(seed, DOMAIN_START, iteration)
    return g.integers(0, n, size=m, dtype=np.int64)


def mc_stream(seed: int, block: int) -> np.random.Generator:
    """Generator for Monte-Carlo estimation, keyed by trial block index."""
    return stream(seed, DOMAIN_MC, block)
