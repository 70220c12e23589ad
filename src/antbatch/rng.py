"""Keyed random streams for reproducible, order-independent parallel runs.

Every random draw in a run is addressed by an explicit key
``(seed, domain, *indices)`` rather than by position in one global stream.
``stream`` turns a key into a Philox generator, so any consumer (the
batched pipeline, the sequential reference) regenerates identical values for
the same key regardless of execution order or width.

Construction randomness is drawn in per-step blocks: at iteration ``it``,
step ``step``, the colony draws one (m, n - step) block of Exp(1) deviates
covering all m ants, one deviate per unvisited city, and ant ``a`` consumes
row ``a``. Every selection mechanism consumes the same block: the argmax
mechanisms read the full row, the roulette wheel reads one element per row
through the uniform view u = exp(-E). Switching mechanisms therefore never
changes the randomness a step draws, and timing comparisons between
mechanisms isolate kernel cost rather than deviate-generation cost. An
ant's substream is identified by ``(seed, iteration, step, ant-row)``
without a generator built per ant, and none is built per step either.
The step blocks are the hot path, so they come from SFC64, which draws
them in about half of Philox's time. An SFC64 stream is fully set by its
four state words, so ``construction_draws`` takes the states of all steps
of an iteration from the iteration's one Philox stream, and each step
re-keys one module-level SFC64. Philox words are full-entropy, so the
states need no warm-up rounds.
Both step draws take an ``out`` block to draw into, so a construction can
draw every step into a prefix of one buffer instead of allocating a block
per step; the values and the generator state after the draw are the same
either way.

The start cities come from the same Philox stream, after the step states,
and Monte-Carlo blocks from a Philox stream per block. Pinned outputs (the
tours of every run, the estimator's frequencies) depend on their bits.
"""

from __future__ import annotations

import numpy as np

# Spawn-key domains. Distinct domains guarantee construction draws and
# Monte-Carlo estimation never overlap streams. The estimator's pinned
# frequencies depend on DOMAIN_MC's value.
DOMAIN_CONSTRUCT = 0
DOMAIN_MC = 2


def stream(seed: int, domain: int, *key: int) -> np.random.Generator:
    """Return the Philox Generator addressed by (seed, domain, *key).

    The same arguments always yield a generator in the same initial state.
    Raises ValueError for a negative seed or key.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key))
    return np.random.Generator(np.random.Philox(ss))


def construction_draws(seed: int, iteration: int, m: int,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start cities and step states of one iteration's construction.

    Both come from ``stream(seed, DOMAIN_CONSTRUCT, iteration)``: first n
    rows of three raw 64-bit words, row s the first three state words of
    step s's SFC64, whose counter word is 1; then one start city per ant,
    ``integers(0, n, size=m)``. The states come first, so row s depends
    only on (seed, iteration, s), not on m or n. Returns the (m,) int64
    start cities and the (n, 4) uint64 states. Raises ValueError for a
    negative seed or iteration.
    """
    g = stream(seed, DOMAIN_CONSTRUCT, iteration)
    states = np.ones((n, 4), dtype=np.uint64)
    states[:, :3] = g.bit_generator.random_raw((n, 3))
    return g.integers(0, n, size=m, dtype=np.int64), states


_STEP_SFC64 = np.random.SFC64(0)
_STEP_GENERATOR = np.random.Generator(_STEP_SFC64)


def step_exponentials(keys: np.ndarray, step: int, m: int, n: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Exp(1) deviate block for one construction step, shape (m, n).

    ``keys`` is the iteration's states from ``construction_draws``. Row a
    belongs to ant a; the colony passes the number of unvisited cities,
    n - step, as ``n``. Used by the argmax-based selection mechanisms; with
    r = exp(-E) these are i.i.d. uniforms on the open interval (0, 1). The
    whole state of the module's SFC64 is reset (the step's four state
    words, no buffered 32-bit half) before the draw, so the block depends
    only on the arguments and equals the ``standard_exponential((m, n))``
    of a fresh ``Generator(SFC64())`` whose state is set to ``keys[step]``.
    The SFC64 is shared, so calls must not run in several threads at once.

    With ``out``, a C-contiguous float64 (m, n) array, the block is drawn
    into it and ``out`` is returned, bitwise the block drawn without it;
    another shape raises ValueError.
    """
    _STEP_SFC64.state = {
        "bit_generator": "SFC64",
        "state": {"state": keys[step]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _STEP_GENERATOR.standard_exponential(size=(m, n), out=out)


def step_uniforms(keys: np.ndarray, step: int, m: int, n: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Uniform(0,1) threshold per ant for one construction step, shape (m,).

    The uniform view of the step's deviate block: u = exp(-E) of the block's
    first column. The roulette wheel needs one threshold per ant per step; it
    still consumes the same keyed (m, n) block as the argmax mechanisms (n
    the number of unvisited cities) so that the per-step stream geometry is
    mechanism-independent. Both the lockstep pipeline and the sequential
    reference call this one function, which keeps their thresholds
    bit-identical. ``out`` is passed on to
    ``step_exponentials``, which draws the block into it; the thresholds
    are the same with it and without.
    """
    return np.exp(-step_exponentials(keys, step, m, n, out)[:, 0])


def mc_stream(seed: int, block: int) -> np.random.Generator:
    """Generator for Monte-Carlo estimation, keyed by trial block index."""
    return stream(seed, DOMAIN_MC, block)
