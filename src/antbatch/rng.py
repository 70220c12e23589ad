"""Keyed random streams for reproducible, order-independent parallel runs.

Every random draw in a run is addressed by an explicit key
``(seed, domain, *indices)`` rather than by position in one global stream.
Each key is a ``numpy.random.SeedSequence`` spawn key, so any consumer (the
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
them in about half of Philox's time: an SFC64 stream is fully set by its
four state words, so ``step_keys`` derives the starting states of all
steps of an iteration in one vectorized pass of SeedSequence's hash and
SFC64's seeding, bit for bit the states numpy would seed from the same
spawn keys, and each step re-keys one module-level SFC64.
Both step draws take an ``out`` block to draw into, so a construction can
draw every step into a prefix of one buffer instead of allocating a block
per step; the values and the generator state after the draw are the same
either way.

Start cities and Monte-Carlo blocks come from ``stream``, a Philox generator
per key. They are drawn once per iteration or per block, off the hot path,
and pinned outputs (the start cities of every run, the estimator's
frequencies) depend on their bits.
"""

from __future__ import annotations

import operator

import numpy as np

# Spawn-key domains. Distinct domains guarantee construction deviates,
# start-city draws, and Monte-Carlo estimation never overlap streams.
DOMAIN_CONSTRUCT = 0
DOMAIN_START = 1
DOMAIN_MC = 2

# numpy.random.SeedSequence's hash: its pool size and constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def stream(seed: int, domain: int, *key: int) -> np.random.Generator:
    """Return the Philox Generator addressed by (seed, domain, *key).

    The same arguments always yield a generator in the same initial state.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key))
    return np.random.Generator(np.random.Philox(ss))


def _words(x: int) -> list[int]:
    """x as SeedSequence reads an integer: 32-bit words, least significant
    first, at least one."""
    x = operator.index(x)
    out = [x & _MASK32]
    while x := x >> 32:
        out.append(x & _MASK32)
    return out


def step_keys(seed: int, iteration: int, n: int) -> np.ndarray:
    """SFC64 states of the construction steps 0..n-1 of one iteration, (n, 4) uint64.

    Row s is bitwise the state numpy's ``SFC64(SeedSequence(entropy=seed,
    spawn_key=(DOMAIN_CONSTRUCT, iteration, s)))`` starts in. The hash below
    is SeedSequence's, word for word, in uint32 arithmetic held in Python
    ints and uint64 lanes (masked after every product and difference). Its
    hash constants do not depend on the data, and the step is the last
    entropy word, so everything before it is one scalar pass shared by all
    rows and only the final rounds run n lanes wide. SFC64's own seeding
    then runs on the same lanes: the first three state words from
    ``generate_state(3, np.uint64)``, the counter at 1, and 12 rounds whose
    outputs are discarded.
    """
    if seed < 0 or iteration < 0:
        raise ValueError(
            f"expected a non-negative seed and iteration, got {seed} and {iteration}")
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # a spawned sequence pads its entropy
    entropy = [*run, *_words(DOMAIN_CONSTRUCT), *_words(iteration),
               np.arange(n, dtype=np.uint64)]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(3, uint64): six uint32 words cycling over the pool,
    # paired least significant first
    hash_const = _INIT_B
    words = []
    for i in range(6):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    lanes = np.empty((4, n), dtype=np.uint64)
    s0, s1, s2, s3 = lanes
    for i, s in enumerate((s0, s1, s2)):
        np.bitwise_or(words[2 * i], words[2 * i + 1] << 32, out=s)

    # sfc64_next, 12 times: tmp = s0 + s1 + s3++; s0 = s1 ^ (s1 >> 11);
    # s1 = s2 + (s2 << 3); s2 = rotl(s2, 24) + tmp. The counter s3 is the
    # same in every lane, so it is a scalar until the end and its row is
    # scratch for the rotation until then.
    tmp = np.empty(n, dtype=np.uint64)
    for counter in range(1, 13):
        np.add(s0, s1, out=tmp)
        tmp += np.uint64(counter)
        np.right_shift(s1, 11, out=s0)
        s0 ^= s1
        np.left_shift(s2, 3, out=s1)
        s1 += s2
        np.left_shift(s2, 24, out=s3)
        s2 >>= 40
        s2 |= s3
        s2 += tmp
    s3.fill(13)
    return np.ascontiguousarray(lanes.T)


_STEP_SFC64 = np.random.SFC64(0)
_STEP_GENERATOR = np.random.Generator(_STEP_SFC64)


def step_exponentials(keys: np.ndarray, step: int, m: int, n: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Exp(1) deviate block for one construction step, shape (m, n).

    ``keys`` is the iteration's ``step_keys``. Row a belongs to ant a; the
    colony passes the number of unvisited cities, n - step, as ``n``. Used
    by the argmax-based selection mechanisms; with r = exp(-E) these are
    i.i.d. uniforms on the open interval (0, 1). The whole state of the
    module's SFC64 is reset (the step's four state words, no buffered
    32-bit half) before the draw, so the block depends only on the arguments
    and equals ``Generator(SFC64(SeedSequence(entropy=seed,
    spawn_key=(DOMAIN_CONSTRUCT, iteration, step)))).standard_exponential((m, n))``.
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


def start_cities(seed: int, iteration: int, m: int, n: int) -> np.ndarray:
    """Uniform start city per ant, shape (m,), values in [0, n)."""
    g = stream(seed, DOMAIN_START, iteration)
    return g.integers(0, n, size=m, dtype=np.int64)


def mc_stream(seed: int, block: int) -> np.random.Generator:
    """Generator for Monte-Carlo estimation, keyed by trial block index."""
    return stream(seed, DOMAIN_MC, block)
