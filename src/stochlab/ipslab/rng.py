"""Per-trial random streams on a counter-based generator.

A stream is defined as ``Generator(Philox(SeedSequence((seed, *lane,
trial))))``: it derives deterministically from the master seed and its lane
indices, so any trial can be replayed in isolation and trials are
independent regardless of scheduling order.  ``trial_generator`` builds
that generator for one trial and is the reference the tests compare with;
in the library only the tau-leap twin (``reference.py``) still draws from
it.  Every other stream, a single ``simulate_contact`` or
``simulate_voter`` trajectory's included, goes through the keyed reader
below.

Philox is counter-based (Salmon et al., SC 2011): a stream is its 128-bit
key plus a block counter, so any stretch of any trial's stream can be read
directly.  Estimators therefore do not build a generator per trial.
``stream_keys`` derives the keys of a whole window of trials in one
vectorized pass of the ``SeedSequence`` hash, or of a few trials in the
same hash run on Python ints (``trial_keys`` hands them out
``KEY_BLOCK`` trials per pass), and a ``StreamReader`` owns one Philox
that it reseats to (key, counter) for each stream it reads: ``rows``
returns the same stretch of many streams as one 2-D array.
``trial_buffers`` hands out one ``UniformBuffer`` per trial, reading its
blocks as one-row reads through one reader, for the event loops that draw
a uniform at a time (contact process, coalescing walks); the voter kernel
reads whole windows of trials with ``rows``.  The values are the same as
``trial_generator``'s, bit for bit, at any worker count.  Trial indices
are single 32-bit entropy words, so at most ``MAX_TRIALS`` = 2**32 trials
share a (seed, lane).
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

MAX_TRIALS = 2**32
KEY_BLOCK = 4096  # keys derived per pass, so memory stays flat at any trial count
# widest window hashed on Python ints, one trial at a time: about 30 us per
# trial there, against about 175 us for one uint32 pass over any window up
# to a few hundred trials (2-vCPU VM), so the two cross near 6 trials
SCALAR_TRIALS = 5


def trial_generator(master_seed: int, *lane: int) -> Generator:
    """Independent stream for one (trial, purpose) lane of an experiment."""
    _check_seed(master_seed)
    return Generator(Philox(SeedSequence(entropy=(master_seed,) + tuple(lane))))


def _check_seed(master_seed: int):
    if not 0 <= master_seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def check_trials(trials: int):
    """Trial counts run 1..MAX_TRIALS: each trial index is one entropy word."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..2**32, got {trials}")


# numpy's SeedSequence constants: a pool of four 32-bit words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """An entropy integer as SeedSequence reads it: little-endian 32-bit words."""
    if value < 0:
        raise ValueError(f"entropy words must be nonnegative, got {value}")
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return words


def stream_keys(master_seed: int, lane: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """Philox keys of the trials ``lo <= t < hi`` as a ``(hi - lo, 2)`` uint64 array.

    Row t - lo equals ``SeedSequence((master_seed, *lane, t)).generate_state(2,
    np.uint64)``.  Up to ``SCALAR_TRIALS`` trials run ``_seed_hash`` on
    Python ints, one trial at a time; a wider window runs it once on uint32
    arrays with one lane per trial.
    """
    _check_seed(master_seed)
    if not 0 <= lo <= hi <= MAX_TRIALS:
        raise ValueError(f"trial window [{lo}, {hi}) outside [0, 2**32)")
    entropy = [w for v in (master_seed, *lane) for w in _words(v)]
    if hi - lo <= SCALAR_TRIALS:
        keys = []
        for t in range(lo, hi):
            w0, w1, w2, w3 = _seed_hash([*entropy, t], int)
            keys.append((w0 | w1 << 32, w2 | w3 << 32))
        return np.array(keys, dtype=np.uint64).reshape(hi - lo, 2)
    trials = np.arange(lo, hi, dtype=np.uint64).astype(np.uint32)
    with np.errstate(over="ignore"):  # np.uint32 scalar products warn when they wrap
        words = _seed_hash([*map(np.uint32, entropy), trials], np.uint32)
    w0, w1, w2, w3 = (np.broadcast_to(w, (hi - lo,)).astype(np.uint64) for w in words)
    shift = np.uint64(32)
    return np.stack([w0 | w1 << shift, w2 | w3 << shift], axis=1)


def _seed_hash(entropy: list, word) -> list:
    """SeedSequence's hashmix/mix pool and output hash on 32-bit entropy
    words, returning its four output words.

    ``word`` makes a constant of the entropy's type: ``int`` for Python
    ints, ``np.uint32`` for uint32 scalars and arrays.  Every product and
    difference is masked to 32 bits, which Python ints need and uint32
    arithmetic does by wrapping, so one body serves both.
    """
    mask, shift = word(_MASK), word(16)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ word(const)
        const = const * _MULT_A & _MASK
        value = value * word(const) & mask
        return value ^ value >> shift

    def mix(x, y):
        out = word(_MIX_L) * x - word(_MIX_R) * y & mask
        return out ^ out >> shift

    pool = [hashmix(entropy[i] if i < len(entropy) else word(0)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(value))
    const = _INIT_B
    out = []
    for value in pool:
        value = value ^ word(const)
        const = const * _MULT_B & _MASK
        value = value * word(const) & mask
        out.append(value ^ value >> shift)
    return out


FIRST_BLOCK = 64
MAX_BLOCK = 8192


class UniformBuffer:
    """Scalar uniforms on [0, 1) drawn from a Generator in blocks.

    ``next`` is the bound ``__next__`` of one iterator over blocks of 64,
    128, ... up to MAX_BLOCK uniforms, so a short trial pays only for what
    it reads and a draw is one C-level call.  Philox spends one 64-bit word
    per double, so the values equal one long ``gen.random`` call whatever
    the block sizes.  Loops take exponentials as ``-math.log1p(-u) / rate``
    (``np.log1p`` rounds differently) and indices as ``int(u * n)`` clamped
    to n - 1.
    """

    __slots__ = ("next",)

    def __init__(self, gen: Generator):
        self.next = chain.from_iterable(_blocks(lambda start, size: gen.random(size))).__next__


def trial_buffers(master_seed: int, lane: tuple[int, ...], lo: int, hi: int):
    """One ``UniformBuffer`` per trial ``lo <= t < hi``, equal draw for draw to
    ``UniformBuffer(trial_generator(master_seed, *lane, t))``.

    All of them read through one ``StreamReader`` that this call owns, so
    buffers stay exact even when read interleaved.
    """
    rows = StreamReader().rows
    for key in trial_keys(master_seed, lane, lo, hi):
        buf = UniformBuffer.__new__(UniformBuffer)
        buf.next = chain.from_iterable(_blocks(partial(_one_row, rows, [key]))).__next__
        yield buf


def _one_row(rows, keys, start: int, size: int) -> np.ndarray:
    return rows(keys, start, size)[0]


def trial_keys(master_seed: int, lane: tuple[int, ...], lo: int, hi: int):
    """The Philox keys of trials ``lo <= t < hi`` in order, as ``[k0, k1]``
    lists, derived ``KEY_BLOCK`` trials per ``stream_keys`` pass."""
    for start in range(lo, hi, KEY_BLOCK):
        yield from stream_keys(master_seed, lane, start, min(start + KEY_BLOCK, hi)).tolist()


class StreamReader:
    """Any stretch of any trial's stream, read through one reseated Philox.

    Philox makes four doubles per counter step, so a read seats the Philox
    on the stream's key at counter ``start // 4`` and drops the first
    ``start % 4`` doubles it makes: it returns the stream's doubles
    ``start, start + 1, ...`` whatever was read before, from this stream or
    another.
    """

    __slots__ = ("_random", "_bitgen", "_counter", "_state")

    def __init__(self):
        gen = Generator(Philox(0))  # its seed is never read: every read reseats the key
        self._random = gen.random
        self._bitgen = gen.bit_generator
        self._counter = [0, 0, 0, 0]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": None},
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rows(self, keys, start: int, size: int) -> np.ndarray:
        """Doubles ``start .. start + size - 1`` of each stream in ``keys``, one
        row each; the rows are a view that hides the ``start % 4`` dropped
        columns."""
        skip = start & 3
        out = np.empty((len(keys), size + skip))
        self._counter[0] = start >> 2
        state = self._state
        for key, row in zip(keys, out):
            state["state"]["key"] = key
            self._bitgen.state = state
            self._random(out=row)
        return out[:, skip:]


def _blocks(read):
    """Blocks of 64, 128, ... MAX_BLOCK uniforms as lists; ``read(start,
    size)`` returns a stream's doubles from ``start`` on."""
    block = FIRST_BLOCK
    start = 0
    while True:
        yield read(start, block).tolist()
        start += block
        block = min(2 * block, MAX_BLOCK)


def binomial_ci(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Normal-approximation confidence interval for a proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    half = z * math.sqrt(p * (1 - p) / trials)
    return max(0.0, p - half), min(1.0, p + half)
