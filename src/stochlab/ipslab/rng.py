"""Per-trial random streams on a counter-based generator.

A stream is defined as ``Generator(Philox(SeedSequence((seed, *lane,
trial))))``: it derives deterministically from the master seed and its lane
indices, so any trial can be replayed in isolation and trials are
independent regardless of scheduling order.  ``trial_generator`` builds
that generator for one trial and is the reference the tests compare with;
nothing in the library draws from it, only the benchmark's first-draw
probe and the tests do.  Every stream, a single ``simulate_contact`` or
``simulate_voter`` trajectory's included, goes through the keyed reader
below.

Philox is counter-based (Salmon et al., SC 2011): a stream is its 128-bit
key plus a block counter, so any stretch of any trial's stream can be read
directly.  Estimators therefore do not build a generator per trial.
``stream_keys`` derives the keys of a whole window of trials in one
vectorized pass of the ``SeedSequence`` hash, or of a few trials from
numpy's own ``SeedSequence`` (``trial_keys`` hands them out
``KEY_BLOCK`` trials per pass), and a ``StreamReader`` owns one Philox
that it reseats to (key, counter) for each stream it reads: ``rows``
returns the same stretch of many streams as one 2-D array.  Each thread
reads through one reader of its own (``thread_reader``), built once.
``trial_buffers`` hands out one ``UniformBuffer`` per trial, reading its
blocks as one-row reads, for the contact process's event loop, which reads
a few uniforms per event; the voter kernel and the lockstep shell
(``lockstep.py``) read whole windows of trials with ``rows``.  The
values are the same as ``trial_generator``'s, bit for bit, at any worker
count.  Trial indices are single 32-bit entropy words, so at most
``MAX_TRIALS`` = 2**32 trials share a (seed, lane).

The lanes in use: () a single ``simulate_contact`` or ``simulate_voter``
trajectory, (0,) contact survival on the event loop (threshold mode, and
standard mode as the tests' witness), (1,) edge speed, (2,) consensus, (3,)
the voter side of the duality check, (4,) only the tests' witness
coalescing walks on their event loop, and on the lockstep shell (5,)
standard-mode contact survival and (6,) the duality check's coalescing walks.
"""

from __future__ import annotations

import math
import threading
from functools import partial
from itertools import chain

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

MAX_TRIALS = 2**32
KEY_BLOCK = 4096  # keys derived per pass, so memory stays flat at any trial count
# widest window keyed by numpy's SeedSequence, one trial at a time: 12-25 us
# per trial there, against 175-240 us for one uint32 pass over any window up
# to a few hundred trials (2-vCPU VM), so the two cross near 10 trials
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
    np.uint64)``, which up to ``SCALAR_TRIALS`` trials compute one trial at
    a time; a wider window runs ``_seed_hash`` once on uint32 arrays with
    one lane per trial.
    """
    _check_seed(master_seed)
    if not 0 <= lo <= hi <= MAX_TRIALS:
        raise ValueError(f"trial window [{lo}, {hi}) outside [0, 2**32)")
    if hi - lo <= SCALAR_TRIALS:
        keys = [SeedSequence((master_seed, *lane, t)).generate_state(2, np.uint64)
                for t in range(lo, hi)]
        return np.array(keys, dtype=np.uint64).reshape(hi - lo, 2)
    entropy = [np.uint32(w) for v in (master_seed, *lane) for w in _words(v)]
    trials = np.arange(lo, hi, dtype=np.uint64).astype(np.uint32)
    with np.errstate(over="ignore"):  # np.uint32 scalar products warn when they wrap
        words = _seed_hash([*entropy, trials])
    w0, w1, w2, w3 = (np.broadcast_to(w, (hi - lo,)).astype(np.uint64) for w in words)
    shift = np.uint64(32)
    return np.stack([w0 | w1 << shift, w2 | w3 << shift], axis=1)


def _seed_hash(entropy: list) -> list:
    """SeedSequence's hashmix/mix pool and output hash on uint32 entropy
    words (scalars, or arrays that broadcast), returning its four output
    words.  uint32 products and differences wrap modulo 2**32, as the hash
    defines them.
    """
    shift = np.uint32(16)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK
        value = value * np.uint32(const)
        return value ^ value >> shift

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ out >> shift

    pool = [hashmix(entropy[i] if i < len(entropy) else np.uint32(0)) for i in range(_POOL)]
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
        value = value ^ np.uint32(const)
        const = const * _MULT_B & _MASK
        value = value * np.uint32(const)
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

    def __iter__(self):
        """The iterator that ``next`` steps, for loops that read uniforms in groups."""
        return self.next.__self__


def log1p_of_negated(u: np.ndarray) -> np.ndarray:
    """``log1p(-u)`` elementwise by ``math.log1p``, in u's shape: the
    kernels' holding times, taken as the event loops take them."""
    return np.fromiter(map(math.log1p, memoryview(np.negative(u).ravel())), float,
                       u.size).reshape(u.shape)


def trial_buffers(master_seed: int, lane: tuple[int, ...], lo: int, hi: int):
    """One ``UniformBuffer`` per trial ``lo <= t < hi``, equal draw for draw to
    ``UniformBuffer(trial_generator(master_seed, *lane, t))``.

    Each block is read through the reading thread's ``StreamReader``, which
    reseats for every read, so buffers stay exact even when read interleaved.
    """
    for key in trial_keys(master_seed, lane, lo, hi):
        buf = UniformBuffer.__new__(UniformBuffer)
        buf.next = chain.from_iterable(_blocks(partial(_one_row, [key]))).__next__
        yield buf


def _one_row(keys, start: int, size: int) -> np.ndarray:
    return thread_reader().rows(keys, start, size)[0]


def trial_keys(master_seed: int, lane: tuple[int, ...], lo: int, hi: int):
    """The Philox keys of trials ``lo <= t < hi`` in order, as ``[k0, k1]``
    lists, derived ``KEY_BLOCK`` trials per ``stream_keys`` pass."""
    for start in range(lo, hi, KEY_BLOCK):
        yield from stream_keys(master_seed, lane, start, min(start + KEY_BLOCK, hi)).tolist()


_local = threading.local()


def thread_reader() -> StreamReader:
    """The calling thread's ``StreamReader``, built on its first read.  A
    reader seats its Philox afresh for every read, so one per thread is
    exact whatever was read through it before."""
    reader = getattr(_local, "reader", None)
    if reader is None:
        reader = _local.reader = StreamReader()
    return reader


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


def binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    """Normal-approximation 95% confidence interval for a proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    half = 1.96 * math.sqrt(p * (1 - p) / trials)
    return max(0.0, p - half), min(1.0, p + half)
