"""Per-trial random streams on a counter-based generator.

Streams derive deterministically from (master seed, lane indices), so any
trial can be replayed in isolation and trials are independent regardless
of scheduling order.
"""

from __future__ import annotations

import math
from itertools import chain

from numpy.random import Generator, Philox, SeedSequence


def trial_generator(master_seed: int, *lane: int) -> Generator:
    """Independent stream for one (trial, purpose) lane of an experiment."""
    if not 0 <= master_seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return Generator(Philox(SeedSequence(entropy=(master_seed,) + tuple(lane))))


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
        self.next = chain.from_iterable(_blocks(gen)).__next__


def _blocks(gen: Generator):
    block = FIRST_BLOCK
    while True:
        yield gen.random(block).tolist()
        block = min(2 * block, MAX_BLOCK)


def binomial_ci(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Normal-approximation confidence interval for a proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    half = z * math.sqrt(p * (1 - p) / trials)
    return max(0.0, p - half), min(1.0, p + half)
