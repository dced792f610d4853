"""Per-trial random streams on a counter-based generator.

Streams derive deterministically from (master seed, lane indices), so any
trial can be replayed in isolation and trials are independent regardless
of scheduling order.
"""

from __future__ import annotations

import math

import numpy as np
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

    The first block holds FIRST_BLOCK uniforms and each refill doubles it
    up to MAX_BLOCK, so a short trial pays only for what it reads.  Philox
    spends one 64-bit word per double, so the values equal one long
    ``gen.random`` call whatever the block sizes.
    """

    __slots__ = ("_gen", "_block", "_buf", "_pos")

    def __init__(self, gen: Generator):
        self._gen = gen
        self._block = FIRST_BLOCK
        self._buf: list[float] = []
        self._pos = 0

    def next(self) -> float:
        if self._pos == len(self._buf):
            self._buf = self._gen.random(self._block).tolist()
            self._block = min(2 * self._block, MAX_BLOCK)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def exponential(self, rate: float) -> float:
        return -math.log1p(-self.next()) / rate

    def below(self, n: int) -> int:
        """Uniform integer in 0..n-1."""
        i = int(self.next() * n)
        return n - 1 if i >= n else i  # u*n can round up to n at the float edge


def binomial_ci(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Normal-approximation confidence interval for a proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    half = z * math.sqrt(p * (1 - p) / trials)
    return max(0.0, p - half), min(1.0, p + half)
