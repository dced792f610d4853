"""Exact sequential sampling from a cylinder measure.

Each letter is drawn from the conditional law given the sampled prefix.
The numerators of the extensions of a prefix, over their length's one
denominator and divided by their gcd with it, are integer weights compared
against a uniform random integer, so the sampled law is the cylinder law
exactly (no float thresholds).  Deterministic per seed.
"""

from __future__ import annotations

import random
from math import gcd


def sample_windows(measure, n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Draw ``count`` independent length-n words; deterministic given seed."""
    if n < 0:
        raise ValueError("window length must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(seed)
    thresholds: dict[tuple[int, ...], tuple[list[int], int]] = {}

    def weights_for(prefix):
        got = thresholds.get(prefix)
        if got is None:
            # the prefix is proper, so u.a is improper only when a repeats its last letter
            numerators = [0 if prefix and a == prefix[-1] else measure._numerator(prefix + (a,))
                          for a in range(1, measure.q + 1)]
            g = gcd(*numerators, measure._denominator(len(prefix) + 1))
            ws = [v // g for v in numerators]
            got = thresholds[prefix] = (ws, sum(ws))
        return got

    out = []
    for _ in range(count):
        word: tuple[int, ...] = ()
        for _ in range(n):
            ws, total = weights_for(word)
            r = rng.randrange(total)
            a = 0
            while r >= ws[a]:
                r -= ws[a]
                a += 1
            word = word + (a + 1,)
        out.append(word)
    return out
