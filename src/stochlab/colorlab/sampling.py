"""Exact sampling of windows by uniform random proper insertion.

The chain count N(w) is the number of ways to build w from the empty word
by inserting one letter at a time, every word on the way proper (Holroyd &
Liggett, Forum Math. Pi 4, 2016).  A proper word of length m admits exactly
(m+1)(q-2)+2 proper insertions, whatever its letters: q-1 colors at either
end, q-2 at each of its m-1 interior gaps, q into the empty word.  No two
give the same word (two positions whose deletions agree enclose a run of
equal letters), so one uniform insertion per step gives w probability
N(w)/T_n, T_n the product of the counts: the window law of either
construction, exactly, with no table, at any length.  Deterministic per seed.
"""

from __future__ import annotations

import random


def sample_windows(measure, n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Draw ``count`` independent length-n words; reads only ``measure.q``."""
    if n < 0:
        raise ValueError("window length must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    # random.Random seeds an int by its absolute value and a float by its
    # hash modulo 2**64, so a negative seed would alias a nonnegative one
    if isinstance(seed, (int, float)) and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    q = measure.q
    draw = random.Random(seed).randrange
    out = []
    for _ in range(count):
        word = [q + 1, q + 1]  # a phantom color q + 1 at either end excludes no color
        for m in range(n):
            right = m * (q - 2) + 1  # gaps left to right take q - 1, q - 2 each, q - 1
            r = draw(right + q - 1)
            if m == 0 or r < q - 1:
                gap = 0
            elif r >= right:
                gap, r = m, r - right
            else:
                gap, r = divmod(r - (q - 1), q - 2)
                gap += 1
            lo, hi = word[gap], word[gap + 1]
            if lo > hi:
                lo, hi = hi, lo
            color = r + 1  # the (r+1)-th color that neither neighbor has
            color += color >= lo
            color += color >= hi
            word.insert(gap + 1, color)
        out.append(tuple(word[1:-1]))
    return out
