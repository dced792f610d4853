"""Exact descent-set statistics for uniformly random permutations."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial


@lru_cache(maxsize=None)
def descent_count(n: int, descents: int) -> int:
    """Number of permutations of ``{1..n+1}`` whose descent set is exactly
    the set bits of ``descents`` (bit ``i`` is a descent between positions
    ``i+1`` and ``i+2``).

    Inserts one value at a time, tracking how many arrangements end at
    each relative rank: after an ascent the new last value ranks above the
    old one, after a descent below it.  O(n^2) additions.
    """
    ways = [1]
    for i in range(n):
        if descents >> i & 1:
            ways = list(accumulate(reversed(ways)))[::-1] + [0]
        else:
            ways = [0, *accumulate(ways)]
    return sum(ways)


def descent_set_probability(signs: tuple[int, ...]) -> Fraction:
    """Probability that a uniform permutation of ``{1..n+1}`` has descents
    exactly at the minus positions of an n-long sign sequence.

    All arithmetic is exact.  The empty sequence gives 1 (the one
    permutation of a single element has no descents).

    >>> descent_set_probability((+1,))
    Fraction(1, 2)
    >>> descent_set_probability((-1, -1))
    Fraction(1, 6)
    """
    descents = sum(1 << i for i, s in enumerate(signs) if s == -1)
    return Fraction(descent_count(len(signs), descents), factorial(len(signs) + 1))
