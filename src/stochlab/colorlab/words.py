"""Finite color words and dispersed Dyck words.

A color word is a finite sequence over ``{1..q}``.  For ``q = 4`` a word is
equivalently a 2-row matrix of signs: color ``1 = (+,+)``, ``2 = (+,-)``,
``3 = (-,+)``, ``4 = (-,-)``, with the top row driving the run structure
used by the explicit cylinder-probability formula (``measure`` reads the
signs off the colors directly).

Dispersed Dyck words are stored as strings over the alphabet ``o < >``
where ``o`` is the neutral symbol; the canonical symbol order is ``o``
before ``<`` before ``>``.
"""

from __future__ import annotations

import operator
from functools import lru_cache

NEUTRAL = "o"
OPEN = "<"
CLOSE = ">"


def is_proper(letters) -> bool:
    """True when no two adjacent letters are equal."""
    return not any(map(operator.eq, letters, letters[1:]))


@lru_cache(maxsize=None)
def _enum_dispersed(length: int) -> tuple[str, ...]:
    """Every dispersed Dyck word of the given length, lexicographically.

    A dispersed Dyck word concatenates neutral symbols and complete Dyck
    words: no neutral symbol sits strictly inside a bracket pair.  The
    symbol order is neutral < open < close, and the counts for lengths 0,
    1, 2, ... run 1, 1, 2, 3, 6, 10, ... (central binomials).

    >>> _enum_dispersed(3)
    ('ooo', 'o<>', '<>o')
    """
    out: list[str] = []

    def grow(prefix: list[str], depth: int, remaining: int):
        if remaining == 0:
            if depth == 0:
                out.append("".join(prefix))
            return
        if remaining < depth:  # cannot close all brackets in time
            return
        if depth == 0:
            prefix.append(NEUTRAL)
            grow(prefix, 0, remaining - 1)
            prefix.pop()
        prefix.append(OPEN)
        grow(prefix, depth + 1, remaining - 1)
        prefix.pop()
        if depth > 0:
            prefix.append(CLOSE)
            grow(prefix, depth - 1, remaining - 1)
            prefix.pop()

    grow([], 0, length)
    return tuple(out)
