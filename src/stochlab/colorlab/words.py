"""Finite color words, their sign-matrix encoding, and dispersed Dyck words.

A color word is a finite sequence over ``{1..q}``.  For ``q = 4`` a word is
equivalently a 2-row matrix of signs: color ``1 = (+,+)``, ``2 = (+,-)``,
``3 = (-,+)``, ``4 = (-,-)``, with the top row driving the run structure
used by the explicit cylinder-probability formula.

Signs are stored as integers ``+1`` / ``-1``.  Dispersed Dyck words are
stored as strings over the alphabet ``o < >`` where ``o`` is the neutral
symbol; the canonical symbol order is ``o`` before ``<`` before ``>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

NEUTRAL = "o"
OPEN = "<"
CLOSE = ">"

# color <-> (top sign, bottom sign) for q = 4
_COLOR_TO_SIGNS = {1: (+1, +1), 2: (+1, -1), 3: (-1, +1), 4: (-1, -1)}
_SIGNS_TO_COLOR = {v: k for k, v in _COLOR_TO_SIGNS.items()}


def is_proper(letters) -> bool:
    """True when no two adjacent letters are equal."""
    return all(a != b for a, b in zip(letters, letters[1:]))


@dataclass(frozen=True)
class SignMatrix:
    """Two aligned sign rows encoding a 4-color word column by column."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        if len(self.top) != len(self.bottom):
            raise ValueError("rows must have equal length")
        for s in self.top + self.bottom:
            if s not in (+1, -1):
                raise ValueError(f"signs must be +1/-1, got {s!r}")

    @classmethod
    def from_letters(cls, letters) -> "SignMatrix":
        cols = [_COLOR_TO_SIGNS[a] for a in letters]
        return cls(tuple(c[0] for c in cols), tuple(c[1] for c in cols))

    def to_letters(self) -> tuple[int, ...]:
        return tuple(_SIGNS_TO_COLOR[(t, b)] for t, b in zip(self.top, self.bottom))


@dataclass(frozen=True)
class RunDecomposition:
    """Maximal constant runs of a sign sequence.

    ``boundaries[j]`` is the 0-based index of the last position of run
    ``j``; the boundary sits between that position and the next one.
    """

    runs: tuple[tuple[int, int], ...]  # (sign, length)
    boundaries: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        ends, pos = [], 0
        for _, length in self.runs:
            pos += length
            ends.append(pos - 1)
        object.__setattr__(self, "boundaries", tuple(ends[:-1]))

    @property
    def m(self) -> int:
        return len(self.runs)


def run_decomposition(signs) -> RunDecomposition:
    """Split a nonempty sign sequence into alternating runs."""
    signs = tuple(signs)
    if not signs:
        raise ValueError("empty sign sequence has no runs")
    runs = []
    cur, count = signs[0], 1
    for s in signs[1:]:
        if s == cur:
            count += 1
        else:
            runs.append((cur, count))
            cur, count = s, 1
    runs.append((cur, count))
    return RunDecomposition(tuple(runs))


@dataclass(frozen=True)
class DispersedDyckWord:
    """A concatenation of neutral symbols and complete Dyck words.

    Neutral symbols may not appear strictly inside a bracket pair, and the
    brackets must be balanced and well nested.

    >>> DispersedDyckWord("o<>").open_count
    1
    """

    symbols: str

    def __post_init__(self):
        if not _is_dispersed_dyck(self.symbols):
            raise ValueError(f"not a dispersed Dyck word: {self.symbols!r}")

    @property
    def open_count(self) -> int:
        return self.symbols.count(OPEN)


def _is_dispersed_dyck(symbols: str) -> bool:
    depth = 0
    for ch in symbols:
        if ch == OPEN:
            depth += 1
        elif ch == CLOSE:
            depth -= 1
            if depth < 0:
                return False
        elif ch == NEUTRAL:
            if depth != 0:  # neutral only at top level
                return False
        else:
            return False
    return depth == 0


def dispersed_dyck_words(length: int) -> list[DispersedDyckWord]:
    """All dispersed Dyck words of the given length, lexicographically.

    The symbol order is neutral < open < close.  The count for lengths
    0, 1, 2, ... runs 1, 1, 2, 3, 6, 10, ... (central binomials).
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    return [DispersedDyckWord(s) for s in _enum_dispersed(length)]


@lru_cache(maxsize=None)
def _enum_dispersed(length: int) -> tuple[str, ...]:
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


def flip_runs(signs, word: DispersedDyckWord) -> tuple[int, ...]:
    """Sign-flip runs of ``signs`` according to a dispersed Dyck word.

    The word's symbols align with the internal run boundaries, in order.
    Run 1 is never flipped; each non-neutral symbol toggles the flip state
    of the following run.  A boundary survives in the result exactly when
    its symbol is neutral.
    """
    signs = tuple(signs)
    dec = run_decomposition(signs)
    if len(word.symbols) != dec.m - 1:
        raise ValueError(
            f"word length {len(word.symbols)} != number of internal boundaries {dec.m - 1}"
        )
    out = []
    flip = False
    for j, (sign, length) in enumerate(dec.runs):
        if j > 0 and word.symbols[j - 1] != NEUTRAL:
            flip = not flip
        out.extend([-sign if flip else sign] * length)
    return tuple(out)


def boundary_sign_product(word: DispersedDyckWord, top, bottom) -> int:
    """Product of bottom-row signs picked at the run boundaries of the top row.

    An open bracket picks the bottom sign immediately left of its boundary,
    a close bracket the sign immediately right; neutral symbols contribute
    nothing.  Returns +1 or -1 (+1 for the empty product).
    """
    top, bottom = tuple(top), tuple(bottom)
    if len(top) != len(bottom):
        raise ValueError("rows must have equal length")
    dec = run_decomposition(top)
    if len(word.symbols) != dec.m - 1:
        raise ValueError(
            f"word length {len(word.symbols)} != number of internal boundaries {dec.m - 1}"
        )
    prod = 1
    for j, ch in enumerate(word.symbols):
        left = dec.boundaries[j]  # last index of run j+1 (0-based)
        if ch == OPEN:
            prod *= bottom[left]
        elif ch == CLOSE:
            prod *= bottom[left + 1]
    return prod
