"""Reference code the tests compare the library against.

None of this is called by the library, the CLI or the benchmark: each
piece restates a definition term by term so that a test can check the
optimized code in ``src/`` against it.

* colorlab: the sign-matrix encoding of a 4-color word, the run
  decomposition of a sign row, dispersed Dyck words as validated objects,
  the run flips and boundary sign products of the explicit q=4 formula,
  the formula itself summed term by term from them, and the pushforward
  map applied word by word.  The library's formula
  (``measure._formula_numerator``) keeps each top row's Dyck-word terms
  once and reads only a sign per term off the bottom row; its pushforward
  maps whole window arrays.
* gaplab: the Dirichlet form and variance of the variational gap
  characterization, and the reduced graph embedded back on the full
  vertex set, for the reduction's monotonicity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from stochlab.colorlab import descent_set_probability, eliminate_fours_letter
from stochlab.colorlab.words import CLOSE, NEUTRAL, OPEN, _enum_dispersed
from stochlab.gaplab import GeneratorOperator, WeightedGraph, reduce_vertex

# --- colorlab ----------------------------------------------------------------

# color <-> (top sign, bottom sign) for q = 4
_COLOR_TO_SIGNS = {1: (+1, +1), 2: (+1, -1), 3: (-1, +1), 4: (-1, -1)}
_SIGNS_TO_COLOR = {signs: color for color, signs in _COLOR_TO_SIGNS.items()}


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


def to_letters(sm: SignMatrix) -> tuple[int, ...]:
    """The 4-color word whose columns are the sign matrix's columns."""
    return tuple(_SIGNS_TO_COLOR[(t, b)] for t, b in zip(sm.top, sm.bottom))


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
    """All dispersed Dyck words of the given length, lexicographically."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return [DispersedDyckWord(s) for s in _enum_dispersed(length)]


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


def reference_formula(letters) -> Fraction:
    """The q=4 formula term by term: 2^-m times the signed sum, over the
    dispersed Dyck words aligned with the m - 1 internal run boundaries of
    the top row, of (-1)^(open brackets) times the boundary sign product
    times the descent-set probability of the run-flipped top row."""
    if not letters:
        return Fraction(1)
    sm = SignMatrix.from_letters(letters)
    runs = run_decomposition(sm.top).m
    total = Fraction(0)
    for w in dispersed_dyck_words(runs - 1):
        sign = -1 if w.open_count % 2 else 1
        total += (sign * boundary_sign_product(w, sm.top, sm.bottom)
                  * descent_set_probability(flip_runs(sm.top, w)))
    return total / 2**runs


def pushforward_window(source_window: dict, n: int) -> dict:
    """The length-n image window of the four-color elimination, mapping
    each word of a length-(n+2) source window (word -> mass) one at a time
    and summing the masses that land on the same image."""
    out: dict = {}
    for word, mass in source_window.items():
        image = tuple(eliminate_fours_letter(word[i - 1], word[i], word[i + 1])
                      for i in range(1, n + 1))
        out[image] = out.get(image, 0) + mass
    return out


# --- gaplab ------------------------------------------------------------------

def dirichlet_form(op: GeneratorOperator, f) -> float:
    """Energy -<f, Qf> under the uniform measure on the state space."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.dim,):
        raise ValueError(f"test vector has shape {f.shape}, expected ({op.dim},)")
    return float(-(f @ (op.matrix @ f)) / op.dim)


def variance(f) -> float:
    """Variance of a test vector under the uniform measure."""
    f = np.asarray(f, dtype=float)
    if f.size == 0:
        raise ValueError("empty test vector")
    return float((f * f).mean() - f.mean() ** 2)


def embedded_reduced_graph(graph: WeightedGraph, i: int) -> WeightedGraph:
    """The reduced graph placed back on the full vertex set, i isolated."""
    reduced = reduce_vertex(graph, i)
    keep = [v for v in range(graph.n) if v != i]
    w = np.zeros((graph.n, graph.n))
    w[np.ix_(keep, keep)] = reduced.weights
    return WeightedGraph(w)
