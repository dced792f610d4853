"""Exact cylinder probabilities of the stationary proper q-colorings.

Two constructions of the same family of measures, each giving a length-n
word's probability as an integer over one denominator per length:

* ``recursion``: the deletion recursion.  The chain count N has N(()) = 1
  and N(w) = sum of N(w - i) over the proper one-letter deletions w - i;
  a proper word has probability N(w)/T_n, with T_n the sum of N over all
  proper words of length n (total mass one, solved, never assumed).  The
  normalizer T_{n-1}/T_n is cross-checked against the conjectured closed
  form ``1/(n(q-2)+2)``.

* ``formula``: for ``q = 4`` only, the explicit sign-matrix formula: a
  signed sum over dispersed Dyck words of run-flip descent-set counts.  It
  shares no table with the recursion, so the two check each other.

Everything in this module is exact integer/rational arithmetic; floats
never appear.  Memo tables are plain dicts: reads and same-key inserts are
atomic under the GIL and every key maps to a unique value, so concurrent
use from threads is safe and agrees with sequential evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .descent import descent_count
from .words import CLOSE, NEUTRAL, OPEN, SignMatrix, _enum_dispersed, is_proper

ZERO = Fraction(0)

# range over which the conjectured closed-form normalizer must agree with
# the mass-one computation (a mismatch aborts the run)
NORMALIZER_CHECK_Q = range(2, 7)
NORMALIZER_CHECK_N = 10


class NormalizerMismatchError(RuntimeError):
    """The mass-computed normalizer disagrees with the closed form."""


def canonical_form(letters) -> tuple[int, ...]:
    """Relabel colors by order of first appearance (1, 2, ...)."""
    relabel: dict[int, int] = {}
    out = []
    for a in letters:
        if a not in relabel:
            relabel[a] = len(relabel) + 1
        out.append(relabel[a])
    return tuple(out)


def proper_words(q: int, n: int):
    """Yield every proper word of length n over {1..q}, lexicographically."""
    if n == 0:
        yield ()
        return
    word = [0] * n
    # depth-first on an explicit stack, so the length is not bounded by recursion
    letters = range(q, 0, -1)  # pushed in reverse, popped in lexicographic order
    stack = [(0, a) for a in letters]  # (position, letter)
    while stack:
        i, a = stack.pop()
        word[i] = a
        if i == n - 1:
            yield tuple(word)
            continue
        for b in letters:
            if b != a:
                stack.append((i + 1, b))


def _canonical_proper_words(q: int, n: int):
    """Yield (word, orbit size q!/(q-d)! for d colors) over the canonical
    representatives of the color-permutation orbits of length-n proper words."""
    if n == 0:
        yield (), 1
        return
    word = [0] * n
    stack = [(0, 1, 1)]  # (position, letter, colors used through it)
    while stack:
        i, a, used = stack.pop()
        word[i] = a
        if i == n - 1:
            yield tuple(word), perm(q, used)
            continue
        for b in range(min(used + 1, q), 0, -1):
            if b != a:
                stack.append((i + 1, b, b if b > used else used))


def memo_fits(q: int, n: int, budget: int) -> bool:
    """Whether the recursion's memo through length n fits in ``budget`` bytes.

    The memo holds the empty word and every canonical proper word of each
    length 1..n; a canonical word of length L using d colors extends to
    d - 1 words that reuse a color and, if d < q, one that opens color
    d + 1.  An entry of length L is charged 160 + 8L bytes: tracemalloc
    measured 107-232 bytes per entry (its key tuple, 40 + 8L, its count
    and its dict slot) for q = 3 up to length 14, q = 4 up to 12 and
    q = 6 up to 8.  Counting stops at the budget, so a huge n is refused
    without a long loop.
    """
    by_colors = [1] + [0] * q  # canonical words of the current length, by colors used
    used = 160
    for length in range(1, n + 1):
        by_colors = [0] + [by_colors[d] * (d - 1) + by_colors[d - 1] for d in range(1, q + 1)]
        used += sum(by_colors) * (160 + 8 * length)
        if used > budget:
            return False
    return used <= budget


class CylinderMeasure:
    """Memoized exact map from color words to cylinder probabilities.

    ``source`` selects the construction ('recursion' for any q >= 2,
    'formula' for q = 4); ``prob`` reduces an integer over the length's one
    denominator once, at the API boundary.  The recursion's ``table`` holds
    chain counts N keyed by ``canonical_form`` (N is invariant under
    relabeling colors) and T_n sums orbit size times N over those keys.
    The formula's holds numerators over (n+1)! 2^n keyed by the word.
    """

    def __init__(self, q: int, source: str = "recursion"):
        if q < 2:
            raise ValueError(f"need at least 2 colors, got q={q}")
        if source not in ("recursion", "formula"):
            raise ValueError(f"unknown source {source!r}")
        if source == "formula" and q != 4:
            raise ValueError("the explicit formula is only defined for q=4")
        self.q = q
        self.source = source
        self.table: dict[tuple[int, ...], int] = {(): 1}
        self._totals: dict[int, int] = {0: 1}  # recursion: T_n by length

    def prob(self, letters) -> Fraction:
        """Exact probability of observing ``letters`` in a window.

        Improper words have probability 0 under either construction (the
        raw formula is only asserted on proper words; as a measure value
        the improper mass is zero).
        """
        letters = tuple(letters)
        for a in letters:
            if not 1 <= a <= self.q:
                raise ValueError(f"letter {a} outside 1..{self.q}")
        if not is_proper(letters):
            return ZERO
        return Fraction(self._numerator(letters), self._denominator(len(letters)))

    def _numerator(self, letters: tuple[int, ...]) -> int:
        if self.source == "formula":
            value = self.table.get(letters)
            if value is None:
                value = self.table[letters] = _formula_numerator(letters)
            return value
        self._total(len(letters))
        return self.table[canonical_form(letters)]

    def _denominator(self, n: int) -> int:
        if self.source == "formula":
            return factorial(n + 1) << n
        return self._total(n)

    def _total(self, n: int) -> int:
        """T_n, after storing N for every canonical proper word of each
        length up to n, shortest first."""
        for length in range(len(self._totals), n + 1):
            total = 0
            for word, orbit in _canonical_proper_words(self.q, length):
                count = 0
                for i in range(length):
                    # deleting an interior letter joins its two neighbors
                    if 0 < i < length - 1 and word[i - 1] == word[i + 1]:
                        continue
                    count += self.table[canonical_form(word[:i] + word[i + 1:])]
                self.table[word] = count
                total += orbit * count
            previous = self._totals[length - 1]
            closed = length * (self.q - 2) + 2  # T_{n-1}/T_n = 1/closed
            if (self.q in NORMALIZER_CHECK_Q and length <= NORMALIZER_CHECK_N
                    and total != closed * previous):
                raise NormalizerMismatchError(
                    f"normalizer mismatch at q={self.q}, n={length}: "
                    f"mass-one gives {Fraction(previous, total)}, closed form gives 1/{closed}"
                )
            self._totals[length] = total
        return self._totals[n]

    def normalizer(self, n: int) -> Fraction:
        """c_n = T_{n-1}/T_n, with p(w) = c_n * sum of p(w - i) over proper
        deletions, solved from total mass one.  For q in 2..6 and n <= 10 it
        is checked against 1/(n(q-2)+2) when T_n is first built; a mismatch
        raises NormalizerMismatchError."""
        if self.source == "formula":
            raise ValueError("normalizers belong to the recursion construction")
        if n < 1:
            raise ValueError("normalizers are defined for lengths >= 1")
        return Fraction(self._total(n - 1), self._total(n))

    def window(self, n: int) -> dict[tuple[int, ...], Fraction]:
        """Probabilities of every proper word of length n (improper omitted)."""
        return {w: self.prob(w) for w in proper_words(self.q, n)}

    def scaled_window(self, n: int) -> tuple[dict[tuple[int, ...], int], int]:
        """Every proper word of length n mapped to its integer numerator,
        with the one denominator of length n (T_n for the recursion)."""
        return ({w: self._numerator(w) for w in proper_words(self.q, n)},
                self._denominator(n))


def _formula_numerator(letters: tuple[int, ...]) -> int:
    """The q=4 formula on a proper word of length n, over (n+1)! 2^n.

    One pass over each dispersed Dyck word aligned with the internal run
    boundaries of the top row yields both the descent set of the flipped
    row and the product of the bottom signs its brackets pick.
    """
    n = len(letters)
    if n == 0:
        return 1
    sm = SignMatrix.from_letters(letters)
    top, bottom = sm.top, sm.bottom
    # per run: its positions as a bitmask, whether its sign is minus, and
    # the bottom signs left and right of the boundary that opens it (never
    # read for the first run, which gets a neutral symbol below)
    runs: list[tuple[int, bool, int, int]] = []
    start = 0
    for i in range(1, n + 1):
        if i == n or top[i] != top[i - 1]:
            runs.append(((1 << i) - (1 << start), top[start] < 0,
                         bottom[start - 1], bottom[start]))
            start = i
    total = 0
    for symbols in _enum_dispersed(len(runs) - 1):
        flip, coeff, descents = False, 1, 0
        for ch, (bits, minus, left, right) in zip(NEUTRAL + symbols, runs):
            # an open bracket contributes -1 times the bottom sign left of
            # its boundary, a close bracket the sign right of it; either one
            # flips every later run
            if ch == OPEN:
                flip = not flip
                coeff = -coeff * left
            elif ch == CLOSE:
                flip = not flip
                coeff *= right
            if minus != flip:
                descents |= bits
        total += coeff * descent_count(n, descents)
    return total << (n - len(runs))


def formula_table_bytes(letters) -> int:
    """Bytes of the tables the q=4 formula keeps after evaluating ``letters``.

    With m internal run boundaries in the top sign row (the top sign is +
    for colors 1 and 2), ``_enum_dispersed`` caches all C(m, m // 2)
    dispersed Dyck words of length m, and ``descent_count`` at most one
    count per word.  A length-n word charges each Dyck word
    160 + n * n.bit_length() / 8 bytes (a count is below (n+1)!, so it has
    about n log2(n) bits): tracemalloc measured 87-182 bytes per
    Dyck word (its string, its tuple slot and its share of the counts) for
    alternating 13... words of 16-22 letters and for words of 30-100
    letters with 10-15 boundaries.
    """
    n = len(letters)
    m = sum((a > 2) != (b > 2) for a, b in zip(letters, letters[1:]))
    return comb(m, m // 2) * (160 + n * n.bit_length() // 8)


def formula_cylinder_probability(letters) -> Fraction:
    """Evaluate the explicit q=4 formula on a proper word.

    The word is encoded as a sign matrix; with m runs in the top row, the
    value is 2^-m times the signed sum, over dispersed Dyck words aligned
    with the run boundaries, of the boundary sign product times the
    descent-set probability of the run-flipped top row.  Improper input is
    rejected: the formula is asserted for proper colorings only.
    """
    letters = tuple(letters)
    for a in letters:
        if not 1 <= a <= 4:
            raise ValueError(f"letter {a} outside 1..4")
    if not is_proper(letters):
        raise ValueError(f"improper word {letters}: the formula requires a proper coloring")
    return Fraction(_formula_numerator(letters), factorial(len(letters) + 1) << len(letters))


_RECURSION_MEASURES: dict[int, CylinderMeasure] = {}


def recursion_measure(q: int) -> CylinderMeasure:
    """Shared per-q recursion measure (memo persists across calls)."""
    m = _RECURSION_MEASURES.get(q)
    if m is None:
        m = _RECURSION_MEASURES[q] = CylinderMeasure(q, "recursion")
    return m


def marginalize(measure: CylinderMeasure, pattern) -> Fraction:
    """Probability of a window pattern with wildcards (None) summed out.

    The literal definition: the sum of ``measure.prob`` over every way of
    filling the wildcard positions with colors.
    """
    pattern = tuple(pattern)
    holes = [i for i, a in enumerate(pattern) if a is None]
    filled = list(pattern)
    total = ZERO
    # depth-first on an explicit stack of (holes filled, color of the last
    # one), so the number of holes is not bounded by recursion
    stack = [(0, None)]
    while stack:
        h, color = stack.pop()
        if h:
            filled[holes[h - 1]] = color
        if h == len(holes):
            total += measure.prob(tuple(filled))
            continue
        i = holes[h]
        for a in range(1, measure.q + 1):
            # skip completions that are already improper at this hole (a
            # hole to its right is still open)
            if i > 0 and filled[i - 1] == a:
                continue
            if i + 1 < len(pattern) and pattern[i + 1] == a:
                continue
            stack.append((h + 1, a))
    return total
