"""Exact cylinder probabilities of the stationary proper q-colorings.

Two constructions of the same family of measures, each giving a length-n
word's probability as an integer over one denominator per length:

* ``recursion``: the deletion recursion.  The chain count N has N(()) = 1
  and N(w) = sum of N(w - i) over the proper one-letter deletions w - i;
  a proper word has probability N(w)/T_n, with T_n the sum of N over all
  proper words of length n (total mass one, solved, never assumed).  The
  normalizer T_{n-1}/T_n is checked against the closed form
  ``1/(n(q-2)+2)`` at every length the recursion builds.

* ``formula``: for ``q = 4`` only, the explicit sign-matrix formula: a
  signed sum over dispersed Dyck words of run-flip descent-set counts.  It
  shares no table with the recursion, so the two check each other.  The
  Dyck-word terms depend on the word only through its top sign row, up to
  a sign read off the bottom row, so they are kept once per top row.

``window_array(n)`` gives every word of length n at once: a ``(q,) * n``
int64 array of numerators (zero at improper words, indexed by colors
minus one) and the length's denominator.  The recursion builds it length
by length by broadcasting: N_n = P_n * sum_i E_i(N_{n-1}), where E_i
inserts axis i and P_n masks improper words.  An interior deletion that
joins two equal letters lands on an improper word, where N_{n-1} is
already zero, so E_i needs no mask of its own.  Counting the insertions
that undo a deletion gives T_n = (n(q-2)+2) T_{n-1} (``_window_total``),
so a window whose denominator would reach 2**63 is refused before it is
built; below that every entry and every sum of entries is exact in int64.
The formula fills no array: it evaluates single words, and never reads
the recursion's numerators.

Everything in this module is exact integer/rational arithmetic; floats
never appear.  Memo tables are plain dicts: reads and same-key inserts are
atomic under the GIL and every key maps to a unique value, so concurrent
use from threads is safe and agrees with sequential evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, perm

import numpy as np

from .descent import descent_count
from .words import CLOSE, NEUTRAL, OPEN, _enum_dispersed, is_proper

ZERO = Fraction(0)


class NormalizerMismatchError(RuntimeError):
    """The mass-computed normalizer disagrees with the closed form."""


def _check_normalizer(q: int, n: int, previous: int, total: int):
    """Raise NormalizerMismatchError unless T_n = (n(q-2)+2) T_{n-1}."""
    closed = n * (q - 2) + 2  # T_{n-1}/T_n = 1/closed
    if total != closed * previous:
        raise NormalizerMismatchError(
            f"normalizer mismatch at q={q}, n={n}: "
            f"mass-one gives {Fraction(previous, total)}, closed form gives 1/{closed}"
        )


def _window_total(q: int, n: int) -> int:
    """T_n = prod over k = 1..n of (k(q-2)+2), the denominator of a
    length-n window; (n+1)! 2^n at q = 4.

    Each proper word of length n-1 comes back from q-1 insertions at either
    end and q-2 at each of the n-2 interior gaps, so summing the deletion
    recursion over all proper words of length n gives
    T_n = (n(q-2)+2) T_{n-1}, for every q >= 2 and n >= 1.
    """
    total = 1
    for k in range(1, n + 1):
        total *= k * (q - 2) + 2
    return total


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
    return _completions(q, (None,) * n)


def _completions(q: int, pattern):
    """Yield, lexicographically, every proper word over {1..q} that has
    ``pattern``'s letters wherever the pattern is not None."""
    n = len(pattern)
    if n == 0:
        yield ()
        return
    # after[i][a]: stack entries (i, b) for each letter b that position i may
    # take after letter a (a = 0 at the start), reversed to pop in lexicographic
    # order; a fixed letter allows only itself and bars itself from its left neighbor
    after = []
    for i, (fixed, right) in enumerate(zip(pattern, pattern[1:] + (None,))):
        allowed = range(q, 0, -1) if fixed is None else (fixed,)
        after.append([tuple((i, b) for b in allowed if b != a and b != right)
                      for a in range(q + 1)])
    word = [0] * n
    # depth-first on an explicit stack, so the length is not bounded by recursion
    stack = list(after[0][0])
    while stack:
        i, a = stack.pop()
        word[i] = a
        if i == n - 1:
            yield tuple(word)
        else:
            stack.extend(after[i + 1][a])


def _canonical_proper_words(q: int, n: int):
    """Yield (word, orbit size q!/(q-d)! for d colors) over the canonical
    representatives of the color-permutation orbits of length-n proper words,
    n >= 1."""
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
    denominator once, at the API boundary.  ``table`` belongs to the
    recursion alone: it holds chain counts N keyed by ``canonical_form``
    (N is invariant under relabeling colors).  ``_totals`` holds T_n by
    length: the recursion sums orbit size times N over those keys, the
    formula takes (n+1)! 2^n once per length it evaluates.  The formula
    evaluates each word afresh from its per-top-row cache
    (``_top_row_terms``) and fills no array: ``window_array`` keeps the
    recursion's per length, apart from ``table``.
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
        self._totals: dict[int, int] = {0: 1}  # T_n by length
        # window_array: (numerators, denominator) by length
        self._arrays = {0: (_frozen(np.ones((), dtype=np.int64)), 1)}

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
        denominator = self._denominator(len(letters))
        return Fraction(self._numerator(letters), denominator)

    def _numerator(self, letters: tuple[int, ...]) -> int:
        """Over ``_denominator(len(letters))``, which the recursion must
        have read first: it builds the table through that length."""
        if self.source == "formula":
            return _formula_numerator(letters)
        return self.table[canonical_form(letters)]

    def _denominator(self, n: int) -> int:
        if self.source == "formula":
            total = self._totals.get(n)
            if total is None:
                total = self._totals[n] = _window_total(4, n)
            return total
        return self._total(n)

    def _total(self, n: int) -> int:
        """T_n, after storing N for every canonical proper word of each
        length up to n, shortest first."""
        for length in range(len(self._totals), n + 1):
            total = 0
            for word, orbit in _canonical_proper_words(self.q, length):
                count = seen = 0  # seen: the highest color left of position i
                for i, a in enumerate(word):
                    # deleting an interior letter joins its two neighbors
                    if not (0 < i < length - 1 and word[i - 1] == word[i + 1]):
                        rest = word[:i] + word[i + 1:]
                        # only deleting a color's first letter can relabel the
                        # colors after it; any other deletion stays canonical
                        count += self.table[canonical_form(rest) if a > seen else rest]
                    if a > seen:
                        seen = a
                self.table[word] = count
                total += orbit * count
            _check_normalizer(self.q, length, self._totals[length - 1], total)
            self._totals[length] = total
        return self._totals[n]

    def normalizer(self, n: int) -> Fraction:
        """c_n = T_{n-1}/T_n, with p(w) = c_n * sum of p(w - i) over proper
        deletions, solved from total mass one.  At every length the recursion
        builds it is checked against 1/(n(q-2)+2), one integer product; a
        mismatch raises NormalizerMismatchError."""
        if self.source == "formula":
            raise ValueError("normalizers belong to the recursion construction")
        if n < 1:
            raise ValueError("normalizers are defined for lengths >= 1")
        return Fraction(self._total(n - 1), self._total(n))

    def window_array(self, n: int) -> tuple[np.ndarray, int]:
        """Numerators of every word of length n as a read-only ``(q,) * n``
        int64 array indexed by colors minus one (zero at improper words),
        and the one denominator of length n (for the recursion, the array's
        own sum T_n).

        Raises ValueError on the formula and when that denominator would reach 2**63.
        """
        if self.source == "formula":
            raise ValueError("window arrays belong to the recursion construction")
        if n < 0:
            raise ValueError("window length must be nonnegative")
        got = self._arrays.get(n)
        if got is None:
            if _window_total(self.q, n) >= 2**63:
                raise ValueError(f"window length {n} at q={self.q}: its denominator reaches "
                                 "2**63, past the exact int64 window arrays")
            for length in range(len(self._arrays), n + 1):
                got = self._arrays[length] = self._extend(*self._arrays[length - 1])
        return got

    def _extend(self, prev: np.ndarray, previous: int) -> tuple[np.ndarray, int]:
        """(N_n, T_n) from (N_{n-1}, T_{n-1}): the sum over deletion
        positions i of N_{n-1} broadcast along a new axis i, zeroed at
        improper words."""
        n, q = prev.ndim + 1, self.q
        out = np.zeros((q,) * n, dtype=np.int64)
        for i in range(n):
            out += np.expand_dims(prev, i)
        differ = ~np.eye(q, dtype=bool)
        for i in range(n - 1):
            out *= differ.reshape((1,) * i + (q, q) + (1,) * (n - i - 2))
        total = int(out.sum())
        _check_normalizer(q, n, previous, total)
        return _frozen(out), total

    def scaled_window(self, n: int) -> tuple[dict[tuple[int, ...], int], int]:
        """Every proper word of length n mapped to its integer numerator,
        with the one denominator of length n: ``window_array`` as a dict."""
        return _as_dict(*self.window_array(n))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _as_dict(array: np.ndarray, denom: int) -> tuple[dict[tuple[int, ...], int], int]:
    """The nonzero entries of a window array keyed by their words, in
    lexicographic order, with the denominator."""
    if array.ndim == 0:
        return ({(): int(array)} if array else {}), denom
    index = np.nonzero(array)
    words = (np.stack(index, axis=-1) + 1).tolist()
    return dict(zip(map(tuple, words), array[index].tolist())), denom


def _formula_numerator(letters: tuple[int, ...]) -> int:
    """The q=4 formula on a proper word of length n, over (n+1)! 2^n.

    The top sign is - for colors 3 and 4, the bottom sign for colors 2 and
    4.  An open bracket at a run boundary contributes -1 times the bottom
    sign left of it, a close bracket the bottom sign right of it, so a
    Dyck word's term is its top-row count, negated when an odd number of
    its open brackets have + on the left and its close brackets - on the
    right.
    """
    n = len(letters)
    if n == 0:
        return 1
    top = 0
    for i, a in enumerate(letters):
        if a > 2:
            top |= 1 << i
    starts, terms = _top_row_terms(n, top)
    left_plus = right_minus = 0
    for j, start in enumerate(starts):
        if letters[start - 1] & 1:
            left_plus |= 1 << j
        if not letters[start] & 1:
            right_minus |= 1 << j
    total = 0
    for opens, closes, count in terms:
        if ((opens & left_plus).bit_count() + (closes & right_minus).bit_count()) & 1:
            total -= count
        else:
            total += count
    return total << (n - len(starts) - 1)


@lru_cache(maxsize=None)
def _top_row_terms(n: int, top: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """What the formula needs of a top sign row (bit i set where position i
    is -): the first position of every run after the first, and for each
    dispersed Dyck word aligned with those run boundaries, its open and
    close brackets as boundary bitmasks with the descent count of the
    row whose runs it flips.

    Run 1 is never flipped, and each bracket flips every later run.
    """
    starts = tuple(i for i in range(1, n) if (top >> i ^ top >> (i - 1)) & 1)
    runs = []  # per run: its positions as a bitmask, whether its sign is minus
    for first, end in zip((0, *starts), (*starts, n)):
        runs.append(((1 << end) - (1 << first), bool(top >> first & 1)))
    terms = []
    for symbols in _enum_dispersed(len(starts)):
        flip, opens, closes = False, 0, 0
        descents = runs[0][0] if runs[0][1] else 0
        for j, ch in enumerate(symbols):
            if ch == OPEN:
                opens |= 1 << j
            elif ch == CLOSE:
                closes |= 1 << j
            if ch != NEUTRAL:
                flip = not flip
            bits, minus = runs[j + 1]
            if minus != flip:
                descents |= bits
        terms.append((opens, closes, descent_count(n, descents)))
    return starts, tuple(terms)


def formula_table_bytes(letters) -> int:
    """Bytes of the tables the q=4 formula keeps after evaluating ``letters``.

    With m internal run boundaries in the top sign row (the top sign is +
    for colors 1 and 2), ``_enum_dispersed`` caches all C(m, m // 2)
    dispersed Dyck words of length m, ``descent_count`` at most one count
    per word, and ``_top_row_terms`` one (open mask, close mask, count)
    triple per word.  A length-n word charges each Dyck word
    280 + n * n.bit_length() / 8 bytes (a count is below (n+1)!, so it has
    about n log2(n) bits): tracemalloc measured 160-245 bytes per Dyck
    word (its string, its triple, their slots and its share of the counts)
    for alternating 13... words of 12-18 letters and for words of 30-100
    letters with 10-13 boundaries.
    """
    n = len(letters)
    m = sum((a > 2) != (b > 2) for a, b in zip(letters, letters[1:]))
    return comb(m, m // 2) * (280 + n * n.bit_length() // 8)


_RECURSION_MEASURES: dict[int, CylinderMeasure] = {}


def recursion_measure(q: int) -> CylinderMeasure:
    """Shared per-q recursion measure (memo persists across calls)."""
    m = _RECURSION_MEASURES.get(q)
    if m is None:
        m = _RECURSION_MEASURES[q] = CylinderMeasure(q, "recursion")
    return m


def marginalize(measure: CylinderMeasure, pattern) -> Fraction:
    """Probability of a window pattern with wildcards (None) summed out.

    The literal definition: the sum of the measure's numerators over every
    proper way of filling the wildcard positions with colors, over the one
    denominator of the pattern's length.  A pattern whose fixed letters
    already repeat has probability 0.
    """
    pattern = tuple(pattern)
    for a in pattern:
        if a is not None and not 1 <= a <= measure.q:
            raise ValueError(f"letter {a} outside 1..{measure.q}")
    if any(a is not None and a == b for a, b in zip(pattern, pattern[1:])):
        return ZERO
    denominator = measure._denominator(len(pattern))  # builds the table _numerator reads
    total = sum(map(measure._numerator, _completions(measure.q, pattern)))
    return Fraction(total, denominator)
