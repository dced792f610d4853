"""Local recoloring map that removes the fourth color from the 4-color measure.

Each letter 4 is replaced by the smallest color in {1,2,3} different from
both of its original neighbors (which are never 4, since equal neighbors
are forbidden).  The map needs both neighbors, so a length-n output window
is read off the interior of a length-(n+2) source window: the image
indices of all proper source words are computed at once by looking up
each interior triple of their letters, and the source numerators are added
into their images with ``np.add.at`` on int64 (exact, unlike
``np.bincount``, whose weights are float64).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .measure import _as_dict, _frozen, recursion_measure


def eliminate_fours_letter(left: int, mid: int, right: int) -> int:
    """Image of one interior letter given its original neighbors."""
    if mid != 4:
        return mid
    for c in (1, 2, 3):
        if c != left and c != right:
            return c
    raise AssertionError("unreachable: two neighbors cannot cover {1,2,3}")


# _LETTER_IMAGE[l, m, r]: the image of letter m + 1 between l + 1 and r + 1,
# minus one
_LETTER_IMAGE = np.array([[[eliminate_fours_letter(left, mid, right) - 1
                            for right in range(1, 5)] for mid in range(1, 5)]
                          for left in range(1, 5)], dtype=np.intp)


class EliminateFoursMeasure:
    """Windows of the recolored ``recursion_measure(4)``, as an exact measure."""

    def __init__(self):
        self._arrays: dict[int, tuple[np.ndarray, int]] = {}

    def window_array(self, n: int) -> tuple[np.ndarray, int]:
        """The ``(3,) * n`` int64 numerators of the length-n image window
        and the source's denominator of length n + 2."""
        if n < 0:
            raise ValueError("window length must be nonnegative")
        got = self._arrays.get(n)
        if got is None:
            src, denom = recursion_measure(4).window_array(n + 2)
            letters = np.nonzero(src)  # the proper source words, one array per position
            image = np.zeros(len(letters[0]), dtype=np.intp)  # flat index of each image
            for i in range(1, n + 1):
                image = image * 3 + _LETTER_IMAGE[letters[i - 1], letters[i], letters[i + 1]]
            out = np.zeros(3**n, dtype=np.int64)
            np.add.at(out, image, src[letters])
            got = self._arrays[n] = (_frozen(out.reshape((3,) * n)), denom)
        return got

    def scaled_window(self, n: int) -> tuple[dict[tuple[int, ...], int], int]:
        """The image words of length n mapped to their numerators, with the
        denominator: ``window_array`` as a dict."""
        return _as_dict(*self.window_array(n))

    def window(self, n: int) -> dict[tuple[int, ...], Fraction]:
        scaled, denom = self.scaled_window(n)
        return {w: Fraction(v, denom) for w, v in scaled.items()}
