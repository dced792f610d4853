from fractions import Fraction

import numpy as np
import pytest

from references import pushforward_window

from stochlab.colorlab import (
    EliminateFoursMeasure,
    check_k_dependence,
    eliminate_fours_letter,
    eliminate_fours_pushforward,
    is_proper,
    proper_words,
    recursion_measure,
)

F = Fraction


def test_local_map_examples():
    assert eliminate_fours_letter(1, 4, 3) == 2
    assert eliminate_fours_letter(1, 4, 1) == 2
    assert eliminate_fours_letter(2, 4, 3) == 1
    assert eliminate_fours_letter(1, 4, 2) == 3
    # non-4 letters pass through
    assert eliminate_fours_letter(4, 1, 4) == 1
    assert eliminate_fours_letter(2, 3, 2) == 3


def test_empty_window():
    assert eliminate_fours_pushforward(0) == {(): F(1)}


def test_single_site_law_from_oracle():
    # frozen from exhaustive enumeration of length-3 source words: the map
    # favors small colors, so the image marginal is NOT uniform
    dist = eliminate_fours_pushforward(1)
    assert dist == {(1,): F(17, 48), (2,): F(1, 3), (3,): F(5, 16)}


def test_single_site_law_brute_force():
    src = recursion_measure(4)
    got: dict[tuple[int, ...], Fraction] = {}
    for w in proper_words(4, 3):
        img = (eliminate_fours_letter(*w),)
        got[img] = got.get(img, F(0)) + src.prob(w)
    assert got == eliminate_fours_pushforward(1)


@pytest.mark.parametrize("n", range(6))
def test_mass_and_support(n):
    dist = eliminate_fours_pushforward(n)
    assert sum(dist.values()) == 1
    for w, p in dist.items():
        assert p > 0
        assert is_proper(w)
        assert all(a in (1, 2, 3) for a in w)


def test_projection_consistency():
    # windows of different lengths agree under one-sided restriction
    m = EliminateFoursMeasure()
    for n in range(1, 5):
        longer = m.window(n + 1)
        shorter = m.window(n)
        left: dict[tuple[int, ...], Fraction] = {}
        right: dict[tuple[int, ...], Fraction] = {}
        for w, p in longer.items():
            left[w[1:]] = left.get(w[1:], F(0)) + p
            right[w[:-1]] = right.get(w[:-1], F(0)) + p
        assert left == shorter
        assert right == shorter


@pytest.mark.parametrize("n", range(6))
def test_array_map_equals_the_word_by_word_map(n):
    src = recursion_measure(4)
    want = pushforward_window({w: src.prob(w) for w in proper_words(4, n + 2)}, n)
    window, denom = EliminateFoursMeasure().window_array(n)
    assert window.shape == (3,) * n and window.dtype == np.int64
    assert {w: F(v, denom) for w, v in EliminateFoursMeasure().scaled_window(n)[0].items()} == want
    assert np.count_nonzero(window) == len(want)


def test_three_dependence_holds_small():
    report = check_k_dependence(EliminateFoursMeasure(), k=3, nmax=5)
    assert report.holds


def test_two_dependence_fails():
    report = check_k_dependence(EliminateFoursMeasure(), k=2, nmax=5)
    assert not report.holds


def test_source_must_have_four_colors():
    with pytest.raises(ValueError):
        EliminateFoursMeasure(recursion_measure(3))


def test_negative_window_rejected():
    with pytest.raises(ValueError):
        eliminate_fours_pushforward(-1)
