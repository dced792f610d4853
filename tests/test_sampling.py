import math
from fractions import Fraction

import pytest

from stochlab.colorlab import is_proper, recursion_measure, sample_windows


def test_same_seed_same_word():
    m = recursion_measure(4)
    assert sample_windows(m, 6, 1, seed=123) == sample_windows(m, 6, 1, seed=123)
    assert sample_windows(m, 4, 50, seed=9) == sample_windows(m, 4, 50, seed=9)


def test_different_seeds_differ_somewhere():
    m = recursion_measure(4)
    words = {sample_windows(m, 8, 1, seed=s)[0] for s in range(20)}
    assert len(words) > 1


def test_samples_are_proper():
    m = recursion_measure(4)
    for w in sample_windows(m, 7, 200, seed=7):
        assert is_proper(w)
        assert all(1 <= a <= 4 for a in w)


def test_singleton_frequencies_within_four_sigma():
    m = recursion_measure(4)
    trials = 100_000
    counts = {a: 0 for a in (1, 2, 3, 4)}
    for (a,) in sample_windows(m, 1, trials, seed=2024):
        counts[a] += 1
    p = 0.25
    sigma = math.sqrt(trials * p * (1 - p))
    for a in counts:
        assert abs(counts[a] - trials * p) <= 4 * sigma


def test_pair_frequencies_within_four_sigma():
    m = recursion_measure(4)
    trials = 100_000
    counts: dict[tuple[int, int], int] = {}
    for w in sample_windows(m, 2, trials, seed=77):
        counts[w] = counts.get(w, 0) + 1
    # improper pairs must never occur
    assert all(a != b for a, b in counts)
    p = float(Fraction(1, 12))
    sigma = math.sqrt(trials * p * (1 - p))
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            if a == b:
                continue
            assert abs(counts.get((a, b), 0) - trials * p) <= 4 * sigma


def test_zero_length_window():
    m = recursion_measure(4)
    assert sample_windows(m, 0, 1, seed=1) == [()]


def test_bad_arguments():
    m = recursion_measure(4)
    with pytest.raises(ValueError):
        sample_windows(m, -1, 1, seed=1)
    with pytest.raises(ValueError):
        sample_windows(m, 2, -5, seed=1)
