import itertools
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from references import insertion_laws

from stochlab.colorlab import (CylinderMeasure, canonical_form, is_proper, recursion_measure,
                               sample_windows, sampling)


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


def test_negative_seed_refused():
    # random.Random would seed -5 as 5 and -5.0 as 2**64 - 5
    for seed in (-5, -5.0):
        with pytest.raises(ValueError, match=f"seed must be nonnegative, got {seed}"):
            sample_windows(recursion_measure(4), 8, 3, seed=seed)


def test_q2_words_alternate():
    words = sample_windows(recursion_measure(2), 9, 40, seed=3)
    assert set(words) == {(1, 2) * 4 + (1,), (2, 1) * 4 + (2,)}


def test_the_formula_source_draws_the_same_words():
    assert (sample_windows(CylinderMeasure(4, "formula"), 9, 20, seed=5)
            == sample_windows(recursion_measure(4), 9, 20, seed=5))


def test_sampling_builds_no_table():
    fresh = CylinderMeasure(4)
    assert len(sample_windows(fresh, 12, 10, seed=8)) == 10
    assert fresh.table == {(): 1}


# --- the law, exactly --------------------------------------------------------

def test_the_insertion_law_is_the_window_law():
    # each insertion sequence counted once: N(w) over T_n, entry for entry
    for q in range(2, 7):
        measure = CylinderMeasure(q)
        for n, law in enumerate(insertion_laws(q, 7)):
            assert (law, sum(law.values())) == measure.scaled_window(n)


@pytest.mark.parametrize("q,nmax", [(2, 8), (3, 6), (4, 5), (5, 4), (6, 4)])
def test_every_draw_sequence_gives_the_window_law(monkeypatch, q, nmax):
    # the sampler's own law: run it once on every sequence of draws it can
    # read, each draw below the proper-insertion count of its step
    asked = []

    def scripted(draws):
        draws = iter(draws)

        def randrange(bound):
            asked.append(bound)
            return next(draws)

        return SimpleNamespace(randrange=randrange)

    monkeypatch.setattr(sampling, "random", SimpleNamespace(Random=scripted))
    measure = CylinderMeasure(q)
    for n in range(nmax + 1):
        bounds = [(m + 1) * (q - 2) + 2 for m in range(n)]
        law = Counter()
        for draws in itertools.product(*map(range, bounds)):
            asked.clear()
            (word,) = sample_windows(measure, n, 1, seed=draws)
            assert asked == bounds
            law[word] += 1
        assert (dict(law), math.prod(bounds)) == measure.scaled_window(n)


# --- lengths no window reaches -----------------------------------------------

def _wilson_hilferty(chi2: float, df: int) -> float:
    """The normal deviate of a chi-square statistic."""
    return ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))


def test_letters_two_apart_are_uncorrelated_at_length_ten_thousand():
    # 1-dependence: the letters at i and i + 2 are independent, and so are
    # the pairs at i = 0, 4, 8, ..., each two sites from the next
    n = 10**4
    words = np.array(sample_windows(recursion_measure(4), n, 8, seed=1403), dtype=np.int8)
    left, right = words[:, 0:n - 2:4], words[:, 2::4]
    for a in range(1, 5):
        for b in range(1, 5):
            products = ((left == a) - 0.25) * ((right == b) - 0.25)
            z = products.sum() / (math.sqrt(products.size) * 3 / 16)
            assert abs(z) <= 4, (a, b, z)


def test_subwords_at_both_ends_and_the_middle_follow_the_window():
    # stationarity: the length-4 subword at offsets 0, n/2 and n - 4 has the
    # length-4 window law, pooled over relabelings of the colors (the
    # canonical forms 1212, 1213, 1231, 1232, 1234, of mass 1/20 or more)
    n, count = 1000, 200
    numerators, total = recursion_measure(4).scaled_window(4)
    classes = Counter()
    for w, v in numerators.items():
        classes[canonical_form(w)] += v
    words = sample_windows(recursion_measure(4), n, count, seed=2448)
    for offset in (0, n // 2, n - 4):
        seen = Counter(canonical_form(w[offset:offset + 4]) for w in words)
        assert set(seen) <= set(classes)
        chi2 = sum((seen[c] - count * v / total) ** 2 / (count * v / total)
                   for c, v in classes.items())
        z = _wilson_hilferty(chi2, len(classes) - 1)
        assert abs(z) <= 4, (offset, z)
