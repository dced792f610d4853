import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from references import SignMatrix, deletion_table, prob_window, reference_formula, to_letters
from stochlab.colorlab import (
    CylinderMeasure,
    NormalizerMismatchError,
    canonical_form,
    descent_set_probability,
    is_proper,
    marginalize,
    proper_words,
    recursion_measure,
)
from stochlab.colorlab.measure import _completions

F = Fraction


def reference_recursion(q):
    """The deletion recursion as defined, in Fractions, memoized by the raw
    word: no color canonicalization and no integer chain counts."""
    memo, norms = {(): F(1)}, {}

    def deletion_sum(w):
        subs = (w[:i] + w[i + 1:] for i in range(len(w)))
        return sum((prob(v) for v in subs if is_proper(v)), F(0))

    def prob(w):
        if w not in memo:
            if len(w) not in norms:
                norms[len(w)] = 1 / sum(deletion_sum(v) for v in proper_words(q, len(w)))
            memo[w] = norms[len(w)] * deletion_sum(w)
        return memo[w]

    return prob


@pytest.fixture(scope="module")
def rec4():
    return CylinderMeasure(4, "recursion")


@pytest.fixture(scope="module")
def form4():
    return CylinderMeasure(4, "formula")


class TestFormulaExamples:
    def test_pair(self, form4):
        assert form4.prob((1, 2)) == F(1, 12)

    def test_three_letters_two_runs_cancel(self, form4):
        # (1/8) * (mu(+-+) - mu(+++)) = (1/8) * (5/24 - 1/24)
        assert form4.prob((1, 3, 1)) == F(1, 48)

    def test_three_letters_single_run(self, form4):
        assert form4.prob((1, 2, 1)) == F(1, 48)

    def test_empty_word(self, form4):
        assert form4.prob(()) == 1

    def test_singletons_uniform(self, form4):
        for a in (1, 2, 3, 4):
            assert form4.prob((a,)) == F(1, 4)

    def test_improper_has_probability_zero(self, form4):
        # the formula is asserted on proper words only; as a measure value
        # the improper mass is zero (the CLI refuses such a word itself)
        assert form4.prob((1, 1)) == 0

    def test_bad_letters_rejected(self, form4):
        with pytest.raises(ValueError):
            form4.prob((1, 5))


class TestRecursionExamples:
    def test_singleton(self):
        assert recursion_measure(4).prob((1,)) == F(1, 4)

    def test_three_letters(self):
        # middle deletion is improper and contributes nothing
        assert recursion_measure(4).prob((1, 2, 1)) == F(1, 48)

    def test_three_colors_pair(self):
        assert recursion_measure(3).prob((1, 2)) == F(1, 6)

    def test_improper_is_zero(self):
        assert recursion_measure(4).prob((1, 1)) == 0
        assert recursion_measure(4).prob((2, 3, 3, 1)) == 0

    def test_empty_word(self):
        assert recursion_measure(4).prob(()) == 1

    def test_q_below_two_rejected(self):
        with pytest.raises(ValueError):
            CylinderMeasure(1)

    def test_long_word_needs_no_recursion(self):
        # at q=2 there are two proper words per length, so 1,200 letters are
        # cheap; enumerating them must not recurse once per letter or per length
        measure = CylinderMeasure(2)
        assert measure.prob((1, 2) * 600) == F(1, 2)
        assert prob_window(measure, 1200) == {(1, 2) * 600: F(1, 2), (2, 1) * 600: F(1, 2)}

    def test_letters_outside_range_rejected(self):
        for letters in ((0, 1), (1, 5)):
            with pytest.raises(ValueError):
                CylinderMeasure(4).prob(letters)


class TestNormalizer:
    def test_closed_form_all_q_up_to_ten(self):
        # mass-one computation must reproduce 1/(n(q-2)+2)
        for q in range(2, 7):
            m = CylinderMeasure(q)
            for n in range(1, 11):
                assert m.normalizer(n) == F(1, n * (q - 2) + 2)

    def test_mass_one_direct_enumeration(self):
        # plain sum over every proper word, not over orbit representatives
        for q in (2, 3, 4):
            m = CylinderMeasure(q)
            for n in range(1, 6):
                assert sum(m.prob(w) for w in proper_words(q, n)) == 1

    def test_mismatch_raises(self):
        m = CylinderMeasure(4)
        m.normalizer(3)
        m._totals[3] += 1  # a wrong T_3 makes T_3/T_4 miss 1/10
        with pytest.raises(NormalizerMismatchError):
            m.normalizer(4)


class TestEquivalenceAndSigns:
    def test_formula_equals_recursion_small(self, rec4, form4):
        for n in range(7):
            for w in proper_words(4, n):
                assert form4.prob(w) == rec4.prob(w)

    def test_formula_matches_term_by_term_reference(self, form4):
        for n in range(8):
            for w in proper_words(4, n):
                assert form4.prob(w) == reference_formula(w)

    def test_formula_nonnegative_small(self, form4):
        for n in range(7):
            for w in proper_words(4, n):
                assert form4.prob(w) >= 0

    def test_formula_measure_zero_on_improper(self, form4):
        assert form4.prob((1, 1)) == 0


class TestWindowArrays:
    @pytest.mark.parametrize("q,nmax", [(2, 6), (3, 8), (4, 7), (5, 5)])
    def test_broadcast_windows_equal_the_word_numerators(self, q, nmax):
        arrays, words = CylinderMeasure(q), CylinderMeasure(q)
        for n in range(nmax + 1):
            window, denom = arrays.window_array(n)
            assert window.shape == (q,) * n and window.dtype == np.int64
            assert int(window.sum()) == denom
            got = {w: F(int(window[tuple(a - 1 for a in w)]), denom)
                   for w in itertools.product(range(1, q + 1), repeat=n)}
            assert got == {w: words.prob(w) for w in got}
            assert arrays.scaled_window(n) == ({w: v * denom for w, v in got.items() if v},
                                               denom)

    def test_formula_windows_equal_the_recursion_windows_to_length_nine(self):
        # every proper word of up to 9 letters: each top sign row's shared
        # terms against the independent recursion (the term-by-term
        # reference above takes seconds per length past 7)
        formula, recursion = CylinderMeasure(4, "formula"), CylinderMeasure(4)
        for n in range(10):
            got = np.zeros((4,) * n, dtype=np.int64)
            for w in proper_words(4, n):
                got[tuple(a - 1 for a in w)] = formula._numerator(w)
            want, total = recursion.window_array(n)
            assert formula._denominator(n) == total and np.array_equal(got, want)

    def test_window_arrays_are_read_only(self):
        window, _ = CylinderMeasure(3).window_array(2)
        with pytest.raises(ValueError):
            window[0, 1] = 0

    def test_denominators_from_two_to_the_63_are_refused_unbuilt(self):
        # T_16 = 2**16 * 17! > 2**63 at q = 4; nothing of length 1..15 is built
        measure = CylinderMeasure(4)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            measure.window_array(16)
        assert list(measure._arrays) == [0]

    def test_formula_builds_no_window_arrays(self):
        measure = CylinderMeasure(4, "formula")
        with pytest.raises(ValueError, match="recursion construction"):
            measure.window_array(2)
        assert list(measure._arrays) == [0]

    def test_array_path_checks_the_normalizer(self):
        m = CylinderMeasure(4)
        window, total = m.window_array(3)
        m._arrays[3] = (window, total + 1)  # a wrong T_3 makes T_3/T_4 miss 1/10
        with pytest.raises(NormalizerMismatchError):
            m.window_array(4)


class TestMeasureInvariants:
    def test_projection_and_stationarity_q4(self, rec4):
        for n in range(7):
            for w in proper_words(4, n):
                p = rec4.prob(w)
                assert sum(rec4.prob(w + (a,)) for a in range(1, 5)) == p
                assert sum(rec4.prob((a,) + w) for a in range(1, 5)) == p

    @pytest.mark.parametrize("q", [2, 3, 5, 6])
    def test_projection_and_stationarity_other_q(self, q):
        m = CylinderMeasure(q)
        for n in range(5):
            for w in proper_words(q, n):
                p = m.prob(w)
                assert sum(m.prob(w + (a,)) for a in range(1, q + 1)) == p
                assert sum(m.prob((a,) + w) for a in range(1, q + 1)) == p

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_projection_to_length_nine_on_class_representatives(self, q):
        # one representative per color-permutation orbit; extensions reach
        # length 9 (the symmetry itself is tested on a raw-keyed reference)
        from stochlab.colorlab.measure import _canonical_proper_words

        m = CylinderMeasure(q)
        words = [()] + [w for n in range(1, 9) for w, _ in _canonical_proper_words(q, n)]
        for w in words:
            p = m.prob(w)
            assert sum(m.prob(w + (a,)) for a in range(1, q + 1)) == p
            assert sum(m.prob((a,) + w) for a in range(1, q + 1)) == p

    def test_color_permutation_symmetry(self):
        # the measure keys its memo by canonical form, so the symmetry that
        # justifies this is checked on the raw-keyed reference
        reference = reference_recursion(4)
        for n in range(6):
            for w in proper_words(4, n):
                p = reference(w)
                for perm in itertools.permutations((1, 2, 3, 4)):
                    assert reference(tuple(perm[a - 1] for a in w)) == p

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_raw_keyed_reference(self, q):
        m, reference = CylinderMeasure(q), reference_recursion(q)
        for n in range(7):
            for w in proper_words(q, n):
                assert m.prob(w) == reference(w)

    def test_formula_row_swap_symmetry(self, form4):
        # swapping the two sign rows permutes colors 2 <-> 3
        swap = {1: 1, 2: 3, 3: 2, 4: 4}
        for n in range(7):
            for w in proper_words(4, n):
                assert form4.prob(tuple(swap[a] for a in w)) == form4.prob(w)

    def test_mass_one(self, rec4):
        for n in range(8):
            assert sum(rec4.prob(w) for w in proper_words(4, n)) == 1

    def test_canonicalization_does_not_change_values(self):
        canon, reference = CylinderMeasure(4), reference_recursion(4)
        for n in range(7):
            for w in proper_words(4, n):
                assert canon.prob(w) == reference(w)

    @pytest.mark.parametrize("q,nmax", [(2, 9), (3, 9), (4, 9), (5, 7), (6, 7)])
    def test_table_equals_the_one_canonicalizing_every_deletion(self, q, nmax):
        # the table canonicalizes only deletions of a color's first letter
        measure = CylinderMeasure(q)
        measure.normalizer(nmax)
        assert measure.table == deletion_table(q, nmax)

    def test_canonical_form(self):
        assert canonical_form((3, 1, 3, 2)) == (1, 2, 1, 3)
        assert canonical_form(()) == ()

    def test_concurrent_evaluation_matches_sequential(self):
        # the memo allows concurrent reads and same-value inserts
        from concurrent.futures import ThreadPoolExecutor

        words = [w for n in range(7) for w in proper_words(4, n)]
        shared = CylinderMeasure(4)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(shared.prob, words))
        fresh = CylinderMeasure(4)
        assert parallel == [fresh.prob(w) for w in words]


class TestMarginalLaws:
    def test_single_color_matches_coin_flip_law(self, rec4):
        # appearances of one color ~ positions of HT in n+1 fair coin flips
        for n in range(1, 8):
            window = prob_window(rec4, n)
            for color in (1, 2, 3, 4):
                got: dict[tuple[int, ...], Fraction] = {}
                for w, p in window.items():
                    key = tuple(i + 1 for i, a in enumerate(w) if a == color)
                    got[key] = got.get(key, F(0)) + p
                want: dict[tuple[int, ...], Fraction] = {}
                for flips in itertools.product((0, 1), repeat=n + 1):
                    key = tuple(
                        i + 1
                        for i in range(n)
                        if flips[i] == 1 and flips[i + 1] == 0
                    )
                    want[key] = want.get(key, F(0)) + F(1, 2 ** (n + 1))
                assert got == want

    def test_top_row_marginal_is_descent_law(self, rec4):
        # summing out the bottom sign row leaves the descent-set law
        for n in range(1, 8):
            for top in itertools.product((1, -1), repeat=n):
                total = F(0)
                for bottom in itertools.product((1, -1), repeat=n):
                    letters = to_letters(SignMatrix(top, bottom))
                    total += rec4.prob(letters)
                assert total == descent_set_probability(top)


class TestMarginalize:
    def test_no_wildcards(self, rec4):
        assert marginalize(rec4, (1, 2, 1)) == rec4.prob((1, 2, 1))

    def test_singleton(self, rec4):
        assert marginalize(rec4, (1,)) == F(1, 4)

    def test_distance_two_factorizes(self, rec4):
        assert marginalize(rec4, (1, None, 3)) == F(1, 16)

    def test_improper_pattern_zero(self, rec4):
        assert marginalize(rec4, (1, 1)) == 0
        assert marginalize(rec4, (None, 2, 2, None)) == 0

    def test_all_wildcards(self, rec4):
        assert marginalize(rec4, (None, None, None)) == 1

    def test_matches_brute_force_sum(self, rec4):
        pattern = (None, 2, None, 1)
        total = sum(
            rec4.prob((a, 2, b, 1))
            for a in range(1, 5)
            for b in range(1, 5)
        )
        assert marginalize(rec4, pattern) == total

    def test_letter_outside_range_rejected(self, rec4):
        for pattern in ((5, None), (None, 0), (1, 1, 7)):
            with pytest.raises(ValueError):
                marginalize(rec4, pattern)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_completions_are_the_matching_proper_words_in_order(self, q):
        rng = random.Random(q)
        letters = (None, *range(1, q + 1))
        for n in range(7):
            words = [w for w in itertools.product(range(1, q + 1), repeat=n) if is_proper(w)]
            assert list(proper_words(q, n)) == words
            for _ in range(20):
                pattern = tuple(rng.choice(letters) for _ in range(n))
                assert list(_completions(q, pattern)) == [
                    w for w in words if all(c in (None, a) for c, a in zip(pattern, w))]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_a_fresh_measure_matches_the_literal_sum(self, q):
        # on a fresh measure the numerators read the table that the length's
        # denominator builds, so marginalize must read the denominator first
        rng = random.Random(10 + q)
        letters = (None, *range(1, q + 1))
        for n in range(7):
            for _ in range(4):
                pattern = tuple(rng.choice(letters) for _ in range(n))
                literal = sum((recursion_measure(q).prob(w)
                               for w in itertools.product(range(1, q + 1), repeat=n)
                               if all(c in (None, a) for c, a in zip(pattern, w))), F(0))
                assert marginalize(CylinderMeasure(q), pattern) == literal

    @pytest.mark.parametrize("pattern", [(1, None, None, 3, None), (None, 2, None), ()])
    def test_every_measure_matches_the_literal_sum(self, form4, pattern):
        # integer numerators over one denominator equal the sum of prob over
        # every completion, improper ones included, for each construction
        for measure in (form4, recursion_measure(3)):
            if any(a is not None and a > measure.q for a in pattern):
                continue
            holes = [i for i, a in enumerate(pattern) if a is None]
            total = F(0)
            for colors in itertools.product(range(1, measure.q + 1), repeat=len(holes)):
                filled = list(pattern)
                for i, a in zip(holes, colors):
                    filled[i] = a
                total += measure.prob(filled)
            assert marginalize(measure, pattern) == total
