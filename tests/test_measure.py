import itertools
from fractions import Fraction

import pytest

from references import (
    boundary_sign_product,
    dispersed_dyck_words,
    flip_runs,
    run_decomposition,
    to_letters,
)
from stochlab.colorlab import (
    CylinderMeasure,
    NormalizerMismatchError,
    SignMatrix,
    canonical_form,
    descent_set_probability,
    formula_cylinder_probability,
    is_proper,
    marginalize,
    proper_words,
    recursion_measure,
)

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


def reference_formula(letters):
    """The q=4 formula term by term, through the reference sign-word helpers."""
    if not letters:
        return F(1)
    sm = SignMatrix.from_letters(letters)
    runs = run_decomposition(sm.top).m
    total = F(0)
    for w in dispersed_dyck_words(runs - 1):
        sign = -1 if w.open_count % 2 else 1
        total += (sign * boundary_sign_product(w, sm.top, sm.bottom)
                  * descent_set_probability(flip_runs(sm.top, w)))
    return total / 2**runs


@pytest.fixture(scope="module")
def rec4():
    return CylinderMeasure(4, "recursion")


@pytest.fixture(scope="module")
def form4():
    return CylinderMeasure(4, "formula")


class TestFormulaExamples:
    def test_pair(self):
        assert formula_cylinder_probability((1, 2)) == F(1, 12)

    def test_three_letters_two_runs_cancel(self):
        # (1/8) * (mu(+-+) - mu(+++)) = (1/8) * (5/24 - 1/24)
        assert formula_cylinder_probability((1, 3, 1)) == F(1, 48)

    def test_three_letters_single_run(self):
        assert formula_cylinder_probability((1, 2, 1)) == F(1, 48)

    def test_empty_word(self):
        assert formula_cylinder_probability(()) == 1

    def test_singletons_uniform(self):
        for a in (1, 2, 3, 4):
            assert formula_cylinder_probability((a,)) == F(1, 4)

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            formula_cylinder_probability((1, 1))

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            formula_cylinder_probability((1, 5))


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
        assert measure.window(1200) == {(1, 2) * 600: F(1, 2), (2, 1) * 600: F(1, 2)}

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

    def test_formula_matches_term_by_term_reference(self):
        for n in range(8):
            for w in proper_words(4, n):
                assert formula_cylinder_probability(w) == reference_formula(w)

    def test_formula_nonnegative_small(self, form4):
        for n in range(7):
            for w in proper_words(4, n):
                assert form4.prob(w) >= 0

    def test_formula_measure_zero_on_improper(self, form4):
        assert form4.prob((1, 1)) == 0


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
        for n in range(9):
            for w, _ in _canonical_proper_words(q, n):
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
            window = rec4.window(n)
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
