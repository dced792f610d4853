import itertools

import pytest
from hypothesis import given, strategies as st

from references import (
    DispersedDyckWord,
    boundary_sign_product,
    dispersed_dyck_words,
    flip_runs,
    run_decomposition,
    to_letters,
)
from stochlab.colorlab import SignMatrix, is_proper


def signs(text: str) -> tuple[int, ...]:
    return tuple(+1 if c == "+" else -1 for c in text)


class TestIsProper:
    def test_is_proper(self):
        assert is_proper((1, 2, 1))
        assert not is_proper((1, 1))
        assert is_proper(())


class TestSignMatrix:
    def test_color_encoding(self):
        sm = SignMatrix.from_letters((1, 2, 3, 4))
        assert sm.top == (+1, +1, -1, -1)
        assert sm.bottom == (+1, -1, +1, -1)

    def test_round_trip_exhaustive_small(self):
        for n in range(5):
            for letters in itertools.product((1, 2, 3, 4), repeat=n):
                assert to_letters(SignMatrix.from_letters(letters)) == letters

    @given(st.lists(st.sampled_from([1, 2, 3, 4]), max_size=12))
    def test_round_trip_property(self, letters):
        letters = tuple(letters)
        assert to_letters(SignMatrix.from_letters(letters)) == letters

    def test_unequal_rows_rejected(self):
        with pytest.raises(ValueError):
            SignMatrix((1,), (1, -1))

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            SignMatrix((1, 0), (1, 1))


class TestRunDecomposition:
    def test_single_run(self):
        dec = run_decomposition(signs("+++"))
        assert dec.runs == ((1, 3),)
        assert dec.m == 1
        assert dec.boundaries == ()

    def test_alternating(self):
        dec = run_decomposition(signs("++--++-"))
        assert dec.runs == ((1, 2), (-1, 2), (1, 2), (-1, 1))
        assert dec.m == 4
        assert dec.boundaries == (1, 3, 5)

    def test_lengths_sum_and_alternation(self):
        for n in range(1, 8):
            for y in itertools.product((1, -1), repeat=n):
                dec = run_decomposition(y)
                assert sum(length for _, length in dec.runs) == n
                for (s1, _), (s2, _) in zip(dec.runs, dec.runs[1:]):
                    assert s1 != s2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_decomposition(())


class TestFlipRuns:
    def test_worked_example(self):
        # the ++ run flips to --, eliminating the bracketed boundaries
        y = signs("++--++-")
        assert flip_runs(y, DispersedDyckWord("o<>")) == signs("++-----")

    def test_all_neutral_is_identity(self):
        for n in range(1, 8):
            for y in itertools.product((1, -1), repeat=n):
                m = run_decomposition(y).m
                w = DispersedDyckWord("o" * (m - 1))
                assert flip_runs(y, w) == y

    def test_nested_brackets(self):
        # flip pattern (0,1,0,1,0): runs 2 and 4 flip, all boundaries vanish
        assert flip_runs(signs("+-+-+"), DispersedDyckWord("<<>>")) == signs("+++++")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flip_runs(signs("+-+"), DispersedDyckWord("o"))

    def test_boundary_survival_postcondition(self):
        # boundary j of y survives in y_w iff w_j is neutral; all m <= 6
        for n in range(1, 8):
            for y in itertools.product((1, -1), repeat=n):
                dec = run_decomposition(y)
                if dec.m > 6:
                    continue
                for w in dispersed_dyck_words(dec.m - 1):
                    yw = flip_runs(y, w)
                    assert len(yw) == n
                    for j, pos in enumerate(dec.boundaries):
                        survives = yw[pos] != yw[pos + 1]
                        assert survives == (w.symbols[j] == "o")


class TestBoundarySignProduct:
    def test_all_neutral_gives_one(self):
        y = signs("++--+")
        z = signs("-----")
        assert boundary_sign_product(DispersedDyckWord("oo"), y, z) == 1

    def test_worked_example(self):
        y = signs("++--++-")
        z = signs("+-+-+-+")
        assert boundary_sign_product(DispersedDyckWord("o<>"), y, z) == -1

    def test_three_letter_example(self):
        assert boundary_sign_product(DispersedDyckWord("<>"), signs("+-+"), signs("+++")) == 1

    def test_open_picks_left_close_picks_right(self):
        y = signs("+-+")
        z = signs("-+-")
        # "<>": left of boundary 1 is z[0] = -1, right of boundary 2 is z[2] = -1
        assert boundary_sign_product(DispersedDyckWord("<>"), y, z) == 1
        z = signs("-++")
        # now the close bracket picks z[2] = +1, flipping the product
        assert boundary_sign_product(DispersedDyckWord("<>"), y, z) == -1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            boundary_sign_product(DispersedDyckWord("o"), signs("+-"), signs("+"))
        with pytest.raises(ValueError):
            boundary_sign_product(DispersedDyckWord("oo"), signs("+-"), signs("-+"))

    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=10),
           st.lists(st.sampled_from([1, -1]), min_size=1, max_size=10),
           st.integers(min_value=0))
    def test_result_is_a_sign(self, y, z, pick):
        y, z = tuple(y), tuple(z[: len(y)] + [1] * (len(y) - len(z)))
        m = run_decomposition(y).m
        words = dispersed_dyck_words(m - 1)
        w = words[pick % len(words)]
        assert boundary_sign_product(w, y, z) in (1, -1)
