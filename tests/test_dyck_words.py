import itertools

import pytest

from references import DispersedDyckWord, dispersed_dyck_words
from stochlab.colorlab.words import _enum_dispersed

SYMS = "o<>"


# --- independent oracle: grammar-based recursive descent -------------------
# DD -> '' | 'o' DD | D DD     D -> '<' Inner '>' Inner (complete Dyck word)

def _dyck(s: str, a: int, b: int) -> bool:
    """s[a:b] is derivable from  S -> '' | '<' S '>' S."""
    if a == b:
        return True
    if s[a] != "<":
        return False
    for mid in range(a + 1, b):
        if s[mid] == ">" and _dyck(s, a + 1, mid) and _dyck(s, mid + 1, b):
            return True
    return False


def oracle_is_dispersed(s: str) -> bool:
    n = len(s)
    seen: dict[int, bool] = {}

    def dd(a: int) -> bool:
        if a in seen:
            return seen[a]
        if a == n:
            out = True
        elif s[a] == "o":
            out = dd(a + 1)
        else:
            out = any(
                _dyck(s, a, b) and dd(b) for b in range(a + 2, n + 1, 2)
            )
        seen[a] = out
        return out

    return dd(0)


def brute_force_words(length: int) -> list[str]:
    return [
        "".join(t)
        for t in itertools.product(SYMS, repeat=length)
        if oracle_is_dispersed("".join(t))
    ]


# expected counts frozen from the brute-force oracle (L = 0..8)
ORACLE_COUNTS = [1, 1, 2, 3, 6, 10, 20, 35, 70]


def test_oracle_counts_are_fixed():
    assert [len(brute_force_words(L)) for L in range(9)] == ORACLE_COUNTS


@pytest.mark.parametrize("length", range(9))
def test_enumeration_matches_brute_force(length):
    got = list(_enum_dispersed(length))
    assert sorted(got) == sorted(brute_force_words(length))
    assert len(got) == ORACLE_COUNTS[length]


def test_length_zero_is_single_empty_word():
    assert _enum_dispersed(0) == ("",)


def test_length_two():
    assert _enum_dispersed(2) == ("oo", "<>")


def test_length_four_contents():
    got = set(_enum_dispersed(4))
    assert got == {"oooo", "<>oo", "o<>o", "oo<>", "<><>", "<<>>"}


def test_lexicographic_order():
    rank = {c: i for i, c in enumerate(SYMS)}
    for length in range(9):
        keys = [tuple(rank[c] for c in w) for w in _enum_dispersed(length)]
        assert keys == sorted(keys)


def test_no_duplicates():
    for length in range(9):
        words = _enum_dispersed(length)
        assert len(words) == len(set(words))


def test_invalid_words_rejected():
    for bad in ("<", ">", "><", "<o>", "<<>", "o>", "<o<>>"):
        with pytest.raises(ValueError):
            DispersedDyckWord(bad)


def test_open_count():
    assert DispersedDyckWord("o<><<>>").open_count == 3


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        dispersed_dyck_words(-1)
