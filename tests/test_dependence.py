import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stochlab.colorlab import (
    CylinderMeasure,
    EliminateFoursMeasure,
    check_k_dependence,
    recursion_measure,
)
from stochlab.colorlab.dependence import (
    PRIMES,
    _moduli,
    _reduced,
    check_bytes,
    marginal_tables,
)

F = Fraction


def test_q4_is_one_dependent_small_windows():
    report = check_k_dependence(recursion_measure(4), k=1, nmax=6)
    assert report.holds
    assert report.witness is None


def test_q4_not_zero_dependent():
    report = check_k_dependence(recursion_measure(4), k=0, nmax=3)
    assert not report.holds
    w = report.witness
    # adjacent equal colors are forbidden, so the joint mass is 0
    assert w.set_a == (1,) and w.set_b == (2,)
    assert w.joint == 0
    assert w.product == F(1, 16)


def test_q3_is_two_dependent_small_windows():
    report = check_k_dependence(recursion_measure(3), k=2, nmax=6)
    assert report.holds


def test_q3_not_one_dependent():
    report = check_k_dependence(recursion_measure(3), k=1, nmax=8)
    assert not report.holds
    w = report.witness
    assert w.window <= 8
    # frozen from the exact measure: P(a*a) = 2/15 vs (1/3)^2
    assert w.set_a == (1,) and w.set_b == (3,)
    assert (w.joint, w.product) == (F(2, 15), F(1, 9))


def test_q2_not_finitely_dependent_at_small_k():
    # the 2-coloring alternates deterministically; any split correlates
    for k in (0, 1, 2, 3):
        report = check_k_dependence(recursion_measure(2), k=k, nmax=k + 2)
        assert not report.holds


def test_q5_not_one_dependent():
    report = check_k_dependence(recursion_measure(5), k=1, nmax=4)
    assert not report.holds


@pytest.mark.parametrize("q,k,nmax", [(3, 2, 10), (4, 1, 9)])
def test_check_bytes_bounds_the_traced_peak(q, k, nmax):
    # a fresh measure, so the check also builds every window it reads
    measure = CylinderMeasure(q)
    tracemalloc.start()
    try:
        assert check_k_dependence(measure, k, nmax).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= check_bytes(q, k, nmax)


def test_nmax_too_small_rejected():
    with pytest.raises(ValueError):
        check_k_dependence(recursion_measure(4), k=2, nmax=3)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        check_k_dependence(recursion_measure(4), k=-1, nmax=4)


def test_report_dict_shape():
    report = check_k_dependence(recursion_measure(4), k=0, nmax=3)
    d = report.to_dict()
    assert d["holds"] is False
    assert d["witness"]["A"] == [1]
    assert d["witness"]["joint"] == "0"


def test_marginal_tables_consistency():
    m = CylinderMeasure(4)
    window, denom = m.window_array(3)
    tables = marginal_tables(window)
    # empty-set marginal is the total mass
    assert tables[0].shape == (1, 1, 1) and tables[0].item() == denom
    # singleton marginals are uniform
    for mask in (1, 2, 4):
        vals = tables[mask].ravel()
        assert all(4 * v == denom for v in vals)
        assert len(vals) == 4
    # pairwise marginal sums back to the singleton
    pair = tables[0b011]
    assert pair.shape == (4, 4, 1)
    assert (pair.sum(axis=1, keepdims=True) == tables[0b001]).all()


class _WideWindow:
    """Two colors, window length 2, numerators coprime to the denominator
    D = 2**33 + 1.  At colors (1, 1) the check compares 2**32 * D against
    (2**32 + 1) * 2**32: they differ by 2**64, so int64 would see them equal,
    and likewise at the other three assignments."""

    q = 2

    def window_array(self, n):
        return np.array([[2**32, 1], [0, 2**32]], dtype=np.int64), 2**33 + 1


def test_wide_denominator_takes_the_exact_path():
    window, denom = _WideWindow().window_array(2)
    # D**2 needs 67 bits: past uint64, so one prime joins the 2**64
    assert window.dtype == np.int64 and _moduli(denom) == PRIMES[:1]
    joint, a, b = (int(v) for v in (window[0, 0], window[0].sum(), window[:, 0].sum()))
    assert joint * denom - a * b == 2**64
    # int64 array products wrap modulo 2**64 without a warning, so only the
    # prime tells the two products apart
    wrapped = np.array([joint, a], dtype=np.int64) * np.array([denom, b], dtype=np.int64)
    assert wrapped[0] == wrapped[1]
    report = check_k_dependence(_WideWindow(), k=0, nmax=2)
    w = report.witness
    assert not report.holds and report.pairs_checked == 1
    assert w.assignment == ((1, 1), (2, 1))
    assert (w.joint, w.product) == (F(2**32, denom), F((2**32 + 1) * 2**32, denom**2))


def test_three_dependence_past_uint64_holds_through_residues():
    pf = EliminateFoursMeasure()
    # the length-9 image window's reduced denominator is 30,656,102,400,
    # whose square is past 2**64
    assert _reduced(*pf.window_array(9))[1] == 30656102400
    assert _moduli(30656102400) == PRIMES[:1]
    report = check_k_dependence(pf, k=3, nmax=9)
    # as the exact Python-integer comparison found
    assert report.holds and report.pairs_checked == 202
