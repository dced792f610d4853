"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

The statistical thresholds in criterion 10 are finite-size surrogates
frozen after pilot calibration; see stochlab.ipslab.stats and the README.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from references import (
    path_graph,
    prob_window,
    random_connected_graph,
    random_hyperweights,
    star_graph,
)

from stochlab import colorlab, gaplab, ipslab

F = Fraction
# the color of each (top, bottom) sign column, inverting SignMatrix.from_letters
COLOR_OF_SIGNS = {(+1, +1): 1, (+1, -1): 2, (-1, +1): 3, (-1, -1): 4}


def criterion(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_formula_recursion_equivalence():
    started = time.perf_counter()
    formula = colorlab.CylinderMeasure(4, "formula")
    recursion = colorlab.recursion_measure(4)
    words = mismatches = 0
    for n in range(10):
        for w in colorlab.proper_words(4, n):
            words += 1
            if formula.prob(w) != recursion.prob(w):
                mismatches += 1
    elapsed = time.perf_counter() - started
    criterion(
        1,
        mismatches == 0 and elapsed < 300,
        f"explicit formula equals the deletion recursion on all {words} proper "
        f"words of length <= 9, exactly, in {elapsed:.1f}s (budget 300s)",
    )


def test_02_dependence_landscape():
    q4 = colorlab.recursion_measure(4)
    q3 = colorlab.recursion_measure(3)
    r41 = colorlab.check_k_dependence(q4, k=1, nmax=8)
    r32 = colorlab.check_k_dependence(q3, k=2, nmax=8)
    r31 = colorlab.check_k_dependence(q3, k=1, nmax=8)
    r40 = colorlab.check_k_dependence(q4, k=0, nmax=3)
    ok = (
        r41.holds
        and r32.holds
        and not r31.holds and r31.witness is not None
        and r31.witness.joint == F(2, 15) and r31.witness.product == F(1, 9)
        and not r40.holds and r40.witness is not None
    )
    # same landscape through the command line, at the stated scale
    from stochlab.cli import parse_and_dispatch

    code, _ = parse_and_dispatch(
        ["color", "check-dep", "--q", "4", "--k", "1", "--nmax", "8",
         "--expect", "holds=true"]
    )
    ok = ok and code == 0
    criterion(
        2,
        ok,
        "4 colors are 1-dependent and 3 colors are 2-dependent at nmax=8; "
        f"3-color 1-dependence fails with witness {r31.witness.joint} != "
        f"{r31.witness.product}; 4-color 0-dependence fails; CLI check-dep "
        "agrees with exit 0",
    )


def test_03_normalizer_closed_form():
    checked = 0
    for q in range(2, 7):
        measure = colorlab.CylinderMeasure(q)
        for n in range(1, 11):
            # the measure computes this from the mass-one condition and
            # aborts internally on any closed-form mismatch
            assert measure.normalizer(n) == F(1, n * (q - 2) + 2)
            checked += 1
    criterion(
        3,
        checked == 50,
        "mass-computed normalizers equal 1/(n(q-2)+2) for q in 2..6, n <= 10 "
        f"({checked} exact checks)",
    )


def test_04_marginal_laws():
    measure = colorlab.recursion_measure(4)
    # single color occupies positions like HT in n+1 fair coin flips
    ht_checks = 0
    for n in range(1, 8):
        window = prob_window(measure, n)
        coin: dict[tuple[int, ...], Fraction] = {}
        for flips in itertools.product((0, 1), repeat=n + 1):
            key = tuple(i + 1 for i in range(n) if flips[i] == 1 and flips[i + 1] == 0)
            coin[key] = coin.get(key, F(0)) + F(1, 2 ** (n + 1))
        for color in (1, 2, 3, 4):
            got: dict[tuple[int, ...], Fraction] = {}
            for w, p in window.items():
                key = tuple(i + 1 for i, a in enumerate(w) if a == color)
                got[key] = got.get(key, F(0)) + p
            assert got == coin
            ht_checks += len(coin)
    # summing out the bottom sign row leaves the exact-descent-set law
    descent_checks = 0
    for n in range(1, 9):
        for top in itertools.product((1, -1), repeat=n):
            total = F(0)
            for bottom in itertools.product((1, -1), repeat=n):
                letters = tuple(COLOR_OF_SIGNS[c] for c in zip(top, bottom))
                total += measure.prob(letters)
            assert total == colorlab.descent_set_probability(top)
            descent_checks += 1
    criterion(
        4,
        True,
        f"single-color marginals equal the coin-flip law (windows <= 7, "
        f"{ht_checks} events) and top-row marginals equal the descent law "
        f"(lengths <= 8, {descent_checks} rows), all exact",
    )


def test_05_pushforward():
    pf = colorlab.EliminateFoursMeasure()
    for n in range(6):
        dist = pf.window(n)
        assert sum(dist.values()) == 1
        for w, p in dist.items():
            assert p > 0 and colorlab.is_proper(w) and set(w) <= {1, 2, 3}
    dep = colorlab.check_k_dependence(pf, k=3, nmax=5)
    criterion(
        5,
        dep.holds,
        "the recolored 3-color process has exact window distributions of "
        "mass 1 on proper words for n <= 5 and passes the k=3 dependence "
        "check at nmax=5",
    )


def test_06_gap_identity():
    started = time.perf_counter()
    rtol = gaplab.DEFAULT_RTOL
    assert rtol == 1e-8  # fixed: no caller can loosen the identity checks
    graphs = 0
    worst = 0.0
    for n in (2, 3, 4, 5):
        for g in gaplab.connected_graph_representatives(n):
            r = gaplab.gap_report(g)
            assert r.identity_ok and r.exclusion_constant and r.contraction_ok
            worst = max(worst, r.max_rel_deviation)
            graphs += 1
    rng = np.random.default_rng(2024)
    for _ in range(50):
        g = random_connected_graph(6, rng)
        r = gaplab.gap_report(g)
        assert r.identity_ok and r.exclusion_constant and r.contraction_ok
        worst = max(worst, r.max_rel_deviation)
        graphs += 1
    elapsed = time.perf_counter() - started
    criterion(
        6,
        elapsed < 600,
        f"interchange gap equals walk gap and all exclusion gaps on {graphs} "
        f"graphs (exhaustive n <= 5 classes + 50 weighted n=6); worst relative "
        f"deviation {worst:.2e} <= {rtol}, in {elapsed:.1f}s (budget 600s)",
    )


def test_07_octopus_psd():
    rng = np.random.default_rng(777)
    graphs = 0
    worst = 0.0
    while graphs < 100:
        n = int(rng.integers(3, 6))
        g = random_connected_graph(n, rng)
        graphs += 1
        for hub in range(n):
            if g.strength(hub) <= 0:
                continue
            form = gaplab.octopus_form(g, hub)
            low, high = gaplab.extreme_eigenvalues(form.matrix)
            norm = max(abs(low), abs(high))
            assert low >= -1e-9 * norm, f"hub {hub}: min eig {low} vs norm {norm}"
            worst = min(worst, low / norm)
    criterion(
        7,
        True,
        f"hub comparison form is PSD (min eig >= -1e-9 * norm) on 100 random "
        f"weighted graphs, n in 3..5, every hub; worst scaled eigenvalue {worst:.2e}",
    )


def test_08_reduction():
    series = gaplab.reduce_vertex(path_graph(3), 1)
    assert abs(series.weights[0, 1] - 0.5) <= 1e-12
    star = gaplab.reduce_vertex(star_graph(4), 0)
    assert np.abs(star.weights - (np.ones((3, 3)) / 3 - np.eye(3) / 3)).max() <= 1e-12
    rng = np.random.default_rng(31337)
    pairs = 0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(n, rng)
        lam = gaplab.spectral_gap(gaplab.rw_generator(g))
        for i in range(n):
            reduced = gaplab.reduce_vertex(g, i)
            if reduced.n < 2:
                continue
            lam_i = gaplab.spectral_gap(gaplab.rw_generator(reduced))
            assert lam_i >= lam - 1e-8 * lam
            pairs += 1
    criterion(
        8,
        True,
        "series (1,1 -> 1/2) and star (unit spokes -> 1/3 triangle) reductions "
        f"exact to 1e-12; walk gap monotone under {pairs} vertex removals "
        "within 1e-8 relative",
    )


def test_09_shuffle():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 6))
        g = random_connected_graph(n, rng)
        h = gaplab.HyperWeights(n, {
            frozenset({i, j}): g.weights[i, j] for i, j, _ in g.edges()
        })
        qs = gaplab.alpha_shuffle_generator(h).dense()
        qi = gaplab.interchange_generator(g).dense()
        worst = max(worst, float(np.abs(qs - 0.5 * qi).max()))
    assert worst <= 1e-12
    lines = []
    agreements = 0
    for idx in range(20):
        n = int(np.random.default_rng(9000 + idx).integers(3, 6))
        h = random_hyperweights(n, np.random.default_rng(100 + idx))
        out = gaplab.shuffle_gap_comparison(h)
        agreements += bool(out["shuffleIdentityOk"])
        lines.append(
            f"  hypergraph {idx:02d} (n={h.n}): shuffle {out['lambdaShuffle']:.10f} "
            f"vs walk {out['lambdaShuffleRW']:.10f} agree={out['shuffleIdentityOk']}"
        )
    print("\n".join(lines))
    criterion(
        9,
        True,
        f"pairs-only shuffle equals half the interchange exactly (max entry "
        f"error {worst:.2e} <= 1e-12); conjectured gap identity reported on 20 "
        f"hypergraphs ({agreements}/20 agree at 1e-8; informational only)",
    )


def test_10_simulator_statistics():
    # pure death: survival at t=10 is essentially zero
    cfg0 = ipslab.ContactConfig(0.0, length=11)
    est0 = ipslab.estimate_survival(cfg0, 10.0, 10_000, seed=101)
    assert est0.fraction < 0.01

    # supercritical: frozen floor from pilot runs (observed ~0.5)
    cfg2 = ipslab.ContactConfig(2.0, length=400)
    est2 = ipslab.estimate_survival(cfg2, 200.0, 500, seed=202)
    assert est2.fraction >= ipslab.SURVIVAL_FLOOR_SUPERCRITICAL

    # threshold births with the two-step neighborhood survive at rate 1
    cfgt = ipslab.threshold_config(1.0, length=400)
    estt = ipslab.estimate_survival(cfgt, 100.0, 60, seed=303)
    assert estt.fraction > 0

    # voter duality on the 10-cycle, adjacent pair
    rep = ipslab.duality_check(gaplab.cycle_graph(10), (0, 1), t=2.0, rho=0.5,
                               trials=100_000, seed=404)
    assert abs(rep.z_score) <= ipslab.DUALITY_Z_BOUND

    # consensus on the 20-cycle
    cfgv = ipslab.VoterConfig(gaplab.cycle_graph(20), rho=0.5)
    cons = ipslab.consensus_rate(cfgv, 1e4, 1000, seed=505)
    assert cons.rate >= ipslab.CONSENSUS_RATE_FLOOR

    criterion(
        10,
        True,
        f"desk-scale statistics: pure-death survival {est0.fraction:.4f} < 0.01; "
        f"rate-2 survival {est2.fraction:.3f} >= {ipslab.SURVIVAL_FLOOR_SUPERCRITICAL}; "
        f"threshold rate-1 survival {estt.fraction:.3f} > 0; duality |z| = "
        f"{abs(rep.z_score):.2f} <= 4 at 1e5 trials; consensus rate {cons.rate:.3f} "
        f">= {ipslab.CONSENSUS_RATE_FLOOR} (all thresholds pilot-frozen surrogates)",
    )


def test_11_determinism():
    cfg = ipslab.ContactConfig(1.5, length=80)
    a = ipslab.simulate_contact(cfg, (40,), 12.0, seed=7, record_dt=0.5)
    b = ipslab.simulate_contact(cfg, (40,), 12.0, seed=7, record_dt=0.5)
    assert a == b

    sa = ipslab.estimate_survival(cfg, 6.0, 80, seed=8)
    sb = ipslab.estimate_survival(cfg, 6.0, 80, seed=8)
    assert sa == sb

    vcfg = ipslab.VoterConfig(gaplab.cycle_graph(12), rho=0.5)
    va = ipslab.simulate_voter(vcfg, 30.0, seed=9, record_dt=1.0)
    vb = ipslab.simulate_voter(vcfg, 30.0, seed=9, record_dt=1.0)
    assert va == vb

    da = ipslab.duality_check(gaplab.cycle_graph(8), (0, 1), 1.5, 0.5, 2000, seed=10)
    db = ipslab.duality_check(gaplab.cycle_graph(8), (0, 1), 1.5, 0.5, 2000, seed=10)
    assert da == db

    ea = ipslab.right_edge_speed(1.5, 8.0, 10, seed=11, left_depth=40)
    eb = ipslab.right_edge_speed(1.5, 8.0, 10, seed=11, left_depth=40)
    assert ea == eb

    measure = colorlab.recursion_measure(4)
    wa = colorlab.sample_windows(measure, 6, 200, seed=12)
    wb = colorlab.sample_windows(measure, 6, 200, seed=12)
    assert wa == wb

    criterion(
        11,
        True,
        "contact trajectories, survival estimates, voter runs, duality "
        "reports, edge-speed fits, and exact sampling are bit-identical "
        "under repeated fixed-seed single-threaded runs",
    )
