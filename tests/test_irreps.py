import itertools
import math
import time

import numpy as np
import pytest

from stochlab import gaplab
from stochlab.gaplab import irreps
from stochlab.gaplab.reduction import _hub_coefficients


def edge_coeffs(graph):
    return {(i, j): w for i, j, w in graph.edges()}


def full_spectrum(blocks):
    """The n!-state spectrum: each block's eigenvalues repeated d_lambda times."""
    return np.sort(np.concatenate([np.repeat(ev, len(ev)) for _, ev in blocks]))


def assert_matches_dense(blocks, matrix):
    dense = np.linalg.eigvalsh(matrix)
    radius = np.abs(dense).max()
    assert np.abs(full_spectrum(blocks) - dense).max() <= 1e-12 * radius


class TestYoungOrthogonalForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_coxeter_relations(self, n):
        for shape in irreps.partitions(n):
            s = irreps.adjacent_transpositions(shape)
            eye = np.eye(len(irreps.standard_tableaux(shape)))
            for k in range(n - 1):
                assert np.abs(s[k] @ s[k] - eye).max() <= 1e-14
                assert np.array_equal(s[k], s[k].T)
                for m in range(k + 2, n - 1):
                    assert np.abs(s[k] @ s[m] - s[m] @ s[k]).max() <= 1e-14
            for k in range(n - 2):
                braid = s[k] @ s[k + 1] @ s[k] - s[k + 1] @ s[k] @ s[k + 1]
                assert np.abs(braid).max() <= 1e-14

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dimensions_square_to_the_group_order(self, n):
        tables = irreps.transposition_tables(n)
        assert list(tables) == irreps.partitions(n)
        assert sum(t.shape[1] ** 2 for t in tables.values()) == math.factorial(n)
        assert all(t.shape[0] == math.comb(n, 2) for t in tables.values())

    def test_partition_and_tableau_counts(self):
        assert [len(irreps.partitions(n)) for n in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]
        assert irreps.standard_tableaux((2, 1)) == [(0, 0, 1), (0, 1, 0)]
        # hook length formula for (3, 2): 5! / (4 * 3 * 1 * 2 * 1)
        assert len(irreps.standard_tableaux((3, 2))) == 5

    def test_transpositions_are_conjugate_involutions(self):
        n = 5
        for shape, table in irreps.transposition_tables(n).items():
            eye = np.eye(table.shape[1])
            for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
                assert np.abs(table[k] @ table[k] - eye).max() <= 1e-13
                # every transposition has the same trace (a class function)
                assert np.trace(table[k]) == pytest.approx(np.trace(table[0]), abs=1e-12)
            assert not table.flags.writeable

    def test_capacity(self):
        for n in (1, 9):
            with pytest.raises(gaplab.CapacityError):
                irreps.transposition_tables(n)


class TestBlockSpectra:
    def test_standard_block_is_the_walk(self):
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            g = gaplab.random_connected_graph(n, rng)
            shape, standard = irreps.block_spectrum(n, edge_coeffs(g))[1]
            assert shape == (n - 1, 1)
            walk = np.linalg.eigvalsh(-gaplab.rw_generator(g).matrix)[1:]
            assert np.abs(standard - walk).max() <= 1e-12 * walk[-1]

    def test_criterion_06_graphs_match_dense_interchange(self):
        graphs = [g for n in (2, 3, 4, 5) for g in gaplab.connected_graph_representatives(n)]
        rng = np.random.default_rng(2024)
        graphs += [gaplab.random_connected_graph(6, rng) for _ in range(50)]
        for g in graphs:
            blocks = irreps.block_spectrum(g.n, edge_coeffs(g))
            assert_matches_dense(blocks, -gaplab.interchange_generator(g).matrix)

    def test_criterion_07_graphs_match_dense_hub_forms(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            g = gaplab.random_connected_graph(n, rng)
            for hub in range(n):
                if g.strength(hub) <= 0:
                    continue
                star, coeff = _hub_coefficients(g, hub)
                labeled = {(star[a], star[b]): c for (a, b), c in coeff.items()}
                blocks = irreps.block_spectrum(n, labeled)
                assert_matches_dense(blocks, gaplab.octopus_form(g, hub).matrix)

    def test_criterion_09_hypergraphs_match_dense_shuffles(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            g = gaplab.random_connected_graph(n, rng)
            pairs = {frozenset({i, j}): w for i, j, w in g.edges()}
            blocks = irreps.block_spectrum(n, subset_rates=pairs)
            assert_matches_dense(blocks, -gaplab.alpha_shuffle_generator(
                gaplab.HyperWeights(n, pairs)).matrix)
        for idx in range(20):
            n = int(np.random.default_rng(9000 + idx).integers(3, 6))
            h = gaplab.random_hyperweights(n, np.random.default_rng(100 + idx))
            blocks = irreps.block_spectrum(h.n, subset_rates=h.rates)
            assert_matches_dense(blocks, -gaplab.alpha_shuffle_generator(h).matrix)


class TestYoungsRule:
    """The k-particle exclusion process is the interchange process seen on
    k-subsets: its permutation module holds the irreps (n - j, j),
    j <= min(k, n - k), once each, which is where ``gap_report`` reads the
    exclusion gaps from.  The dense exclusion generator is the witness."""

    @staticmethod
    def check_against_dense(graphs):
        cases = 0
        for g in graphs:
            n = g.n
            blocks = dict(irreps.block_spectrum(n, edge_coeffs(g)))
            report = gaplab.gap_report(g)
            for k in range(1, n):
                dense = np.linalg.eigvalsh(-gaplab.exclusion_generator(g, k).dense())
                shapes = [(n - j, j) if j else (n,) for j in range(min(k, n - k) + 1)]
                union = np.sort(np.concatenate([blocks[shape] for shape in shapes]))
                assert len(union) == math.comb(n, k)
                radius = np.abs(dense).max()
                assert np.abs(union - dense).max() <= 1e-12 * radius
                assert report.exclusion_gaps[k - 1] == pytest.approx(dense[1], rel=1e-12)
                cases += 1
        return cases

    def test_exclusion_spectra_are_unions_of_two_row_blocks(self):
        rng = np.random.default_rng(1717)
        graphs = [gaplab.random_connected_graph(n, rng) for n in range(3, 9) for _ in range(4)]
        assert self.check_against_dense(graphs) == 108

    def test_criterion_06_graphs_match_dense_exclusion(self):
        # every class at n <= 5 and 50 weighted graphs at n = 6
        graphs = [g for n in (2, 3, 4, 5) for g in gaplab.connected_graph_representatives(n)]
        rng = np.random.default_rng(2024)
        graphs += [gaplab.random_connected_graph(6, rng) for _ in range(50)]
        assert self.check_against_dense(graphs) == 357


class TestLargeReports:
    def test_seven_cycle_gap(self):
        report = gaplab.gap_report(gaplab.cycle_graph(7))
        assert report.lambda_ip == pytest.approx(2 - 2 * math.cos(2 * math.pi / 7), rel=1e-12)
        assert report.identity_ok and report.flags == []

    def test_eight_vertex_report_under_a_second(self):
        g = gaplab.random_connected_graph(8, np.random.default_rng(8))
        started = time.perf_counter()
        report = gaplab.gap_report(g)
        elapsed = time.perf_counter() - started
        assert report.identity_ok and report.exclusion_constant and report.flags == []
        assert elapsed < 1.0

    def test_standard_block_mismatch_is_flagged(self, monkeypatch):
        def shifted(n, coeffs=None, subset_rates=None):
            blocks = irreps.block_spectrum(n, coeffs, subset_rates)
            shape, ev = blocks[1]
            return [blocks[0], (shape, ev * 1.5)] + blocks[2:]

        monkeypatch.setattr(gaplab.report, "block_spectrum", shifted)
        report = gaplab.gap_report(gaplab.path_graph(4))
        assert any("(3, 1)" in flag for flag in report.flags)
