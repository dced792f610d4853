import itertools
import re

import numpy as np
import pytest

from references import dirichlet_form, variance
from stochlab.gaplab import (
    ReducibilityError,
    WeightedGraph,
    block_gap,
    block_spectrum,
    complete_graph,
    exclusion_generator,
    extreme_eigenvalues,
    interchange_generator,
    path_graph,
    random_connected_graph,
    rw_generator,
    single_edge,
    spectral_gap,
)


class TestSpectralGap:
    def test_two_state_chain(self):
        assert spectral_gap(interchange_generator(single_edge(1.3))) == pytest.approx(2.6)

    def test_complete_graph_walk(self):
        for n in (3, 4, 5, 6):
            gap = spectral_gap(rw_generator(complete_graph(n)))
            assert gap == pytest.approx(n, abs=1e-9)

    def test_path_walk_gap(self):
        # eigenvalues of the negated generator on the 3-path are {0, 1, 3}
        assert spectral_gap(rw_generator(path_graph(3))) == pytest.approx(1.0, abs=1e-9)

    def test_k3_interchange(self):
        assert spectral_gap(interchange_generator(complete_graph(3))) == pytest.approx(3.0, abs=1e-9)

    def test_disconnected_raises(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ReducibilityError):
            spectral_gap(rw_generator(g))

    def test_zero_generator_raises(self):
        with pytest.raises(ReducibilityError):
            spectral_gap(rw_generator(WeightedGraph(np.zeros((3, 3)))))

    def test_connected_has_simple_zero(self):
        # spectral_gap raises unless exactly one eigenvalue is zero
        for seed in range(4):
            g = random_connected_graph(5, np.random.default_rng(seed))
            assert spectral_gap(interchange_generator(g)) > 0


class TestBlockGap:
    def test_seven_vertex_path_matches_walk(self):
        g = path_graph(7)
        gap_ip = block_gap(block_spectrum(7, {(i, j): w for i, j, w in g.edges()}))
        gap_rw = spectral_gap(rw_generator(g))
        assert gap_ip == pytest.approx(gap_rw, rel=1e-8)
        assert gap_ip == pytest.approx(2 - 2 * np.cos(np.pi / 7), rel=1e-12)

    def test_agrees_with_dense_on_small_case(self):
        g = random_connected_graph(5, np.random.default_rng(8))
        blocks = block_spectrum(5, {(i, j): w for i, j, w in g.edges()})
        assert block_gap(blocks) == pytest.approx(spectral_gap(interchange_generator(g)),
                                                  rel=1e-12)

    def test_disconnected_raises_at_seven_vertices(self):
        g = WeightedGraph.from_edges(
            7, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0)]
        )
        with pytest.raises(ReducibilityError):
            block_gap(block_spectrum(7, {(i, j): w for i, j, w in g.edges()}))

    def test_zero_operator_raises(self):
        with pytest.raises(ReducibilityError):
            block_gap(block_spectrum(4))


def _symmetric(rng, size):
    a = rng.normal(size=(size, size))
    return a + a.T


def _path(rng, size):
    # connected through its neighbors only, not through its least index
    off = rng.normal(size=size - 1)
    return np.diag(rng.normal(size=size)) + np.diag(off, 1) + np.diag(off, -1)


class TestExtremeEigenvalues:
    def test_relabeled_blocks_match_the_whole(self):
        rng = np.random.default_rng(20)
        for sizes, kinds in itertools.product(
                ([1, 2, 2, 3, 5, 5, 8, 8], [4, 1, 1, 7], [3] * 6, [6] * 5),
                ((_symmetric,), (_path,), (_symmetric, _path))):
            m = np.zeros((sum(sizes), sum(sizes)))
            start = 0
            for b, size in enumerate(sizes):
                block = kinds[b % len(kinds)](rng, size)
                m[start:start + size, start:start + size] = block
                start += size
            perm = rng.permutation(len(m))
            m = m[np.ix_(perm, perm)]
            whole = np.linalg.eigvalsh(m)
            got = extreme_eigenvalues(m)
            tol = 1e-12 * np.linalg.norm(m, 2)
            assert abs(got[0] - whole[0]) <= tol and abs(got[1] - whole[-1]) <= tol

    def test_zero_rows_are_one_by_one_blocks(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(4, 4))
        m = np.zeros((7, 7))
        keep = [0, 3, 4, 6]
        block = a @ a.T + np.eye(4)
        m[np.ix_(keep, keep)] = block
        assert extreme_eigenvalues(m) == (0.0, np.linalg.eigvalsh(block)[-1])
        assert extreme_eigenvalues(-m) == (np.linalg.eigvalsh(-block)[0], 0.0)
        assert extreme_eigenvalues(np.zeros((3, 3))) == (0.0, 0.0)

    def test_connected_matrix_is_solved_whole(self):
        rng = np.random.default_rng(22)
        tridiagonal = np.diag(rng.normal(size=9)) + np.diag(np.ones(8), 1) + np.diag(np.ones(8), -1)
        for m in (_symmetric(rng, 12), tridiagonal, np.array([[2.5]])):
            assert extreme_eigenvalues(m) == tuple(np.linalg.eigvalsh(m)[[0, -1]])

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,), (0, 3), (2, 2, 2)])
    def test_empty_or_non_square_is_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            extreme_eigenvalues(np.ones(shape))


class TestDirichletForm:
    def test_constant_vector(self):
        op = interchange_generator(complete_graph(3))
        f = np.ones(op.dim)
        assert dirichlet_form(op, f) == pytest.approx(0.0, abs=1e-14)
        assert variance(f) == pytest.approx(0.0, abs=1e-14)

    def test_gap_eigenvector_achieves_the_gap(self):
        op = interchange_generator(single_edge(1.7))
        f = np.array([1.0, -1.0])
        assert dirichlet_form(op, f) / variance(f) == pytest.approx(3.4)

    def test_rayleigh_quotient_bounded_below_by_gap(self):
        op = interchange_generator(complete_graph(3))
        gap = spectral_gap(op)
        rng = np.random.default_rng(4)
        for _ in range(25):
            f = rng.standard_normal(op.dim)
            f -= f.mean()  # project out the trivial eigenvector
            if variance(f) < 1e-12:
                continue
            assert dirichlet_form(op, f) / variance(f) >= gap - 1e-9

    def test_variational_gap_on_eigenvector(self):
        g = random_connected_graph(4, np.random.default_rng(6))
        op = exclusion_generator(g, 2)
        vals, vecs = np.linalg.eigh(-op.dense())
        gap_vec = vecs[:, 1]
        ratio = dirichlet_form(op, gap_vec) / variance(gap_vec)
        assert ratio == pytest.approx(spectral_gap(op), rel=1e-9)

    def test_dimension_mismatch(self):
        op = interchange_generator(single_edge())
        with pytest.raises(ValueError):
            dirichlet_form(op, np.ones(3))
