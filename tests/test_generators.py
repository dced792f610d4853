import itertools

import numpy as np
import pytest

from references import LehmerPermutationSpace
from stochlab.gaplab import (
    CapacityError,
    HyperWeights,
    alpha_shuffle_generator,
    alpha_single_particle_rates,
    complete_graph,
    exclusion_generator,
    interchange_generator,
    octopus_form,
    path_graph,
    random_connected_graph,
    random_hyperweights,
    rw_generator,
    shuffle_gap_comparison,
    single_edge,
    star_graph,
)
from stochlab.gaplab import generators, reduction


def assert_valid_generator(op, atol=1e-12):
    q = op.dense()
    norm = np.abs(q).max() or 1.0
    assert np.abs(q - q.T).max() <= atol * norm
    assert np.abs(q.sum(axis=1)).max() <= atol * norm
    off = q - np.diag(np.diag(q))
    assert off.min() >= 0


def brute_force_interchange(graph):
    """Independent construction: compare every pair of label assignments."""
    states = list(itertools.permutations(range(graph.n)))
    dim = len(states)
    q = np.zeros((dim, dim))
    for r, a in enumerate(states):
        for c, b in enumerate(states):
            if r == c:
                continue
            diff = [v for v in range(graph.n) if a[v] != b[v]]
            if len(diff) == 2:
                i, j = diff
                if a[i] == b[j] and a[j] == b[i] and graph.weights[i, j] > 0:
                    q[r, c] = graph.weights[i, j]
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


class TestInterchange:
    def test_two_state_matrix(self):
        op = interchange_generator(single_edge(2.0))
        assert np.array_equal(op.dense(), np.array([[-2.0, 2.0], [2.0, -2.0]]))

    def test_matches_brute_force_construction(self):
        for graph in (path_graph(3), complete_graph(4),
                      random_connected_graph(4, np.random.default_rng(1))):
            op = interchange_generator(graph)
            assert np.allclose(op.dense(), brute_force_interchange(graph), atol=0)

    def test_states_are_lehmer_ranked(self):
        op = interchange_generator(path_graph(3))
        assert op.states == tuple(itertools.permutations(range(3)))

    def test_generator_invariants(self):
        for seed in range(4):
            g = random_connected_graph(5, np.random.default_rng(seed))
            assert_valid_generator(interchange_generator(g))

    def test_capacity_limits(self):
        # the dense witness stops at 6! = 720 states; larger n use the blocks
        with pytest.raises(CapacityError):
            interchange_generator(path_graph(7))
        with pytest.raises(ValueError):
            interchange_generator(path_graph(1))

    def test_six_vertices_is_the_dense_limit(self):
        op = interchange_generator(path_graph(6))
        assert isinstance(op.matrix, np.ndarray) and op.dim == 720
        assert np.array_equal(op.matrix, op.matrix.T)
        assert np.abs(op.matrix.sum(axis=1)).max() <= 1e-12


class TestRandomWalk:
    def test_negated_laplacian(self):
        q = rw_generator(path_graph(3)).matrix
        expected = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        assert np.array_equal(q, expected)

    def test_invariants(self):
        for seed in range(4):
            g = random_connected_graph(6, np.random.default_rng(seed + 10))
            assert_valid_generator(rw_generator(g))


class TestExclusion:
    def test_one_particle_is_the_walk(self):
        for graph in (path_graph(4), complete_graph(4)):
            ex = exclusion_generator(graph, 1)
            assert ex.states == tuple((i,) for i in range(graph.n))
            assert np.array_equal(ex.dense(), rw_generator(graph).matrix)

    def test_transition_structure(self):
        op = exclusion_generator(path_graph(3), 2)
        idx = {s: r for r, s in enumerate(op.states)}
        q = op.dense()
        # {0,1} <-> {0,2} via edge (1,2); {0,2} <-> {1,2} via edge (0,1)
        assert q[idx[(0, 1)], idx[(0, 2)]] == 1.0
        assert q[idx[(0, 1)], idx[(1, 2)]] == 0.0
        assert q[idx[(0, 2)], idx[(1, 2)]] == 1.0

    def test_particle_hole_symmetry(self):
        g = random_connected_graph(5, np.random.default_rng(2))
        for k in (1, 2):
            a = np.linalg.eigvalsh(-exclusion_generator(g, k).dense())
            b = np.linalg.eigvalsh(-exclusion_generator(g, g.n - k).dense())
            assert np.allclose(a, b, atol=1e-10)

    def test_bad_particle_counts(self):
        g = path_graph(4)
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                exclusion_generator(g, k)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            exclusion_generator(path_graph(30), 15)

    def test_invariants(self):
        g = random_connected_graph(5, np.random.default_rng(3))
        for k in range(1, 5):
            assert_valid_generator(exclusion_generator(g, k))


class TestAlphaShuffle:
    def test_full_triple_matrix(self):
        h = HyperWeights(3, {frozenset({0, 1, 2}): 1.0})
        op = alpha_shuffle_generator(h)
        q = op.dense()
        # uniform rearrangement: every state reachable at rate 1/6
        assert np.allclose(q, np.full((6, 6), 1 / 6) - np.eye(6))

    def test_pairs_only_is_half_the_interchange(self):
        for seed in range(5):
            g = random_connected_graph(4, np.random.default_rng(seed + 20))
            h = HyperWeights(4, {
                frozenset({i, j}): g.weights[i, j] for i, j, _ in g.edges()
            })
            qs = alpha_shuffle_generator(h).dense()
            qi = interchange_generator(g).dense()
            assert np.array_equal(qs, 0.5 * qi)

    def test_zero_rates_give_zero_generator(self):
        h = HyperWeights(3, {frozenset({0, 1}): 0.0})
        assert np.abs(alpha_shuffle_generator(h).dense()).max() == 0

    def test_invariants(self):
        h = HyperWeights(4, {
            frozenset({0, 1, 2}): 0.7,
            frozenset({1, 3}): 1.3,
            frozenset({0, 1, 2, 3}): 0.2,
        })
        assert_valid_generator(alpha_shuffle_generator(h))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            alpha_shuffle_generator(HyperWeights(7, {frozenset({0, 1}): 1.0}))
        # seven and eight vertices go to the irrep blocks; pairs-only rates
        # make the gap a theorem
        for n in (7, 8):
            h = HyperWeights(n, {frozenset({i, i + 1}): 1.0 + 0.1 * i for i in range(n - 1)})
            assert shuffle_gap_comparison(h)["shuffleIdentityOk"] is True
        with pytest.raises(CapacityError):
            shuffle_gap_comparison(HyperWeights(9, {frozenset({i, i + 1}): 1.0 for i in range(8)}))


class TestSingleParticleRates:
    def test_full_triple(self):
        h = HyperWeights(3, {frozenset({0, 1, 2}): 1.0})
        w = alpha_single_particle_rates(h).weights
        for i in range(3):
            for j in range(3):
                assert w[i, j] == (0.0 if i == j else pytest.approx(1 / 3))

    def test_pairs_give_half(self):
        h = HyperWeights(3, {frozenset({0, 1}): 0.8})
        w = alpha_single_particle_rates(h).weights
        assert w[0, 1] == pytest.approx(0.4)
        assert w[0, 2] == 0.0

    def test_empty_rates(self):
        assert np.abs(alpha_single_particle_rates(HyperWeights(3, {})).weights).max() == 0


class TestMemoizedMoves:
    """The builders read each relabeling's entries from a memoized move map;
    ranking every move afresh (``references.LehmerPermutationSpace``) must
    give the same matrices byte for byte."""

    @staticmethod
    def _both(monkeypatch, build):
        memoized = build()
        with monkeypatch.context() as m:
            m.setattr(generators, "_PermutationSpace", LehmerPermutationSpace)
            m.setattr(reduction, "_PermutationSpace", LehmerPermutationSpace)
            fresh = build()
        assert memoized.states == fresh.states
        assert memoized.matrix.tobytes() == fresh.matrix.tobytes()

    @staticmethod
    def _graphs(n):
        rng = np.random.default_rng(100 + n)
        return [path_graph(n), complete_graph(n, 0.5), star_graph(n, 1.5),
                *(random_connected_graph(n, rng, edge_prob=p) for p in (0.4, 0.8))]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_interchange_generator(self, monkeypatch, n):
        for g in self._graphs(n):
            self._both(monkeypatch, lambda: interchange_generator(g))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_alpha_shuffle_generator(self, monkeypatch, n):
        rng = np.random.default_rng(200 + n)
        hypers = [HyperWeights(n, {frozenset(range(n)): 0.75})]  # 6 vertices: 719 arrangements
        for _ in range(3):
            hypers.append(random_hyperweights(n, rng))
        for h in hypers:
            self._both(monkeypatch, lambda: alpha_shuffle_generator(h))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_octopus_form_at_every_hub(self, monkeypatch, n):
        for g in self._graphs(n):
            for hub in range(n):
                self._both(monkeypatch, lambda: octopus_form(g, hub))

    def test_memoized_arrays_are_read_only(self):
        states, perms = generators._permutations(4)
        flat = generators._move_map(4, (1, 0, 2, 3))
        with pytest.raises(ValueError, match="read-only"):
            perms[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            flat[0] = 0
        assert states == tuple(itertools.permutations(range(4)))
        assert generators._move_map(4, (1, 0, 2, 3)) is flat
