"""A graph's structure is read one way: ``WeightedGraph.edges`` from one
read of the weights' nonzero pattern (``graphs._nonzero``, a boolean mask
read a block of rows at a time), and connectivity from the component
labeller that ``spectral.extreme_eigenvalues`` also splits matrices by."""

import tracemalloc

import numpy as np
import pytest

from references import adjacency_lists, pair_edges, path_graph, random_connected_graph
from stochlab.gaplab import WeightedGraph
from stochlab.gaplab import graphs, spectral


@pytest.fixture(scope="module")
def path3000():
    return path_graph(3000)


def _reaches_all(graph: WeightedGraph) -> bool:
    """Whether vertex 0 reaches every vertex, by squaring the reachability
    relation until it holds every path."""
    reach = (graph.weights > 0) | np.eye(graph.n, dtype=bool)
    for _ in range(graph.n.bit_length()):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return bool(reach[0].all())


class TestEdges:
    def _check(self, g):
        got = list(g.edges())
        assert got == pair_edges(g)
        assert all(type(i) is int and type(j) is int for i, j, _ in got)  # JSON-ready

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_random_graphs_match_the_pair_loop(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(2, 10):
            self._check(random_connected_graph(n, rng, edge_prob=rng.uniform(0.2, 0.9)))

    def test_isolated_vertex(self):
        g = WeightedGraph.from_edges(5, [(0, 3, 0.25), (1, 3, 2.0), (0, 1, 1e-300)])
        self._check(g)
        assert list(g.edges()) == [(0, 1, 1e-300), (0, 3, 0.25), (1, 3, 2.0)]

    def test_one_and_two_vertices(self):
        self._check(WeightedGraph(np.zeros((1, 1))))
        assert list(WeightedGraph(np.zeros((1, 1))).edges()) == []
        self._check(WeightedGraph(np.zeros((2, 2))))
        self._check(WeightedGraph.from_edges(2, [(0, 1, 0.5)]))
        assert list(WeightedGraph.from_edges(2, [(0, 1, 0.5)]).edges()) == [(0, 1, 0.5)]

    def test_no_dense_copy(self, path3000):
        # an n^2 temporary at n = 3000 would take 72 MB (floats) or 9 MB (bools)
        tracemalloc.start()
        try:
            edges = list(path3000.edges())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert edges == [(i, i + 1, 1.0) for i in range(2999)]
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestAdjacency:
    """The CSR arrays the voter kernel and the walks index: each vertex's
    neighbors ascending, as the event-loop witnesses' lists hold them, so
    both read a neighbor pick ``int(u deg)`` as the same vertex."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_are_the_adjacency_lists(self, seed):
        rng = np.random.default_rng(seed)
        graphs = [random_connected_graph(n, rng, edge_prob=rng.uniform(0.2, 0.9))
                  for n in range(2, 10)]
        for g in graphs + [WeightedGraph(np.zeros((1, 1))), path_graph(7)]:
            neighbors, degree, first = g.adjacency()
            rows = [neighbors[f:f + d].tolist() for f, d in zip(first, degree)]
            assert rows == adjacency_lists(g)
            assert all(row == sorted(row) for row in rows)


class TestConnectivity:
    def test_no_vertices(self):
        assert not WeightedGraph(np.zeros((0, 0))).is_connected

    def test_one_vertex(self):
        assert WeightedGraph(np.zeros((1, 1))).is_connected

    def test_isolated_vertex(self):
        assert not WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 3, 1.0)]).is_connected

    def test_two_components(self):
        assert not WeightedGraph.from_edges(5, [(0, 4, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).is_connected

    def test_long_path(self, path3000):
        assert path3000.is_connected
        cut = path3000.weights.copy()
        cut[1500, 1501] = cut[1501, 1500] = 0.0
        assert not WeightedGraph(cut).is_connected

    def test_sparse_random_graphs_match_reachability(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            upper = np.triu(rng.random((n, n)) < 0.25, 1) * rng.random((n, n))
            g = WeightedGraph(upper + upper.T)
            assert g.is_connected == _reaches_all(g)

    def test_one_labeller(self):
        assert spectral._components is graphs._components


def _patterns():
    """Seeded random square matrices, n = 0..9, with the cases a boolean
    mask could read differently from ``np.nonzero``: entries of -0.0 and
    NaN, and entries above the diagonal only."""
    rng = np.random.default_rng(23)
    out = [np.zeros((0, 0)), np.zeros((1, 1)), np.full((1, 1), np.nan), np.full((1, 1), -0.0)]
    for _ in range(60):
        n = int(rng.integers(1, 10))
        upper = np.triu(rng.random((n, n)) < 0.3, 1) * rng.random((n, n))
        upper[np.triu(rng.random((n, n)) < 0.15, 1)] = -0.0
        upper[np.triu(rng.random((n, n)) < 0.05, 1)] = np.nan
        out += [np.where(np.tri(n, dtype=bool), upper.T, upper), upper]
    return out


class TestPatternReader:
    """``graphs._nonzero`` against ``np.nonzero``, with the matrix read as
    one block (the default), a few rows at a time, and one row at a time."""

    @pytest.fixture(params=[None, 16, 1], ids=["one-block", "few-rows", "one-row"])
    def mask_bytes(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(graphs, "MASK_BYTES", request.param)

    def test_indices_equal_nonzero(self, mask_bytes):
        for matrix in _patterns():
            got, want = graphs._nonzero(matrix), np.nonzero(matrix)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_components_equal_the_nonzero_labeller(self, mask_bytes, monkeypatch):
        matrices = [m for m in _patterns() if m.size]
        got = [graphs._components(m) for m in matrices]
        monkeypatch.setattr(graphs, "_nonzero", np.nonzero)
        for m, g in zip(matrices, got):
            for a, b in zip(g, graphs._components(m)):
                assert np.array_equal(a, b), m

    def test_edges_equal_the_nonzero_edges(self, mask_bytes, monkeypatch):
        graphs_ = [WeightedGraph(m) for m in _patterns()
                   if np.isfinite(m).all() and np.array_equal(m, m.T)]
        got = [list(g.edges()) for g in graphs_]
        monkeypatch.setattr(graphs, "_nonzero", np.nonzero)
        assert got == [list(g.edges()) for g in graphs_]
        assert any(np.signbit(g.weights).any() for g in graphs_)  # -0.0 weights were read
