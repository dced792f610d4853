import numpy as np
import pytest

from references import (
    complete_graph,
    dirichlet_form,
    embedded_reduced_graph,
    path_graph,
    random_connected_graph,
    single_edge,
    star_graph,
)
from stochlab.gaplab import (
    CapacityError,
    WeightedGraph,
    extreme_eigenvalues,
    interchange_generator,
    octopus_extremes,
    octopus_form,
    reduce_vertex,
    rw_generator,
    spectral_gap,
)


class TestReduceVertex:
    def test_series_reduction(self):
        g = reduce_vertex(path_graph(3), 1)
        assert g.n == 2
        assert abs(g.weights[0, 1] - 0.5) <= 1e-12

    def test_star_to_triangle(self):
        g = reduce_vertex(star_graph(4), 0)
        assert g.n == 3
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(g.weights[i, j] - 1 / 3) <= 1e-12

    def test_leaf_removal_changes_nothing_else(self):
        g = path_graph(4)
        reduced = reduce_vertex(g, 3)  # leaf: single neighbor
        assert np.array_equal(reduced.weights, path_graph(3).weights)

    def test_isolated_vertex_rejected(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            reduce_vertex(g, 2)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_vertex(path_graph(3), 5)

    def test_walk_gap_monotone_under_reduction(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(n, rng)
            lam = spectral_gap(rw_generator(g))
            for i in range(n):
                if g.strength(i) <= 0:
                    continue
                reduced = reduce_vertex(g, i)
                if reduced.n < 2 or not reduced.is_connected:
                    continue
                lam_i = spectral_gap(rw_generator(reduced))
                assert lam_i >= lam - 1e-8 * lam


class TestOctopusForm:
    def test_single_edge_spectrum(self):
        op = octopus_form(single_edge(1.5), 0)
        lo, hi = extreme_eigenvalues(op.dense())
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_zero_row_sums(self):
        g = random_connected_graph(4, np.random.default_rng(0))
        c = octopus_form(g, 1).dense()
        assert np.abs(c - c.T).max() <= 1e-12
        assert np.abs(c.sum(axis=1)).max() <= 1e-12

    def test_k3_is_psd(self):
        c = octopus_form(complete_graph(3), 0).dense()
        lo, hi = extreme_eigenvalues(c)
        assert lo >= -1e-9 * max(abs(lo), abs(hi))

    def test_psd_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(3, 6))
            g = random_connected_graph(n, rng)
            hub = int(rng.integers(0, n))
            if g.strength(hub) <= 0:
                continue
            c = octopus_form(g, hub).dense()
            lo, hi = extreme_eigenvalues(c)
            norm = max(abs(lo), abs(hi))
            assert lo >= -1e-9 * norm

    def test_matches_generator_difference(self):
        # C must equal (-Q_G) - (-Q_reduced) with the reduced graph embedded
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            g = random_connected_graph(n, rng)
            hub = int(rng.integers(0, n))
            if g.strength(hub) <= 0:
                continue
            c = octopus_form(g, hub).dense()
            q_full = interchange_generator(g).dense()
            q_reduced = interchange_generator(embedded_reduced_graph(g, hub)).dense()
            diff = (-q_full) - (-q_reduced)
            assert np.abs(c - diff).max() <= 1e-12 * max(1.0, np.abs(c).max())

    def test_reduced_energy_below_full_energy(self):
        # averaging the reduced form never exceeds the full form
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            g = random_connected_graph(n, rng)
            hub = int(rng.integers(0, n))
            if g.strength(hub) <= 0:
                continue
            full = interchange_generator(g)
            reduced = interchange_generator(embedded_reduced_graph(g, hub))
            for _ in range(5):
                f = rng.uniform(-1.0, 1.0, size=len(full.states))
                assert dirichlet_form(reduced, f) <= dirichlet_form(full, f) + 1e-9

    def test_isolated_hub_rejected(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            octopus_form(g, 2)

    def test_extremes_from_blocks_match_the_dense_form(self):
        rng = np.random.default_rng(13)
        for n in (3, 4, 5, 6):
            g = random_connected_graph(n, rng)
            for hub in range(n):
                if g.strength(hub) > 0:
                    dense = extreme_eigenvalues(octopus_form(g, hub).matrix)
                    blocks = octopus_extremes(g, hub)
                    assert np.allclose(blocks, dense, rtol=0, atol=1e-12 * abs(dense[1]))

    def test_seven_and_eight_vertices_use_the_blocks(self):
        with pytest.raises(CapacityError):
            octopus_form(path_graph(7), 3)
        for n in (7, 8):
            lo, hi = octopus_extremes(path_graph(n), 3)
            assert lo >= -1e-9 * max(abs(lo), abs(hi))
        # the blocks are Sym(S)'s, S = {hub} u N(hub): capped by degree, not by n
        lo, hi = octopus_extremes(path_graph(9), 3)
        assert lo >= -1e-9 * max(abs(lo), abs(hi))
        with pytest.raises(CapacityError):
            octopus_extremes(star_graph(9), 0)

    def test_criterion_07_on_large_bounded_degree_graphs(self):
        # each hub's form equals, up to multiplicity, the dense form of its
        # star alone: the spokes of S = {hub} u N(hub), relabeled 0..|S|-1.
        # Degrees are capped at 4, and at 5 for vertex 0 (a 720-state witness)
        rng = np.random.default_rng(2121)
        sizes = []
        for _ in range(8):
            n = int(rng.integers(20, 51))
            cap = np.full(n, 4)
            cap[0] = 5
            w = np.zeros((n, n))
            for _ in range(2 * n):
                a, b = rng.choice(n, size=2, replace=False)
                degree = (w > 0).sum(axis=1)
                if w[a, b] == 0 and degree[a] < cap[a] and degree[b] < cap[b]:
                    w[a, b] = w[b, a] = 1.0 - rng.random()
            g = WeightedGraph(w)
            for hub in range(n):
                star = sorted(np.flatnonzero(w[hub] > 0).tolist() + [hub])
                if len(star) < 2:
                    continue
                at = star.index(hub)
                witness = WeightedGraph.from_edges(
                    len(star), [(at, a, w[hub, v]) for a, v in enumerate(star) if v != hub])
                dense = extreme_eigenvalues(octopus_form(witness, at).matrix)
                lo, hi = octopus_extremes(g, hub)
                assert np.allclose((lo, hi), dense, rtol=0, atol=1e-12 * abs(dense[1]))
                assert lo >= -1e-9 * hi
                sizes.append(len(star))
        assert len(sizes) >= 200 and set(sizes) == {2, 3, 4, 5, 6}
