import numpy as np
import pytest

from stochlab.gaplab import (
    CapacityError,
    HyperWeights,
    ReducibilityError,
    WeightedGraph,
    connected_graph_representatives,
    gap_report,
    path_graph,
    random_connected_graph,
    random_hyperweights,
    shuffle_gap_comparison,
)
from stochlab.gaplab import generators, report


class TestGapReport:
    def test_three_path(self):
        r = gap_report(path_graph(3))
        assert r.lambda_rw == pytest.approx(1.0, abs=1e-9)
        assert r.lambda_ip == pytest.approx(1.0, abs=1e-9)
        assert [pytest.approx(1.0, abs=1e-9)] * 2 == r.exclusion_gaps
        assert r.identity_ok and r.exclusion_constant and r.contraction_ok
        assert r.to_dict()["zeroEigCount"] == 1
        assert r.flags == []

    def test_identity_on_all_small_connected_graphs(self):
        for n in (2, 3, 4):
            for g in connected_graph_representatives(n):
                r = gap_report(g)
                assert r.identity_ok, f"deviation {r.max_rel_deviation} on n={n}"
                assert r.exclusion_constant

    def test_identity_on_random_weighted_graphs(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            g = random_connected_graph(5, rng)
            r = gap_report(g)
            assert r.identity_ok
            assert r.exclusion_constant
            assert r.contraction_ok

    def test_disconnected_rejected(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ReducibilityError):
            gap_report(g)

    def test_too_many_vertices_refused_before_any_dense_step(self, monkeypatch):
        def dense(_graph):
            raise AssertionError("the walk generator was built before the vertex count check")

        monkeypatch.setattr(report, "rw_generator", dense)
        with pytest.raises(CapacityError, match="2 to 8 vertices, got 9"):
            gap_report(path_graph(9))

    def test_no_dense_exclusion_matrix_is_built(self, monkeypatch):
        def dense(*_args):
            raise AssertionError("a dense exclusion matrix was built")

        # the name, and the builder that fills a dense exclusion matrix under any import
        monkeypatch.setattr(generators, "exclusion_generator", dense)
        monkeypatch.setattr(generators, "_MatrixBuilder", dense)
        rng = np.random.default_rng(2024)
        for g in [random_connected_graph(n, rng) for n in range(2, 9)]:
            r = gap_report(g)
            assert r.identity_ok and r.exclusion_constant and r.contraction_ok
            assert r.flags == [] and len(r.exclusion_gaps) == g.n - 1

    def test_dict_keys(self):
        d = gap_report(path_graph(3)).to_dict()
        assert list(d) == ["n", "lambdaRW", "lambdaIP", "exclusionGaps", "zeroEigCount",
                           "tolZero", "rtol", "identityOk", "exclusionConstant",
                           "contractionOk", "maxRelDeviation", "flags"]
        # the tolerances are fixed, and the reports carry them
        assert (d["zeroEigCount"], d["tolZero"], d["rtol"]) == (1, 1e-9, 1e-8)

    def test_with_shuffle_section(self):
        h = HyperWeights(3, {frozenset({0, 1, 2}): 1.0, frozenset({0, 1}): 0.5})
        g = path_graph(3)
        r = gap_report(g, hyper=h)
        assert r.lambda_shuffle is not None
        d = r.to_dict()
        assert "lambdaShuffle" in d and "lambdaShuffleRW" in d


class TestShuffleComparison:
    def test_pairs_only_agrees_exactly(self):
        # pairs-only shuffles are the interchange at half speed, where the
        # identity is a theorem rather than a conjecture
        rng = np.random.default_rng(17)
        g = random_connected_graph(4, rng)
        h = HyperWeights(4, {frozenset({i, j}): g.weights[i, j] for i, j, _ in g.edges()})
        out = shuffle_gap_comparison(h)
        assert out["shuffleIdentityOk"]

    def test_random_hypergraphs_reported(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            n = int(rng.integers(3, 6))
            h = random_hyperweights(n, rng)
            out = shuffle_gap_comparison(h)
            assert out["lambdaShuffle"] > 0
            assert out["lambdaShuffleRW"] > 0
            # conjectured identity: recorded, never asserted

    def test_zero_rates_flagged_degenerate(self):
        h = HyperWeights(3, {frozenset({0, 1}): 0.0})
        out = shuffle_gap_comparison(h)
        assert out["lambdaShuffle"] is None
        assert any("degenerate" in f for f in out["flags"])

    def test_disconnected_support_flagged(self):
        h = HyperWeights(4, {frozenset({0, 1}): 1.0})
        out = shuffle_gap_comparison(h)
        assert out["lambdaShuffle"] is None
        assert any("disconnected" in f for f in out["flags"])
