import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    complete_graph,
    format_network,
    path_graph,
    random_connected_graph,
    star_graph,
)

from stochlab.gaplab import (
    GraphFormatError,
    HyperWeights,
    WeightedGraph,
    connected_graph_representatives,
    cycle_graph,
    parse_network,
)
from stochlab.gaplab import graphs


class TestWeightedGraph:
    def test_asymmetric_rejected(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        with pytest.raises(ValueError):
            WeightedGraph(w)

    @pytest.mark.parametrize("i, j", [(298, 299), (299, 297), (0, 299), (299, 127)])
    def test_one_asymmetric_entry_in_any_tile_rejected(self, i, j):
        # the symmetry check reads 128 x 128 tiles; 300 vertices leave a
        # partial last tile, which holds every pair here but (0, 299) and (299, 127)
        w = path_graph(300).weights.copy()
        w[i, j] += 0.5
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph(w)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 1, -1.0)])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(np.eye(3))

    def test_connectivity(self):
        assert path_graph(5).is_connected
        assert not WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]).is_connected
        assert not WeightedGraph(np.zeros((3, 3))).is_connected

    def test_edges_and_strength(self):
        g = star_graph(4, 2.0)
        assert sorted(g.edges()) == [(0, 1, 2.0), (0, 2, 2.0), (0, 3, 2.0)]
        assert g.strength(0) == 6.0
        assert g.strength(1) == 2.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match=f"finite, got {value} at \\(0, 1\\)"):
            WeightedGraph.from_edges(3, [(0, 1, value), (1, 2, 1.0)])

    def test_duplicate_edges_summed(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0), (0, 1, 0.5)])
        assert g.weights[0, 1] == 1.5

    def test_small_cycles(self):
        assert sorted(cycle_graph(3, 2.0).edges()) == [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0)]
        assert list(cycle_graph(2, 0.5).edges()) == [(0, 1, 0.5)]  # one edge, not two
        for n in (0, 1):
            with pytest.raises(ValueError, match=f"n={n}"):
                cycle_graph(n)


class TestHyperWeights:
    def test_singletons_rejected(self):
        with pytest.raises(ValueError):
            HyperWeights(3, {frozenset({0}): 1.0})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            HyperWeights(3, {frozenset({0, 3}): 1.0})

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            HyperWeights(3, {frozenset({0, 1}): -2.0})


    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, value):
        with pytest.raises(ValueError, match=f"must be finite, got {value}"):
            HyperWeights(3, {frozenset({0, 2}): value})


class TestParsing:
    def test_path_graph(self):
        net = parse_network("n 3\ne 0 1 1.0\ne 1 2 1.0\n")
        assert np.array_equal(net.graph.weights, path_graph(3).weights)
        assert net.hyper.rates == {}

    def test_hyperweight(self):
        net = parse_network("n 3\nh 3 0 1 2 1.0\n")
        assert net.hyper.rates == {frozenset({0, 1, 2}): 1.0}

    def test_reversed_edge_rejected_with_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_network("n 2\ne 1 0 1.0\n")
        assert exc.value.line == 2
        assert "i < j" in str(exc.value)

    def test_comments_and_blanks(self):
        net = parse_network("# header\nn 2\n\ne 0 1 2.0  # trailing\n")
        assert net.graph.weights[0, 1] == 2.0

    def test_duplicates_summed(self):
        net = parse_network("n 2\ne 0 1 1.0\ne 0 1 1.0\nh 2 0 1 0.25\nh 2 1 0 0.25\n")
        assert net.graph.weights[0, 1] == 2.0
        assert net.hyper.rates[frozenset({0, 1})] == 0.5

    @pytest.mark.parametrize("text,line", [
        ("e 0 1 1.0\n", 1),               # edge before n
        ("n 2\nq 0 1\n", 2),              # unknown record
        ("n 2\ne 0 1\n", 2),              # missing weight
        ("n 2\ne 0 2 1.0\n", 2),          # endpoint out of range
        ("n 2\ne 0 1 fast\n", 2),         # bad weight
        ("n 2\nn 3\n", 2),                # duplicate n
        ("n 2\nh 2 0 0 1.0\n", 2),        # repeated vertex
        ("n 2\nh 1 0 1.0\n", 2),          # subset too small
        ("n 0\n", 1),                     # empty graph
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphFormatError) as exc:
            parse_network(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text,token,column", [
        ("n 2\ne 0 1 nan\n", "'nan'", 7),
        ("n 2\ne 0 1 inf\n", "'inf'", 7),
        ("n 3\ne 0 1 1.0\n  h 2 0 2 -inf  # hub\n", "'-inf'", 11),
        ("n 3\nh 3 0 1 2 NaN\n", "'NaN'", 11),
    ])
    def test_non_finite_values_name_line_and_column(self, text, token, column):
        with pytest.raises(GraphFormatError, match=f"finite, got {token}") as exc:
            parse_network(text)
        # the offending record is the last line
        assert (exc.value.line, exc.value.column) == (len(text.splitlines()), column)

    @pytest.mark.parametrize("text,message,column", [
        ("n 5\nh 5 0 1 2 3 5 0.2\n", "vertex 5 outside 0..4", 13),
        ("n 3\ne 0 7 1.0\n", "endpoint 7 outside 0..2", 5),
        ("n 3\ne 0 x 1.0\n", "endpoints must be integers", 5),
        ("n 3\nh 2 0 x 1.0\n", "vertices must be integers", 7),
    ])
    def test_errors_point_at_the_offending_token(self, text, message, column):
        # the token's own position, not the first occurrence of its text
        with pytest.raises(GraphFormatError) as exc:
            parse_network(text)
        assert str(exc.value) == f"line 2, column {column}: {message}"

    def test_vertex_count_is_bounded_by_physical_memory(self, monkeypatch):
        # parsing peaks at 9.0-10.3 bytes per n^2; each n is charged 12
        monkeypatch.setattr(graphs, "physical_memory_bytes", lambda: 12 * 1000 ** 2)
        assert parse_network("n 1000\ne 0 999 1.0\n").graph.n == 1000
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="physical memory") as exc:
                parse_network("# big\n  n 1001\ne 0 1000 1.0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.line, exc.value.column) == (2, 5)
        assert peak < 64 * 1024  # refused before the 8 MB of weights exist

    def test_missing_n(self):
        with pytest.raises(GraphFormatError):
            parse_network("# nothing\n")

    def test_round_trip(self):
        g = complete_graph(4, 0.75)
        h = HyperWeights(4, {frozenset({0, 1, 2}): 1.5, frozenset({2, 3}): 0.5})
        net = parse_network(format_network(g, h))
        assert np.array_equal(net.graph.weights, g.weights)
        assert net.hyper.rates == h.rates


def reference_representatives(n: int) -> list[WeightedGraph]:
    """The mask-by-mask loop that ``connected_graph_representatives``
    vectorizes: the first mask of each class, canonical form by brute force."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen: set[tuple[int, ...]] = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        g = WeightedGraph.from_edges(n, [(i, j, 1.0) for i, j in edges])
        if not g.is_connected:
            continue
        canon = min(
            tuple(1 if g.weights[p[i], p[j]] > 0 else 0 for i, j in pairs)
            for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(g)
    return out


class TestEnumeration:
    def test_connected_class_counts(self):
        # frozen from the brute-force canonical-form enumeration
        assert [len(connected_graph_representatives(n)) for n in range(1, 6)] == [1, 1, 2, 6, 21]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_reference_loop(self, n):
        got = connected_graph_representatives(n)
        want = reference_representatives(n)
        assert len(got) == len(want)
        assert all(np.array_equal(a.weights, b.weights) for a, b in zip(got, want))

    def test_representatives_are_connected_and_distinct(self):
        reps = connected_graph_representatives(4)
        assert all(g.is_connected for g in reps)
        edge_counts = sorted(len(list(g.edges())) for g in reps)
        assert edge_counts == [3, 3, 4, 4, 5, 6]


class TestRandomGraphs:
    def test_connected_with_unit_interval_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(5, rng)
            assert g.is_connected
            for _, _, w in g.edges():
                assert 0 < w <= 1

    def test_deterministic_given_seed(self):
        a = random_connected_graph(5, np.random.default_rng(3))
        b = random_connected_graph(5, np.random.default_rng(3))
        assert np.array_equal(a.weights, b.weights)


_WEIGHTS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300,
                                               allow_nan=False, allow_infinity=False))


@st.composite
def networks(draw):
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [(i, j, draw(_WEIGHTS)) for i, j in pairs]
    subsets = st.sets(st.integers(0, n - 1), min_size=2, max_size=n).map(frozenset)
    rates = draw(st.dictionaries(subsets, _WEIGHTS, max_size=4)) if n >= 2 else {}
    return WeightedGraph.from_edges(n, edges), HyperWeights(n, rates)


@settings(max_examples=80, deadline=None)
@given(networks())
def test_format_then_parse_reproduces_weights_and_rates(network):
    graph, hyper = network
    net = parse_network(format_network(graph, hyper))
    assert np.array_equal(net.graph.weights, graph.weights)
    assert net.hyper.rates == hyper.rates
