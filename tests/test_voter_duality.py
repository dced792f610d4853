import math
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlab.gaplab import WeightedGraph, complete_graph, cycle_graph, path_graph
from stochlab.ipslab import (
    UniformBuffer,
    VoterConfig,
    consensus_rate,
    duality_check,
    parallel,
    simulate_voter,
    trial_generator,
    voter,
)


class TestVoterConfig:
    def test_disconnected_rejected(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            VoterConfig(g, rho=0.5)

    def test_opinion_length_checked(self):
        with pytest.raises(ValueError):
            VoterConfig(cycle_graph(4), opinions=(1, 0))

    def test_binary_opinions_required(self):
        with pytest.raises(ValueError):
            VoterConfig(cycle_graph(3), opinions=(1, 0, 2))

    def test_need_init(self):
        with pytest.raises(ValueError):
            VoterConfig(cycle_graph(3))

    def test_rho_range(self):
        with pytest.raises(ValueError):
            VoterConfig(cycle_graph(3), rho=1.5)

    def test_non_unit_weights_rejected(self):
        # neighbors are picked uniformly, so a weight other than 1 would be ignored
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.5)])
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has weight 2.5"):
            VoterConfig(g, rho=0.5)
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has weight 2.5"):
            duality_check(g, (0,), 1.0, 0.5, 10, seed=0)


class TestSimulateVoter:
    def test_unanimous_start_is_consensus_at_zero(self):
        cfg = VoterConfig(cycle_graph(6), opinions=(1,) * 6)
        out = simulate_voter(cfg, 10.0, seed=4)
        assert out.consensus_time == 0.0
        assert out.consensus_value == 1
        assert out.final_opinions == (1,) * 6
        assert out.n_events == 0

    def test_absorbing_all_zero(self):
        cfg = VoterConfig(path_graph(4), opinions=(0,) * 4)
        out = simulate_voter(cfg, 5.0, seed=1)
        assert out.consensus_time == 0.0
        assert out.consensus_value == 0

    def test_deterministic(self):
        cfg = VoterConfig(cycle_graph(8), rho=0.5)
        a = simulate_voter(cfg, 20.0, seed=12, record_dt=1.0)
        b = simulate_voter(cfg, 20.0, seed=12, record_dt=1.0)
        assert a == b

    def test_consensus_value_matches_final(self):
        cfg = VoterConfig(complete_graph(5), rho=0.4)
        out = simulate_voter(cfg, 500.0, seed=3)
        if out.consensus_time is not None:
            assert set(out.final_opinions) == {out.consensus_value}

    def test_ones_fraction_martingale(self):
        # regular graph, fixed half-ones start: the mean fraction at t=5
        # stays at 1/2 up to Monte Carlo error
        start = tuple(i % 2 for i in range(20))
        cfg = VoterConfig(cycle_graph(20), opinions=start)
        trials = 4000
        values = []
        for t in range(trials):
            out = simulate_voter(cfg, 5.0, seed=50_000 + t)
            values.append(out.final_opinions.count(1) / 20)
        mean = sum(values) / trials
        var = sum((v - mean) ** 2 for v in values) / (trials - 1)
        stderr = math.sqrt(var / trials)
        assert abs(mean - 0.5) <= 3 * stderr


@st.composite
def voter_runs(draw):
    n = draw(st.integers(2, 7))
    graph = draw(st.sampled_from([cycle_graph, path_graph, complete_graph]))(n)
    if draw(st.booleans()):
        cfg = VoterConfig(graph, rho=draw(st.floats(0, 1)))
    else:
        cfg = VoterConfig(graph, opinions=tuple(draw(st.lists(st.integers(0, 1), min_size=n,
                                                              max_size=n))))
    return cfg, draw(st.floats(0, 20)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(voter_runs())
def test_consensus_invariants(run):
    cfg, t_max, seed = run
    out = simulate_voter(cfg, t_max, seed)
    unanimous = len(set(out.final_opinions)) == 1
    assert (out.consensus_time is not None) == unanimous
    if unanimous:
        assert all(o == out.consensus_value for o in out.final_opinions)
        assert 0 <= out.consensus_time <= t_max
    else:
        assert out.consensus_value is None


class TestConsensusRate:
    def test_cycle_consensus_is_near_certain(self):
        cfg = VoterConfig(cycle_graph(20), rho=0.5)
        est = consensus_rate(cfg, 1e4, 300, seed=3)
        assert est.rate >= 0.99
        assert est.mean_time and est.mean_time > 0

    def test_deterministic(self):
        cfg = VoterConfig(cycle_graph(10), rho=0.5)
        assert consensus_rate(cfg, 100.0, 50, seed=2) == consensus_rate(cfg, 100.0, 50, seed=2)


class TestCoalescingWalkers:
    def test_no_time_no_merging(self):
        rng = UniformBuffer(trial_generator(1, 9))
        assert voter._walk_survivors(voter.adjacency_lists(cycle_graph(10)), (0, 3, 7), 0.0,
                                     rng) == 3

    def test_eventually_one_walker(self):
        g = complete_graph(4)
        merged_to_one = 0
        for t in range(200):
            rng = UniformBuffer(trial_generator(11, 9, t))
            if voter._walk_survivors(voter.adjacency_lists(g), (0, 1, 2, 3), 200.0, rng) == 1:
                merged_to_one += 1
        assert merged_to_one >= 195  # long horizon: everyone meets


class TestDuality:
    def test_time_zero_is_exact_in_expectation(self):
        rep = duality_check(cycle_graph(8), (0, 1), t=0.0, rho=0.5, trials=4000, seed=6)
        assert rep.rhs == 0.25  # walkers never move: rho^2 every trial
        assert rep.rhs_stderr == 0.0
        assert abs(rep.z_score) <= 4

    def test_single_site_marginal_is_stationary(self):
        rep = duality_check(cycle_graph(9), (4,), t=3.0, rho=0.3, trials=4000, seed=8)
        assert rep.rhs == pytest.approx(0.3)  # one walker survives always
        assert abs(rep.z_score) <= 4

    def test_adjacent_pair_on_cycle(self):
        rep = duality_check(cycle_graph(10), (0, 1), t=2.0, rho=0.5, trials=20_000, seed=5)
        assert abs(rep.z_score) <= 4

    def test_deterministic(self):
        a = duality_check(cycle_graph(6), (0, 2), t=1.0, rho=0.5, trials=500, seed=4)
        b = duality_check(cycle_graph(6), (0, 2), t=1.0, rho=0.5, trials=500, seed=4)
        assert a == b

    def test_workers_are_sent_the_adjacency_not_the_weights(self, monkeypatch):
        # each chunk's arguments go through pickle as they would to a worker;
        # a 400-vertex path's dense weights alone pickle to 1.28 MB
        sent = []

        def in_process(chunk_fn, args, trials, workers):
            payload = pickle.dumps(args)
            sent.append(len(payload))
            return [chunk_fn(*pickle.loads(payload), lo, hi)
                    for lo, hi in parallel.chunk_ranges(trials, workers)]

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(voter, "run_trials", in_process)
        g = path_graph(400)
        reports = [duality_check(g, (199, 200), 1.0, 0.5, 60, seed=7, workers=w)
                   for w in (1, 2, 3, 8)]
        assert all(rep == reports[0] for rep in reports)
        assert max(sent) < 32 * 1024, sent

    def test_validation(self):
        with pytest.raises(ValueError):
            duality_check(cycle_graph(5), (), 1.0, 0.5, 10, seed=0)
        with pytest.raises(ValueError, match=r"target vertex 9 outside 0\.\.4"):
            duality_check(cycle_graph(5), (0, 9), 1.0, 0.5, 10, seed=0)
        with pytest.raises(ValueError):
            duality_check(cycle_graph(5), (0,), 1.0, 1.5, 10, seed=0)
        disconnected = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            duality_check(disconnected, (0,), 1.0, 0.5, 10, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_horizon_must_be_finite_and_nonnegative(self, bad):
        cfg = VoterConfig(cycle_graph(5), rho=0.5)
        with pytest.raises(ValueError, match="t_max"):
            simulate_voter(cfg, bad, seed=0)
        with pytest.raises(ValueError, match="t_max"):
            consensus_rate(cfg, bad, 3, seed=0)
        with pytest.raises(ValueError, match="t_max"):
            duality_check(cycle_graph(5), (0,), bad, 0.5, 10, seed=0)
