import math
import os
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    _walk_survivors,
    adjacency_lists,
    complete_graph,
    path_graph,
    walk_outcomes,
    witness_walks,
)

from stochlab.gaplab import WeightedGraph, cycle_graph
from stochlab.ipslab import (
    DUALITY_Z_BOUND,
    UniformBuffer,
    VoterConfig,
    consensus_rate,
    duality_check,
    lockstep,
    parallel,
    simulate_voter,
    stats,
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
        assert _walk_survivors(adjacency_lists(cycle_graph(10)), (0, 3, 7), 0.0, rng) == 3

    def test_eventually_one_walker(self):
        g = complete_graph(4)
        merged_to_one = 0
        for t in range(200):
            rng = UniformBuffer(trial_generator(11, 9, t))
            if _walk_survivors(adjacency_lists(g), (0, 1, 2, 3), 200.0, rng) == 1:
                merged_to_one += 1
        assert merged_to_one >= 195  # long horizon: everyone meets


class TestWalkKernel:
    """``duality_check``'s walk side on the lockstep shell (lane 6) against
    the event loop it replaced (``references._walk_survivors``), and its
    trials' independence of how they are split into chunks, windows, blocks
    and processes."""

    @pytest.mark.parametrize("graph, t, seed", [(cycle_graph(30), 2.0, 91),
                                                (path_graph(40), 3.0, 92)],
                             ids=["cycle-30", "path-40"])
    def test_walkers_left_match_the_event_loop_from_every_vertex(self, graph, t, seed):
        trials = 2000
        kernel = walk_outcomes(graph, range(graph.n), t, seed, 0, trials)
        loop = witness_walks(graph, range(graph.n), t, seed, (4,), 0, trials)
        means = [sum(side) / trials for side in (kernel, loop)]
        spread = math.sqrt(sum(sum((x - m) ** 2 for x in side) / (trials - 1) / trials
                               for side, m in zip((kernel, loop), means)))
        assert abs(means[0] - means[1]) <= DUALITY_Z_BOUND * spread

    def test_outcomes_do_not_depend_on_the_split(self, monkeypatch):
        trials, split, args = 61, 23, (cycle_graph(10), (0, 3, 5, 7), 2.0, 81)
        whole = walk_outcomes(*args, 0, trials)
        assert len(set(whole)) > 1
        assert whole == walk_outcomes(*args, 0, split) + walk_outcomes(*args, split, trials)
        workers = parallel.run_trials(walk_outcomes, args, trials, 2)
        assert whole == [walkers for part in workers for walkers in part]
        monkeypatch.setattr(lockstep, "WINDOW_SITES", 1)  # a window per trial
        monkeypatch.setattr(lockstep, "BLOCK_UNIFORMS", 1)  # a block per step
        assert whole == walk_outcomes(*args, 0, trials)

    @pytest.mark.parametrize("graph, target, t, left", [
        (cycle_graph(10), (0, 3, 7), 0.0, {3}),
        (cycle_graph(9), (4,), 3.0, {1}),
        (path_graph(5), (0, 1), 1.0, {1, 2}),
        (cycle_graph(10), (0, 1), 2.0, {1, 2}),
    ], ids=["time-zero", "one-vertex", "path-end", "cycle-pair"])
    def test_edge_cases_equal_the_event_loop_on_the_same_streams(self, graph, target, t, left):
        # with at most two walkers both engines read a step's three uniforms
        # alike, so on lane 6's streams they agree trial by trial; vertex 0 of
        # a path has one neighbor, so its walker must step onto vertex 1
        kernel = walk_outcomes(graph, target, t, 17, 0, 300)
        assert kernel == witness_walks(graph, target, t, 17, (6,), 0, 300)
        assert set(kernel) == left


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

    def test_trials_past_memory_are_refused_naming_trials(self, monkeypatch):
        # each trial's walk value is kept until the report: 64 bytes a trial
        monkeypatch.setattr(stats, "physical_memory_bytes", lambda: 2**20)
        monkeypatch.setattr(voter, "_voter_runs", None)  # no trial may start
        voter.check_duality_trials(16_384)
        with pytest.raises(ValueError, match="trials 16385 keeps"):
            duality_check(cycle_graph(5), (0, 1), 1.0, 0.5, 16_385, seed=0)

    def test_the_bound_covers_what_a_trial_keeps(self):
        adjacency = cycle_graph(10).adjacency()

        def held(trials: int) -> int:  # the bytes of one chunk's voter count and walk values
            tracemalloc.start()
            part = voter._duality_chunk(adjacency, 0.5, (0, 1), 0.2, 1, 0, trials)
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            del part
            return size

        kept = (held(9_000) - held(3_000)) / 6_000
        assert voter.WALK_VALUE_BYTES / 4 < kept <= voter.WALK_VALUE_BYTES

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
