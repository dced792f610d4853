"""The windowed voter kernel against the one-trial event loop it replaced.

``run_voter`` below is that loop, kept as the reference: it reads one
trial's stream a uniform at a time and copies opinions event by event.  The
kernel draws whole blocks of events per window of trials with numpy and
must reproduce every trial bit for bit: consensus time, final opinions,
event count and recorded path.
"""

import math

import pytest

from stochlab import ipslab
from stochlab.gaplab import WeightedGraph, complete_graph, cycle_graph, path_graph
from stochlab.ipslab import UniformBuffer, VoterConfig, trial_generator, voter
from stochlab.ipslab.rng import StreamReader, trial_buffers


def run_voter(cfg, adj, t_max, rng, record_dt=None):
    """One trial: (consensus time or None, final opinions, events, path)."""
    n = cfg.graph.n
    draw = rng.next
    log1p = math.log1p
    if cfg.opinions is not None:
        opinions = list(cfg.opinions)
    else:
        opinions = [1 if draw() < cfg.rho else 0 for _ in range(n)]
    ones = sum(opinions)
    path = [(0.0, ones / n)]
    next_record = record_dt if record_dt else math.inf

    t = 0.0
    events = 0
    consensus_time = None
    while True:
        if ones == 0 or ones == n:
            consensus_time = t
            break
        t_next = t - log1p(-draw()) / n
        while next_record <= t_next and next_record <= t_max:
            path.append((next_record, ones / n))
            next_record += record_dt
        if t_next > t_max:
            t = t_max
            break
        t = t_next
        events += 1
        v = int(draw() * n)
        if v >= n:
            v = n - 1
        neighbors = adj[v]
        degree = len(neighbors)
        j = int(draw() * degree)
        if j >= degree:
            j = degree - 1
        new = opinions[neighbors[j]]
        if opinions[v] != new:
            ones += 1 if new else -1
            opinions[v] = new

    path.append((t, ones / n))
    return consensus_time, opinions, events, path


def star_graph(n):
    return WeightedGraph.from_edges(n, [(0, i, 1.0) for i in range(1, n)])


GRAPHS = {"cycle10": cycle_graph(10), "path5": path_graph(5), "star7": star_graph(7),
          "complete6": complete_graph(6)}


def window(cfg):
    """Trials in the kernel's first window for this configuration."""
    init = cfg.graph.n if cfg.opinions is None else 0
    return voter.WINDOW_UNIFORMS // (init + 3 * voter.FIRST_EVENTS)


def assert_kernel_matches_reference(cfg, t_max, seed, lane, lo, hi, record_dt=None):
    adj = voter.adjacency_lists(cfg.graph)
    got = list(voter._voter_runs(adj, cfg.rho, cfg.opinions, t_max, seed, lane, lo, hi,
                                   record_dt))
    want = [run_voter(cfg, adj, t_max, rng, record_dt)
            for rng in trial_buffers(seed, lane, lo, hi)]
    assert len(got) == hi - lo
    for trial, (g, w) in enumerate(zip(got, want), start=lo):
        assert g == w, f"trial {trial}"
    return got


@pytest.mark.parametrize("graph", GRAPHS, ids=str)
@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("t_max", [0.0, 0.3, 1e4])
def test_trials_match_reference(graph, rho, t_max):
    cfg = VoterConfig(GRAPHS[graph], rho=rho)
    assert_kernel_matches_reference(cfg, t_max, 31, (2,), 0, 40)


@pytest.mark.parametrize("graph", GRAPHS, ids=str)
def test_explicit_opinions_match_reference(graph):
    n = GRAPHS[graph].n
    cfg = VoterConfig(GRAPHS[graph], opinions=tuple(i % 2 for i in range(n)))
    for t_max in (0.0, 0.3, 1e4):
        assert_kernel_matches_reference(cfg, t_max, 8, (3,), 5, 45)


@pytest.mark.parametrize("graph", GRAPHS, ids=str)
def test_recorded_paths_match_reference(graph):
    cfg = VoterConfig(GRAPHS[graph], rho=0.5)
    for t_max, record_dt in ((0.3, 0.05), (6.0, 0.25), (1e3, 7.0)):
        assert_kernel_matches_reference(cfg, t_max, 12, (), 0, 30, record_dt)


def test_long_trials_cross_three_doubling_blocks():
    cfg = VoterConfig(cycle_graph(20), rho=0.5)
    got = assert_kernel_matches_reference(cfg, 1e4, 2, (2,), 0, 30, record_dt=5.0)
    first_three = voter.FIRST_EVENTS * (1 + 2 + 4)
    assert max(events for _, _, events, _ in got) > first_three


def test_event_times_on_the_horizon_and_on_a_path_point():
    # an event exactly at t_max happens, and a path point exactly at an
    # event's time takes the opinions from before that event (on the
    # alternating 10-cycle every first event flips an opinion)
    cfg = VoterConfig(cycle_graph(10), opinions=(0, 1) * 5)
    u = trial_generator(7, 3, 0).random(9).tolist()
    t1 = 0.0 - math.log1p(-u[0]) / 10
    t3 = t1 - math.log1p(-u[3]) / 10 - math.log1p(-u[6]) / 10
    [(_, _, events, path)] = assert_kernel_matches_reference(cfg, t3, 7, (3,), 0, 1,
                                                             record_dt=t1)
    assert events == 3
    assert path[1] == (t1, 0.5)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_trial_counts_around_a_window_boundary(extra):
    cfg = VoterConfig(cycle_graph(10), rho=0.5)
    trials = window(cfg) + extra
    assert_kernel_matches_reference(cfg, 2.0, 404, (3,), 0, trials)
    assert_kernel_matches_reference(cfg, 2.0, 404, (3,), 100, 100 + trials)


def test_simulate_voter_is_trial_zero_of_the_plain_stream():
    cfg = VoterConfig(star_graph(7), rho=0.5)
    out = ipslab.simulate_voter(cfg, 40.0, seed=3, record_dt=0.5)
    adj = voter.adjacency_lists(cfg.graph)
    time, opinions, events, path = run_voter(cfg, adj, 40.0,
                                             UniformBuffer(trial_generator(3, 0)), 0.5)
    assert (out.consensus_time, list(out.final_opinions), out.n_events,
            list(out.ones_path)) == (time, opinions, events, path)


@pytest.mark.parametrize("workers", [1, 2])
def test_duality_check_matches_reference(workers):
    graph, target, t, rho, trials, seed = cycle_graph(10), (0, 1), 2.0, 0.5, 700, 41
    cfg = VoterConfig(graph, rho=rho)
    adj = voter.adjacency_lists(graph)
    finals = [run_voter(cfg, adj, t, rng)[1] for rng in trial_buffers(seed, (3,), 0, trials)]
    count = sum(all(opinions[v] == 1 for v in target) for opinions in finals)
    walks = [rho ** voter._walk_survivors(adj, target, t, rng)
             for rng in trial_buffers(seed, (4,), 0, trials)]
    rep = ipslab.duality_check(graph, target, t, rho, trials, seed, workers=workers)
    assert rep.lhs == count / trials
    assert rep.rhs == sum(walks) / trials


def test_consensus_rate_matches_reference():
    cfg = VoterConfig(path_graph(5), rho=0.3)
    adj = voter.adjacency_lists(cfg.graph)
    times = [run_voter(cfg, adj, 3.0, rng)[0] for rng in trial_buffers(6, (2,), 0, 300)]
    times = [t for t in times if t is not None]
    est = ipslab.consensus_rate(cfg, 3.0, 300, seed=6)
    assert est.rate == len(times) / 300
    assert est.mean_time == sum(times) / len(times)


def test_window_arrays_stay_within_the_bound(monkeypatch):
    # 60 vertices: 60 opinion draws plus the first block's events per trial,
    # so the bound, not the 5000 trials, sets the window
    shapes = []
    rows = StreamReader.rows

    def recording(self, keys, start, size):
        out = rows(self, keys, start, size)
        held = out if out.base is None else out.base
        shapes.append((len(keys), size, held.size))
        return out

    monkeypatch.setattr(StreamReader, "rows", recording)
    est = ipslab.consensus_rate(VoterConfig(cycle_graph(60), rho=0.5), 1.5, 5000, seed=1)
    assert est.stats.trials == 5000
    assert max(held for _, _, held in shapes) <= voter.WINDOW_UNIFORMS
    assert max(count for count, _, _ in shapes) < 5000
    assert len({size for _, size, _ in shapes}) > 2  # blocks grew for the trials still running
