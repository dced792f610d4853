"""Voter model on a finite graph and its coalescing-walk counterpart.

Every vertex wakes at rate one and copies the opinion of a uniformly
chosen neighbor.  Unanimity is absorbing, so runs stop at consensus.  The
dual system runs rate-one walkers that jump to uniform neighbors and merge
on meeting; the two are tied together by the two-sided Monte Carlo check
in ``duality_check``.  Uniform choice ignores edge weights, so both refuse a
graph with any edge weight other than 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..gaplab.graphs import WeightedGraph
from .parallel import chunk_ranges, run_trials
from .rng import UniformBuffer, check_trials, trial_buffers, trial_generator
from .stats import TrialStats


def adjacency_lists(graph: WeightedGraph) -> list[list[int]]:
    adj = [[] for _ in range(graph.n)]
    for i, j, _ in graph.edges():
        adj[i].append(j)
        adj[j].append(i)
    return adj


@dataclass(frozen=True)
class VoterConfig:
    graph: WeightedGraph
    rho: float | None = None                 # product initial law
    opinions: tuple[int, ...] | None = None  # explicit initial opinions

    def __post_init__(self):
        if not self.graph.is_connected:
            raise ValueError("voter model requires a connected graph")
        for i, j, w in self.graph.edges():
            if w != 1:  # neighbors are picked uniformly
                raise ValueError(f"the voter model needs unit edge weights; edge ({i}, {j}) "
                                 f"has weight {w:g}")
        if self.opinions is not None:
            if len(self.opinions) != self.graph.n:
                raise ValueError("one opinion per vertex required")
            if any(o not in (0, 1) for o in self.opinions):
                raise ValueError("opinions must be 0 or 1")
        elif self.rho is None:
            raise ValueError("provide either opinions or a density rho")
        if self.rho is not None and not 0 <= self.rho <= 1:
            raise ValueError("rho must lie in [0, 1]")


@dataclass(frozen=True)
class VoterTrajectory:
    consensus_time: float | None
    consensus_value: int | None
    final_opinions: tuple[int, ...]
    ones_path: tuple[tuple[float, float], ...]  # (t, fraction of ones)
    n_events: int


def _check_horizon(t_max: float):
    if not 0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max}")


def simulate_voter(cfg: VoterConfig, t_max: float, seed: int,
                   record_dt: float | None = None) -> VoterTrajectory:
    _check_horizon(t_max)
    rng = UniformBuffer(trial_generator(seed, 0))
    return _run_voter(cfg, adjacency_lists(cfg.graph), t_max, rng, record_dt)


def _run_voter(cfg: VoterConfig, adj: list[list[int]], t_max: float, rng: UniformBuffer,
               record_dt: float | None = None) -> VoterTrajectory:
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
        if v >= n:  # u * n can round up to n at the float edge
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
    return VoterTrajectory(
        consensus_time=consensus_time,
        consensus_value=(opinions[0] if consensus_time is not None else None),
        final_opinions=tuple(opinions),
        ones_path=tuple(path),
        n_events=events,
    )


@dataclass(frozen=True)
class ConsensusEstimate:
    rate: float
    mean_time: float | None
    stats: TrialStats

    def to_dict(self) -> dict:
        return {
            "consensusRate": self.rate,
            "meanConsensusTime": self.mean_time,
            **self.stats.to_dict(),
        }


def consensus_rate(cfg: VoterConfig, t_max: float, trials: int, seed: int) -> ConsensusEstimate:
    """Fraction of trials reaching unanimity by t_max."""
    _check_horizon(t_max)
    check_trials(trials)
    adj = adjacency_lists(cfg.graph)
    times = []
    for rng in trial_buffers(seed, (2,), 0, trials):
        out = _run_voter(cfg, adj, t_max, rng)
        if out.consensus_time is not None:
            times.append(out.consensus_time)
    stats = TrialStats(trials=trials, survivals=len(times), master_seed=seed, lane="voter/2")
    mean_time = sum(times) / len(times) if times else None
    return ConsensusEstimate(len(times) / trials, mean_time, stats)


def coalescing_walk_survivors(graph: WeightedGraph, start, t_max: float,
                              rng: UniformBuffer) -> int:
    """Number of distinct walkers left at t_max, merging on meeting."""
    return _walk_survivors(adjacency_lists(graph), start, t_max, rng)


def _walk_survivors(adj: list[list[int]], start, t_max: float, rng: UniformBuffer) -> int:
    draw = rng.next
    log1p = math.log1p
    walkers = sorted(set(start))  # positions, in the order a uniform pick indexes them
    occupied = set(walkers)
    alive = len(walkers)
    t = 0.0
    while alive > 1:
        t -= log1p(-draw()) / alive
        if t > t_max:
            break
        i = int(draw() * alive)
        if i >= alive:  # u * n can round up to n at the float edge
            i = alive - 1
        old = walkers[i]
        neighbors = adj[old]
        degree = len(neighbors)
        j = int(draw() * degree)
        if j >= degree:
            j = degree - 1
        new = neighbors[j]
        occupied.remove(old)
        if new in occupied:  # merged into the sitting walker
            del walkers[i]
            alive -= 1
        else:
            occupied.add(new)
            walkers[i] = new
    return alive


@dataclass(frozen=True)
class DualityReport:
    lhs: float
    rhs: float
    z_score: float
    lhs_stderr: float
    rhs_stderr: float
    trials: int
    target: tuple[int, ...]
    t: float
    rho: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "zScore": self.z_score if math.isfinite(self.z_score) else None,
            "lhsStderr": self.lhs_stderr,
            "rhsStderr": self.rhs_stderr,
            "trials": self.trials,
            "target": list(self.target),
            "t": self.t,
            "rho": self.rho,
            "seed": self.seed,
        }


def _duality_chunk(packed):
    """Trials lo..hi-1 of both sides: the voter count and the walk values."""
    graph, target, t, rho, seed, lo, hi = packed
    cfg = VoterConfig(graph, rho=rho)
    adj = adjacency_lists(graph)
    count = 0
    for rng in trial_buffers(seed, (3,), lo, hi):
        out = _run_voter(cfg, adj, t, rng)
        count += all(out.final_opinions[v] == 1 for v in target)
    values = [rho ** _walk_survivors(adj, target, t, rng)
              for rng in trial_buffers(seed, (4,), lo, hi)]
    return count, values


def duality_check(graph: WeightedGraph, target, t: float, rho: float,
                  trials: int, seed: int, workers: int = 1) -> DualityReport:
    """Monte Carlo of both sides of the consensus-probability identity.

    Left side: probability that every vertex of ``target`` holds opinion 1
    at time t when opinions start i.i.d. with density rho.  Right side:
    the mean of rho raised to the number of surviving coalescing walkers
    started on ``target`` and run for time t.  Reports a two-sample z.

    With workers > 1 the trials run in separate processes; the reduction
    replays per-trial values in trial order, so the report is identical to
    the single-process run.
    """
    target = tuple(sorted(set(target)))
    if not target:
        raise ValueError("target set cannot be empty")
    if any(not 0 <= v < graph.n for v in target):
        raise ValueError("target vertices outside the graph")
    VoterConfig(graph, rho=rho)  # a connected unit-weight graph and rho in [0, 1]
    _check_horizon(t)
    check_trials(trials)

    jobs = [(graph, target, t, rho, seed, lo, hi) for lo, hi in chunk_ranges(trials, workers)]
    parts = run_trials(_duality_chunk, jobs, workers)
    lhs = sum(count for count, _ in parts) / trials
    lhs_var = lhs * (1 - lhs) / trials

    rhs_sum = 0.0
    rhs_sq = 0.0
    for _, values in parts:
        for value in values:
            rhs_sum += value
            rhs_sq += value * value
    rhs = rhs_sum / trials
    rhs_var = max(0.0, rhs_sq / trials - rhs * rhs) / trials

    spread = math.sqrt(lhs_var + rhs_var)
    if spread == 0:
        z = 0.0 if lhs == rhs else math.inf
    else:
        z = (lhs - rhs) / spread
    return DualityReport(lhs, rhs, z, math.sqrt(lhs_var), math.sqrt(rhs_var),
                         trials, target, t, rho, seed)
