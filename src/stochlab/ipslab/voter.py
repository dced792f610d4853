"""Voter model on a finite graph and its coalescing-walk counterpart.

Every vertex wakes at rate one and copies the opinion of a uniformly
chosen neighbor.  Unanimity is absorbing, so runs stop at consensus.  The
dual system runs rate-one walkers that jump to uniform neighbors and merge
on meeting; the two are tied together by the two-sided Monte Carlo check
in ``duality_check``.  Uniform choice ignores edge weights, so both refuse a
graph with any edge weight other than 1.

One kernel, ``_voter_runs``, runs every voter trial: ``simulate_voter``
(one trial, path recorded), ``consensus_rate`` and the voter side of
``duality_check``.  A voter event reads three uniforms of its trial's
stream: the exponential step ``-log1p(-u) / n`` (the total rate is n in
every state), the vertex ``int(u * n)`` and the neighbor ``int(u * deg)``.
None of them reads the opinions, so the draws are state-free: the kernel
reads the next block of uniforms of a window of trials as one 2-D array
(``rng.StreamReader.rows``) and computes the event times, vertices and
sources of the whole block with numpy.  Times are a ``np.cumsum`` of the
steps, which adds in order as a one-event-at-a-time loop does; the steps
map ``math.log1p`` over the column, because ``np.log1p`` rounds differently
on a few percent of inputs.  Only the opinion copies stay in Python, in one
tight loop per trial that copies an opinion, updates the count of ones and
stops at consensus or at the horizon.  Trials still running get blocks
twice as long, as long as a window's array holds at most
``WINDOW_UNIFORMS`` doubles.  Every seeded value is that of the one-event
loop, bit for bit; the tests keep that loop as the reference.

The walk side of ``duality_check`` runs on the lockstep shell
(``lockstep.py``, lane 6, ``_Walks``), whose trials are short: a row's
cells mark the vertices walkers sit on, and a move onto an occupied vertex
is a merge.  A lockstep for the voter side was rejected: the slowest trial
sets the number of steps.  The 150 consensus trials of the benchmark's
``sim-many-trials`` workload at seed 17 average 894 events but the longest
has 5173, and the lockstep took 0.25-0.32 s against this kernel's 0.044 s
(2-vCPU VM).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..gaplab.graphs import WeightedGraph
from .lockstep import Lockstep
from .parallel import run_trials
from .rng import check_trials, log1p_of_negated, thread_reader, trial_keys
from .stats import TrialStats, check_kept_trials, check_record_dt


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
    """One trajectory up to time ``t_max``, recording the fraction of ones
    every ``record_dt`` (None or 0: no path points)."""
    _check_horizon(t_max)
    check_record_dt(t_max, record_dt)
    [(time, opinions, events, path)] = _voter_runs(cfg.graph.adjacency(), cfg.rho, cfg.opinions,
                                                   t_max, seed, (), 0, 1, record_dt)
    return VoterTrajectory(
        consensus_time=time,
        consensus_value=(opinions[0] if time is not None else None),
        final_opinions=tuple(opinions),
        ones_path=tuple(path),
        n_events=events,
    )


WINDOW_UNIFORMS = 16_384  # the most uniforms a window array holds (128 KiB), unless one
                          # trial's opinion draws alone need more (above 16,285 vertices)
FIRST_EVENTS = 32         # events read per trial in its first block; later blocks double


class _Trial:
    """One trial: its Philox key, opinions and count of ones, the time and
    number of its events so far, its recorded path, and the consensus time
    once unanimous (``ended`` is set at consensus or at the horizon)."""

    __slots__ = ("key", "opinions", "ones", "t", "events", "path", "next_record",
                 "consensus", "ended")

    def __init__(self, key, opinions: list[int], n: int, record_dt: float | None):
        self.key = key
        self.opinions = opinions
        self.ones = sum(opinions)
        self.t = 0.0
        self.events = 0
        self.path = [(0.0, self.ones / n)]
        self.next_record = record_dt if record_dt else math.inf
        self.consensus = 0.0 if self.ones == 0 or self.ones == n else None
        self.ended = self.consensus is not None


def _voter_runs(adjacency, rho: float | None, initial: tuple[int, ...] | None,
                t_max: float, seed: int, lane: tuple[int, ...], lo: int, hi: int,
                record_dt: float | None = None):
    """Trials lo..hi-1 of (seed, lane) on the graph whose CSR arrays are
    ``adjacency`` (``WeightedGraph.adjacency``), in trial order, each as
    (consensus time or None, final opinions, events, recorded path).
    Opinions start from ``initial``, or else i.i.d. with density rho."""
    n = len(adjacency[1])
    graph = (n, *adjacency)
    init = 0 if initial is not None else n
    first = init + 3 * FIRST_EVENTS  # uniforms a trial reads in its first block
    reader = thread_reader()
    window = max(1, WINDOW_UNIFORMS // first)
    streams = trial_keys(seed, lane, lo, hi)
    while keys := list(islice(streams, window)):
        uniforms = reader.rows(keys, 0, first)
        opinions = ((uniforms[:, :init] < rho).view(np.int8).tolist() if init
                    else [list(initial) for _ in keys])
        trials = [_Trial(key, ops, n, record_dt) for key, ops in zip(keys, opinions)]
        live = [i for i, trial in enumerate(trials) if not trial.ended]
        if live:
            _voter_block([trials[i] for i in live], uniforms[live, init:], t_max, record_dt,
                         graph)
        events, read = FIRST_EVENTS, first
        while running := [trial for trial in trials if not trial.ended]:
            # rows() holds up to 3 more doubles per row when read is off a 4-double step
            events = min(2 * events, (WINDOW_UNIFORMS // len(running) - 3) // 3)
            _voter_block(running, reader.rows([trial.key for trial in running], read, 3 * events),
                         t_max, record_dt, graph)
            read += 3 * events
        for trial in trials:
            trial.path.append((trial.t, trial.ones / n))
            yield trial.consensus, trial.opinions, trial.events, trial.path


def _voter_block(running: list[_Trial], uniforms, t_max: float, record_dt: float | None,
                 graph):
    """The next events of each running trial, from one row of uniforms per
    trial: exponential step, vertex and neighbor of each event in turn."""
    n, neighbors, degree, first = graph
    count, events = len(running), uniforms.shape[1] // 3
    uniforms = uniforms.reshape(count, events, 3)
    steps = log1p_of_negated(uniforms[:, :, 0])
    steps /= -n  # the loop's t - log1p(-u) / n, added in order by cumsum
    steps[:, 0] += [trial.t for trial in running]
    times = np.cumsum(steps, axis=1, out=steps)
    cuts = np.count_nonzero(times <= t_max, axis=1).tolist()  # events within the horizon
    vertex = (uniforms[:, :, 1] * n).astype(np.intp)
    pick = (uniforms[:, :, 2] * degree[vertex]).astype(np.intp)
    vertices = vertex.tolist()
    sources = neighbors[first[vertex] + pick].tolist()
    for trial, vs, ss, cut, row in zip(running, vertices, sources, cuts, times):
        ops = trial.opinions
        ones = trial.ones
        done = 0
        hit = -1
        if trial.next_record <= t_max:
            # a path point takes the opinions before the first event at or after it
            ts = row.tolist()
            while trial.next_record <= t_max and trial.next_record <= ts[-1]:
                at = bisect_left(ts, trial.next_record)
                ones, hit = _copy_opinions(ops, ones, n, vs, ss, done, at)
                done = at
                if hit >= 0:
                    break
                trial.path.append((trial.next_record, ones / n))
                trial.next_record += record_dt
        if hit < 0:
            ones, hit = _copy_opinions(ops, ones, n, vs, ss, done, cut)
        trial.ones = ones
        if hit >= 0:
            trial.consensus = trial.t = row.item(hit)
            trial.events += hit + 1
            trial.ended = True
        elif cut < events:
            trial.t = t_max
            trial.events += cut
            trial.ended = True
        else:
            trial.t = row.item(events - 1)
            trial.events += events


def _copy_opinions(opinions: list[int], ones: int, n: int, vertices, sources, lo: int, hi: int):
    """Events lo..hi-1 in turn: vertex ``vertices[k]`` takes the opinion of
    ``sources[k]``.  Returns the count of ones and the event that made the
    opinions unanimous, or -1 if none did."""
    for k in range(lo, hi):
        new = opinions[sources[k]]
        v = vertices[k]
        if opinions[v] != new:
            opinions[v] = new
            ones += 1 if new else -1
            if ones == 0 or ones == n:
                return ones, k
    return ones, -1


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
    reached, total = 0, 0.0
    for time, _, _, _ in _voter_runs(cfg.graph.adjacency(), cfg.rho, cfg.opinions, t_max,
                                     seed, (2,), 0, trials):
        if time is not None:
            reached += 1
            total += time  # left to right, on every Python version
    stats = TrialStats(trials=trials, survivals=reached, master_seed=seed, lane="voter/2")
    return ConsensusEstimate(reached / trials, total / reached if reached else None, stats)


def _walk_runs(adjacency, start, t_max: float, seed: int, lo: int, hi: int):
    """The number of coalescing walkers left at t_max in trials lo..hi-1 of
    (seed, (6,)), started one on each vertex of ``start``, in trial order,
    on the graph whose CSR arrays are ``adjacency``."""
    start = sorted(set(start))
    if len(start) < 2:  # nothing to merge
        return iter([len(start)] * (hi - lo))
    return _Walks.runs(seed, (6,), lo, hi, len(adjacency[1]), t_max, adjacency, start)


class _Walks(Lockstep):
    """One window of walk trials: cell v of a row is 1 while a walker sits
    on vertex v.  The walker that rings leaves for its neighbor ``int(u
    deg)`` and merges into a walker there.  A row ends at t_max, or when one
    walker is left."""

    def __init__(self, graph, start: list[int], keys: list):
        self.neighbors, self.degree, self.first = graph
        super().__init__(keys, np.zeros(len(self.degree), dtype=np.int8), start)

    def decode(self, action):
        self.hop = action.copy()

    def step(self, s: int, i):
        cells, sites, base = self.cells.ravel(), self.sites.ravel(), self.base
        top = np.add(base, self.count, dtype=np.intp, casting="unsafe")
        x = sites[i]
        v = x - base
        y = base + self.neighbors[self.first[v] + (self.hop[s] * self.degree[v]).astype(np.intp)]
        merged = cells[y]
        cells[x] = 0
        cells[y] = 1
        sites[i] = np.where(merged, sites[top - 1], y)
        self.count -= merged
        if np.logical_or.reduce(merged):
            self.end(np.flatnonzero(merged * (self.count == 1)))

    def record(self, rows):
        for r, walkers in zip(rows.tolist(), self.count[rows].tolist()):
            self.results[self.ids[r]] = int(walkers)


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


def _duality_chunk(adjacency, rho, target, t, seed, lo, hi):
    """Trials lo..hi-1 of both sides: the voter count and the walk values."""
    count = 0
    for _, opinions, _, _ in _voter_runs(adjacency, rho, None, t, seed, (3,), lo, hi):
        count += all(opinions[v] == 1 for v in target)
    return count, [rho ** walkers for walkers in _walk_runs(adjacency, target, t, seed, lo, hi)]


# bytes duality_check keeps per trial until it reports: a walk value, a float
# and its list slot (tracemalloc: 32-33), twice while a worker's values reach
# the parent
WALK_VALUE_BYTES = 64


def check_duality_trials(trials: int, name: str = "trials"):
    """ValueError naming ``name`` when the walk values that ``duality_check``
    keeps for ``trials`` trials would not fit in physical memory."""
    check_kept_trials(trials, WALK_VALUE_BYTES, name)


def duality_check(graph: WeightedGraph, target, t: float, rho: float,
                  trials: int, seed: int, workers: int = 1) -> DualityReport:
    """Monte Carlo of both sides of the consensus-probability identity.

    Left side: probability that every vertex of ``target`` holds opinion 1
    at time t when opinions start i.i.d. with density rho.  Right side:
    the mean of rho raised to the number of surviving coalescing walkers
    started on ``target`` and run for time t.  Reports a two-sample z.

    With workers > 1 the trials run in separate processes, each sent rho
    and the CSR adjacency arrays, not the dense weights; the reduction replays
    per-trial values in trial order, so the report is identical to the
    single-process run.
    """
    target = tuple(sorted(set(target)))
    if not target:
        raise ValueError("target set cannot be empty")
    for v in target:
        if not 0 <= v < graph.n:
            raise ValueError(f"target vertex {v} outside 0..{graph.n - 1}")
    VoterConfig(graph, rho=rho)  # checks for a connected unit-weight graph and rho in [0, 1]
    _check_horizon(t)
    check_trials(trials)
    check_duality_trials(trials)

    parts = run_trials(_duality_chunk, (graph.adjacency(), rho, target, t, seed), trials,
                       workers)
    return _duality_report(parts, trials, target, t, rho, seed)


def _duality_report(parts, trials, target, t, rho, seed) -> DualityReport:
    """The report from each chunk's voter count and walk values, in trial order."""
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
