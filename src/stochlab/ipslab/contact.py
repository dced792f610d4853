"""Event-driven contact process on a finite interval or the sparse line.

Exact-in-law continuous-time simulation: the total rate is the number of
occupied sites plus the summed birth rates of the eligible vacant sites,
holding times are exponential with that rate, and the next event is picked
proportionally.  Vacant sites are bucketed by their occupied-neighbor
count, which keeps both the total birth rate and the proportional pick
exact (rates are integer multiples of the birth parameter) and makes every
event O(neighborhood size).

The finite mode uses sites 1..L with everything outside permanently
vacant; births can never cross the boundary.  Occupation of site 1 or L is
flagged so supercritical runs can detect that the edge touched the
truncation.  The sparse mode has no boundary: only occupied / eligible
sites are stored, which realizes a window that follows the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .parallel import chunk_ranges, run_trials
from .rng import UniformBuffer, binomial_ci, trial_generator
from .stats import TrialStats

STANDARD = "standard"
THRESHOLD = "threshold"
DEFAULT_NEIGHBORHOOD = (-1, 1)
THRESHOLD_NEIGHBORHOOD = (-2, -1, 1, 2)


@dataclass(frozen=True)
class ContactConfig:
    lam: float
    length: int | None = None  # None: unbounded sparse lattice
    neighborhood: tuple[int, ...] = DEFAULT_NEIGHBORHOOD
    mode: str = STANDARD

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("birth rate must be nonnegative")
        if self.mode not in (STANDARD, THRESHOLD):
            raise ValueError(f"unknown mode {self.mode!r}")
        offsets = tuple(sorted(self.neighborhood))
        if not offsets:
            raise ValueError("neighborhood cannot be empty")
        if 0 in offsets:
            raise ValueError("neighborhood cannot contain 0")
        if set(offsets) != {-d for d in offsets}:
            raise ValueError("neighborhood must be symmetric")
        object.__setattr__(self, "neighborhood", offsets)
        if self.length is not None and self.length < 1:
            raise ValueError("interval length must be >= 1")


def threshold_config(lam: float, length: int | None = None) -> ContactConfig:
    """Threshold variant: births at rate lam wherever >= 1 neighbor is occupied."""
    return ContactConfig(lam, length, THRESHOLD_NEIGHBORHOOD, THRESHOLD)


class _IndexedSet:
    """Set with O(1) add/remove; ``items`` lists the members for uniform picks."""

    __slots__ = ("items", "pos")

    def __init__(self):
        self.items: list[int] = []
        self.pos: dict[int, int] = {}

    def __contains__(self, x):
        return x in self.pos

    def add(self, x):
        self.pos[x] = len(self.items)
        self.items.append(x)

    def remove(self, x):
        i = self.pos.pop(x)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i


@dataclass(frozen=True)
class ContactTrajectory:
    alive_at_tmax: bool
    extinct_time: float | None
    final_occupied: tuple[int, ...]
    right_edge_path: tuple[tuple[float, float | None], ...]
    boundary_hit: bool
    n_events: int


def simulate_contact(cfg: ContactConfig, init, t_max: float, seed: int,
                     record_dt: float | None = None) -> ContactTrajectory:
    """One trajectory from the occupied set ``init`` up to time ``t_max``."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    rng = UniformBuffer(trial_generator(seed, 0))
    return _run(cfg, init, t_max, rng, record_dt)


def _run(cfg: ContactConfig, init, t_max: float, rng: UniformBuffer,
         record_dt: float | None) -> ContactTrajectory:
    lam = cfg.lam
    offsets = cfg.neighborhood
    finite = cfg.length is not None
    length = cfg.length or 0
    threshold = cfg.mode == THRESHOLD
    nb_max = len(offsets)

    def valid(x: int) -> bool:
        return 1 <= x <= length if finite else True

    occupied = _IndexedSet()
    occupied_items = occupied.items
    counts: dict[int, int] = {}
    buckets = [_IndexedSet() for _ in range(nb_max + 1)]  # index = neighbor count
    bucket_items = [b.items for b in buckets]
    # birth rate in units of lam: the summed neighbor counts of the vacant
    # sites, or in threshold mode the number of vacant sites with any
    units = 0

    def occupy(x: int):
        nonlocal units
        k = counts.pop(x, 0)
        if k:
            buckets[k].remove(x)
            units -= 1 if threshold else k
        occupied.add(x)
        for d in offsets:
            y = x + d
            if valid(y) and y not in occupied:
                ky = counts.get(y, 0)
                if ky:
                    buckets[ky].remove(y)
                counts[y] = ky + 1
                buckets[ky + 1].add(y)
                if not threshold or not ky:
                    units += 1

    def die(x: int):
        nonlocal units
        occupied.remove(x)
        k = 0
        for d in offsets:
            y = x + d
            if not valid(y):
                continue
            if y in occupied:
                k += 1
            else:
                ky = counts.get(y)
                if ky:
                    buckets[ky].remove(y)
                    if ky > 1:
                        counts[y] = ky - 1
                        buckets[ky - 1].add(y)
                    else:
                        del counts[y]
                    if not threshold or ky == 1:
                        units -= 1
        if k:
            counts[x] = k
            buckets[k].add(x)
            units += 1 if threshold else k

    boundary_hit = False
    init = sorted(set(init))
    for x in init:
        if finite and not valid(x):
            raise ValueError(f"initial site {x} outside 1..{length}")
    for x in init:
        occupy(x)
        if finite and (x == 1 or x == length):
            boundary_hit = True

    def right_edge():
        return max(occupied_items) if occupied_items else None

    path: list[tuple[float, float | None]] = [(0.0, right_edge())]
    next_record = record_dt if record_dt else math.inf

    t = 0.0
    events = 0
    extinct_time = None
    while True:
        n_occupied = len(occupied_items)
        if not n_occupied:
            extinct_time = t
            break
        total = n_occupied + lam * units
        t_next = t + rng.exponential(total)
        while next_record <= min(t_next, t_max):
            path.append((next_record, right_edge()))
            next_record += record_dt
        if t_next > t_max:
            t = t_max
            break
        t = t_next
        events += 1
        r = rng.next() * total
        if r < n_occupied:
            die(occupied_items[rng.below(n_occupied)])
        else:
            r -= n_occupied
            for k in range(1, nb_max + 1):
                size = len(bucket_items[k])
                if size:
                    chosen = k
                    w = lam * size * (1 if threshold else k)
                    if r < w:
                        break
                    r -= w
            # with no break, the last nonempty bucket absorbs any float roundoff in r
            x = bucket_items[chosen][rng.below(len(bucket_items[chosen]))]
            occupy(x)
            if finite and (x == 1 or x == length):
                boundary_hit = True

    path.append((t_max if extinct_time is None else extinct_time, right_edge()))
    return ContactTrajectory(
        alive_at_tmax=extinct_time is None,
        extinct_time=extinct_time,
        final_occupied=tuple(sorted(occupied_items)),
        right_edge_path=tuple(path),
        boundary_hit=boundary_hit,
        n_events=events,
    )


def center_seed(cfg: ContactConfig) -> tuple[int, ...]:
    if cfg.length is None:
        return (0,)
    return ((cfg.length + 1) // 2,)


@dataclass(frozen=True)
class SurvivalEstimate:
    fraction: float
    ci_low: float
    ci_high: float
    boundary_hits: int
    stats: TrialStats

    def to_dict(self) -> dict:
        return {
            "fraction": self.fraction,
            "ciLow": self.ci_low,
            "ciHigh": self.ci_high,
            "boundaryHits": self.boundary_hits,
            "finiteSizeSurrogate": True,
            **self.stats.to_dict(),
        }


def _survival_chunk(packed):
    cfg, init, t_max, seed, lo, hi = packed
    survivals = boundary = 0
    for trial in range(lo, hi):
        rng = UniformBuffer(trial_generator(seed, 0, trial))
        out = _run(cfg, init, t_max, rng, None)
        survivals += out.alive_at_tmax
        boundary += out.boundary_hit
    return survivals, boundary


def estimate_survival(cfg: ContactConfig, t_max: float, trials: int, seed: int,
                      init=None, workers: int = 1) -> SurvivalEstimate:
    """Fraction of trials still occupied at t_max, with a 95% interval.

    The infinite-volume survival probability is not observable here: this
    is a finite-interval, finite-horizon surrogate (noted in the output).
    Trials split across processes when workers > 1; per-trial streams are
    seed-derived and the counts are order-independent, so the result is
    identical to the single-process run.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if init is None:
        init = center_seed(cfg)
    init = tuple(init)
    jobs = [(cfg, init, t_max, seed, lo, hi) for lo, hi in chunk_ranges(trials, workers)]
    parts = run_trials(_survival_chunk, jobs, workers)
    survivals = sum(p[0] for p in parts)
    boundary_hits = sum(p[1] for p in parts)
    low, high = binomial_ci(survivals, trials)
    stats = TrialStats(
        trials=trials, survivals=survivals, master_seed=seed, lane="contact/0",
        notes=("finite-size surrogate: fixed interval and horizon",),
    )
    return SurvivalEstimate(survivals / trials, low, high, boundary_hits, stats)


@dataclass(frozen=True)
class EdgeSpeedEstimate:
    slope: float
    stderr: float
    trial_slopes: tuple[float, ...]
    excluded_trials: int
    stats: TrialStats

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "stderr": self.stderr,
            "excludedTrials": self.excluded_trials,
            "finiteSizeSurrogate": True,
            **self.stats.to_dict(),
        }


def right_edge_speed(lam: float, t_max: float, trials: int, seed: int,
                     neighborhood: tuple[int, ...] = DEFAULT_NEIGHBORHOOD,
                     left_depth: int = 400, samples: int = 40) -> EdgeSpeedEstimate:
    """Least-squares speed of the rightmost occupied site from a half-line.

    Starts from sites -left_depth..0 occupied on the unbounded lattice (the
    half-line truncated at a depth that survives the horizon) and fits the
    edge position over the second half of the run, averaging per-trial
    slopes.  Trials whose population dies before producing two usable
    samples are excluded and counted.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = ContactConfig(lam, None, neighborhood, STANDARD)
    init = range(-left_depth, 1)
    record_dt = t_max / samples
    slopes = []
    edge_samples = []
    excluded = 0
    for trial in range(trials):
        rng = UniformBuffer(trial_generator(seed, 1, trial))
        out = _run(cfg, init, t_max, rng, record_dt)
        points = [
            (t, e) for t, e in out.right_edge_path
            if e is not None and t >= t_max / 2
        ]
        edge_samples.extend((trial, t, float(e)) for t, e in points)
        if len(points) < 2:
            excluded += 1
            continue
        slopes.append(_least_squares_slope(points))
    if not slopes:
        raise RuntimeError("every trial died before the fitting window")
    mean = sum(slopes) / len(slopes)
    if len(slopes) > 1:
        var = sum((s - mean) ** 2 for s in slopes) / (len(slopes) - 1)
        stderr = math.sqrt(var / len(slopes))
    else:
        stderr = math.inf
    stats = TrialStats(
        trials=trials, survivals=trials - excluded, master_seed=seed,
        lane="contact/1", right_edge_samples=tuple(edge_samples),
        notes=(f"half-line truncated at depth {left_depth}",),
    )
    return EdgeSpeedEstimate(mean, stderr, tuple(slopes), excluded, stats)


def _least_squares_slope(points) -> float:
    n = len(points)
    mean_t = sum(t for t, _ in points) / n
    mean_x = sum(x for _, x in points) / n
    num = sum((t - mean_t) * (x - mean_x) for t, x in points)
    den = sum((t - mean_t) ** 2 for t, _ in points)
    return num / den
