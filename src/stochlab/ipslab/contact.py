"""Event-driven contact process on a finite interval or the sparse line.

Exact-in-law continuous-time simulation: the total rate is the number of
occupied sites plus the summed birth rates of the eligible vacant sites,
holding times are exponential with that rate, and the next event is picked
proportionally.  Vacant sites are bucketed by their occupied-neighbor
count, which keeps both the total birth rate and the proportional pick
exact (rates are integer multiples of the birth parameter) and makes every
event O(neighborhood size).

One code map holds every site the run has touched: -1 if occupied, -2 if
permanently vacant (the finite mode's sentinels just outside 1..L, so
births never cross the boundary), else the vacant site's occupied-neighbor
count.  Occupied sites and buckets are lists with swap-with-last removal,
and one dict holds a vacant site's index in its bucket.  Occupying site 1
or L is flagged so supercritical runs can detect that the edge touched the
truncation.  The sparse mode places no sentinels, which realizes a window
that follows the support; both modes run one loop.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .parallel import chunk_ranges, run_trials
from .rng import UniformBuffer, binomial_ci, check_trials, trial_buffers
from .stats import TrialStats, check_record_dt

STANDARD = "standard"
THRESHOLD = "threshold"
DEFAULT_NEIGHBORHOOD = (-1, 1)
THRESHOLD_NEIGHBORHOOD = (-2, -1, 1, 2)
OCCUPIED = -1
OUTSIDE = -2
DEFAULT_LEFT_DEPTH = 400


@dataclass(frozen=True)
class ContactConfig:
    lam: float
    length: int | None = None  # None: unbounded sparse lattice
    neighborhood: tuple[int, ...] = DEFAULT_NEIGHBORHOOD
    mode: str = STANDARD

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"birth rate must be finite and nonnegative, got {self.lam}")
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


def _check_horizon(t_max: float):
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")


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
    """One trajectory from the occupied set ``init`` up to time ``t_max``,
    recording the right edge every ``record_dt`` (None or 0: no path points).

    The stream is ``trial_generator(seed, 0)``'s: trial 0 of the empty lane.
    """
    _check_horizon(t_max)
    check_record_dt(t_max, record_dt)
    return _run(cfg, init, t_max, next(trial_buffers(seed, (), 0, 1)), record_dt)


def _run(cfg: ContactConfig, init, t_max: float, rng: UniformBuffer,
         record_dt: float | None) -> ContactTrajectory:
    lam = cfg.lam
    offsets = cfg.neighborhood
    threshold = cfg.mode == THRESHOLD
    draw = rng.next
    log1p = math.log1p
    born = sorted(set(init))  # the initial sites take the birth branch first
    code: defaultdict[int, int] = defaultdict(int)
    ends = () if cfg.length is None else (1, cfg.length)
    if ends:
        for x in born:
            if not 1 <= x <= cfg.length:
                raise ValueError(f"initial site {x} outside 1..{cfg.length}")
        for j in range(1, offsets[-1] + 1):
            code[1 - j] = code[cfg.length + j] = OUTSIDE
    occupied: list[int] = []
    buckets: list[list[int]] = [[] for _ in range(len(offsets) + 1)]  # index = count
    # a vacant site's birth weight in units of lam: its count, or in threshold mode 1
    weighted = [(1 if threshold else k, buckets[k]) for k in range(1, len(offsets) + 1)]
    where: dict[int, int] = {}  # a vacant site's index in its bucket
    units = 0  # the summed birth weights of the vacant sites
    boundary_hit = False

    path: list[tuple[float, float | None]] = [(0.0, born[-1] if born else None)]
    next_record = record_dt if record_dt else math.inf
    t = 0.0
    events = 0
    extinct_time = None
    while True:
        for x in born:
            k = code[x]
            if k:
                bucket = buckets[k]
                last = bucket.pop()
                if last != x:
                    i = where[x]
                    bucket[i] = last
                    where[last] = i
                units -= 1 if threshold else k
            code[x] = OCCUPIED
            occupied.append(x)
            if x in ends:
                boundary_hit = True
            for d in offsets:
                y = x + d
                k = code[y]
                if k < 0:
                    continue
                if k:
                    bucket = buckets[k]
                    last = bucket.pop()
                    if last != y:
                        i = where[y]
                        bucket[i] = last
                        where[last] = i
                if not threshold or not k:
                    units += 1
                code[y] = k + 1
                bucket = buckets[k + 1]
                where[y] = len(bucket)
                bucket.append(y)

        n_occupied = len(occupied)
        if not n_occupied:
            extinct_time = t
            break
        total = n_occupied + lam * units
        t_next = t - log1p(-draw()) / total
        while next_record <= t_next and next_record <= t_max:
            path.append((next_record, max(occupied)))
            next_record += record_dt
        if t_next > t_max:
            t = t_max
            break
        t = t_next
        events += 1
        r = draw() * total
        if r < n_occupied:
            i = int(draw() * n_occupied)
            if i >= n_occupied:  # u * n can round up to n at the float edge
                i = n_occupied - 1
            x = occupied[i]
            last = occupied.pop()
            if last != x:
                occupied[i] = last
            k = 0
            for d in offsets:
                y = x + d
                ky = code[y]
                if ky == OCCUPIED:
                    k += 1
                elif ky > 0:
                    bucket = buckets[ky]
                    last = bucket.pop()
                    if last != y:
                        i = where[y]
                        bucket[i] = last
                        where[last] = i
                    ky -= 1
                    code[y] = ky
                    if ky:
                        bucket = buckets[ky]
                        where[y] = len(bucket)
                        bucket.append(y)
                    if not threshold or not ky:
                        units -= 1
            code[x] = k
            if k:
                bucket = buckets[k]
                where[x] = len(bucket)
                bucket.append(x)
                units += 1 if threshold else k
            born = ()
        else:
            r -= n_occupied
            for weight, bucket in weighted:
                size = len(bucket)
                if size:
                    chosen, chosen_size = bucket, size
                    w = lam * size * weight
                    if r < w:
                        break
                    r -= w
            # with no break, the last nonempty bucket absorbs any float roundoff in r
            i = int(draw() * chosen_size)
            if i >= chosen_size:
                i = chosen_size - 1
            born = (chosen[i],)

    path.append((t, max(occupied) if occupied else None))
    return ContactTrajectory(
        alive_at_tmax=extinct_time is None,
        extinct_time=extinct_time,
        final_occupied=tuple(sorted(occupied)),
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
    for rng in trial_buffers(seed, (0,), lo, hi):
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
    _check_horizon(t_max)
    check_trials(trials)
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
            "stderr": self.stderr if len(self.trial_slopes) > 1 else None,  # JSON has no inf
            "excludedTrials": self.excluded_trials,
            "finiteSizeSurrogate": True,
            **self.stats.to_dict(),
        }


def right_edge_speed(lam: float, t_max: float, trials: int, seed: int,
                     neighborhood: tuple[int, ...] = DEFAULT_NEIGHBORHOOD,
                     left_depth: int = DEFAULT_LEFT_DEPTH, samples: int = 40) -> EdgeSpeedEstimate:
    """Least-squares speed of the rightmost occupied site from a half-line.

    Starts from sites -left_depth..0 occupied on the unbounded lattice (the
    half-line truncated at a depth that survives the horizon) and fits the
    edge position over the second half of the run, averaging per-trial
    slopes.  Trials whose population dies before producing two usable
    samples are excluded and counted.
    """
    _check_horizon(t_max)
    check_trials(trials)
    if left_depth < 0:
        raise ValueError(f"left_depth must be >= 0, got {left_depth}")
    cfg = ContactConfig(lam, None, neighborhood, STANDARD)
    init = range(-left_depth, 1)
    record_dt = t_max / samples
    slopes = []
    edge_samples = []
    excluded = 0
    for trial, rng in enumerate(trial_buffers(seed, (1,), 0, trials)):
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
        raise ValueError(f"every trial died before the fitting window t >= {t_max / 2}; "
                         "nothing to fit")
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
