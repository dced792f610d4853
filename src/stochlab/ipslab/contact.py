"""The contact process on a finite interval or the sparse line, on two engines.

The event loop (``_run``) is exact-in-law continuous-time simulation: the
total rate is the number of occupied sites plus the summed birth rates of
the eligible vacant sites, holding times are exponential with that rate,
and the next event is picked proportionally.  Vacant sites are bucketed by
their occupied-neighbor count, which holds both the total birth rate and
the proportional pick exact (rates are integer multiples of the birth
parameter) and makes every event O(neighborhood size).

Two flat lists, ``code`` and ``where``, hold a window of sites around the
first initial site (the origin): site origin + c sits at index c, negative
c counting from the list's end, so a window of 2h slots holds c in -h .. h-1.
``code`` is -1 if occupied, -2 if permanently vacant (the finite mode's
sentinels just outside 1..L, so births never cross the boundary), else the
vacant site's occupied-neighbor count; ``where`` is a vacant site's index in
its bucket.  When a birth's neighborhood would leave the window, both lists
double and the sentinels that now fall inside are written, so memory
follows the touched span, never L or the sites' coordinates.  Occupied
sites and buckets are lists with swap-with-last removal, and per-count
tables give a vacant site's birth weight.  Occupying site 1 or L is flagged
so supercritical runs can detect that the edge touched the truncation.  The
sparse mode places no sentinels, which realizes a window that follows the
support; both modes run one loop.  Each event reads three uniforms from the
trial's stream, its step, its branch and its index, as one triple.  The
loop runs ``simulate_contact`` (trial 0 of the empty lane),
``right_edge_speed`` (lane 1) and threshold-mode survival (lane 0).

``estimate_survival`` runs standard-mode trials on the lockstep shell
(``lockstep.py``, lane 5) in the occupied-site form (``_ContactRows``):
each occupied site rings at rate 1 + |N| lam, dies with probability
1 / (1 + |N| lam) and otherwise tries a birth at a uniform offset.  So
every vacant site is born at lam per occupied neighbor, the event loop's
rate, and the two engines share one law; a birth onto an occupied site is
a step that changes nothing, the price of steps that read no rate table.
Threshold-mode survival stays on the event loop, lane 0
(``_survival_chunk``): there most proposed births would land on occupied
sites or be refused, and a lockstep with acceptance 1/(occupied neighbors)
measured slower than the loop.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache

import numpy as np

from ..memory import physical_memory_bytes
from .lockstep import Lockstep
from .parallel import run_trials
from .rng import UniformBuffer, binomial_ci, check_trials, trial_buffers
from .stats import TrialStats, check_record_dt

STANDARD = "standard"
THRESHOLD = "threshold"
DEFAULT_NEIGHBORHOOD = (-1, 1)
THRESHOLD_NEIGHBORHOOD = (-2, -1, 1, 2)
OCCUPIED = -1
OUTSIDE = -2
DEFAULT_LEFT_DEPTH = 400
# bytes a touched site of a sparse-line run holds in the window lists, the
# occupied list and the buckets (tracemalloc: 55-68 per site a long run adds)
SITE_BYTES = 192


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


def check_sparse_span(cfg: ContactConfig, init, t_max: float, name: str = "t_max"):
    """ValueError naming ``name`` when a sparse-line run from ``init`` may
    touch more sites by ``t_max`` than physical memory holds at SITE_BYTES.

    Touched sites spread only by births past an edge.  Site j = 1..R past
    it (R the reach) is born at rate at most lam times the count of
    positive offsets >= j, so an edge moves at rate at most lam times their
    sum, by at most R sites.  The bound adds both edges' mean advance at that rate to the
    initial span and R sites each side.  It bounds memory, not time."""
    if cfg.length is not None or not init:
        return
    span = _span_bound(cfg, init, t_max)
    if span * SITE_BYTES > physical_memory_bytes():
        raise ValueError(f"{name} {t_max:g} lets a sparse-line run at rate {cfg.lam:g} touch "
                         f"up to {span:.3g} sites, more than physical memory holds")


def _span_bound(cfg: ContactConfig, init, t_max: float) -> float:
    """``check_sparse_span``'s bound on the sites a sparse-line run from the
    nonempty ``init`` touches by ``t_max``."""
    reach = cfg.neighborhood[-1]
    rate = cfg.lam * sum(d for d in cfg.neighborhood if d > 0)
    return max(init) - min(init) + 1 + 2 * reach * (1 + rate * t_max)


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
    init = tuple(init)
    check_sparse_span(cfg, init, t_max)
    return _run(cfg, init, t_max, next(trial_buffers(seed, (), 0, 1)), record_dt)


def _widened(cells: list, half: int) -> list:
    """``cells``, which holds sites -half .. half - 1 by Python's negative
    indexing, copied into a list that holds -2 half .. 2 half - 1."""
    out = [0] * (4 * half)
    out[:half] = cells[:half]
    out[-half:] = cells[-half:]
    return out


def _mark_outside(code: list, half: int, ends: tuple[int, ...], reach: int):
    """OUTSIDE on the sites within ``reach`` past either end that the window
    -half .. half - 1 holds: the finite mode's sentinels."""
    if ends:
        first, last = ends
        for j in range(1, reach + 1):
            for y in (first - j, last + j):
                if -half <= y < half:
                    code[y] = OUTSIDE


def _check_init(cfg: ContactConfig, sites) -> None:
    """Refuse an initial site outside 1..L on an interval (both engines)."""
    if cfg.length is not None:
        for x in sites:
            if not 1 <= x <= cfg.length:
                raise ValueError(f"initial site {x} outside 1..{cfg.length}")


@cache
def _birth_weights(threshold: bool, degree: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A vacant site's birth weight in units of lam by its count k (k, or in
    threshold mode 1, for k >= 1), and the units it adds when its count goes
    from k to k + 1."""
    weight = (0, *(1 if threshold else k for k in range(1, degree + 1)))
    return weight, tuple(weight[k + 1] - weight[k] for k in range(degree))


def _run(cfg: ContactConfig, init, t_max: float, rng: UniformBuffer,
         record_dt: float | None) -> ContactTrajectory:
    lam = cfg.lam
    offsets = cfg.neighborhood
    reach = offsets[-1]
    weight, gain = _birth_weights(cfg.mode == THRESHOLD, len(offsets))
    sites = sorted(set(init))  # the initial sites take the birth branch first
    origin = sites[0] if sites else 0
    born = [x - origin for x in sites]  # the loop holds sites relative to origin
    _check_init(cfg, sites)
    ends = () if cfg.length is None else (1 - origin, cfg.length - origin)
    half = 8  # the window holds sites -half .. half - 1 past origin
    while born and half <= born[-1] + reach:
        half *= 2
    code = [0] * (2 * half)
    where = [0] * (2 * half)  # a vacant site's index in its bucket
    _mark_outside(code, half, ends, reach)
    inner_lo, inner_hi = reach - half, half - 1 - reach  # births whose neighbors it holds
    occupied: list[int] = []
    buckets: list[list[int]] = [[] for _ in range(len(offsets) + 1)]  # index = count
    weighted = [(weight[k], buckets[k]) for k in range(1, len(offsets) + 1)]
    units = 0  # the summed birth weights of the vacant sites
    boundary_hit = False

    path: list[tuple[float, float | None]] = [(0.0, sites[-1] if sites else None)]
    next_record = record_dt if record_dt else math.inf
    t = 0.0
    events = 0
    extinct_time = None
    stream = iter(rng)
    for step, branch, index in zip(map(math.log1p, map(operator.neg, stream)), stream, stream):
        for x in born:
            k = code[x]
            if k:
                bucket = buckets[k]
                last = bucket.pop()
                if last != x:
                    i = where[x]
                    bucket[i] = last
                    where[last] = i
                units -= weight[k]
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
                units += gain[k]
                code[y] = k + 1
                bucket = buckets[k + 1]
                where[y] = len(bucket)
                bucket.append(y)

        n_occupied = len(occupied)
        if not n_occupied:
            extinct_time = t
            break
        total = n_occupied + lam * units
        t_next = t - step / total
        while next_record <= t_next and next_record <= t_max:
            path.append((next_record, max(occupied) + origin))
            next_record += record_dt
        if t_next > t_max:
            t = t_max
            break
        t = t_next
        events += 1
        r = branch * total
        if r < n_occupied:
            i = int(index * n_occupied)
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
                    units -= gain[ky]
            code[x] = k
            if k:
                bucket = buckets[k]
                where[x] = len(bucket)
                bucket.append(x)
                units += weight[k]
            born = ()
        else:
            r -= n_occupied
            for unit, bucket in weighted:
                size = len(bucket)
                if size:
                    chosen, chosen_size = bucket, size
                    w = lam * size * unit
                    if r < w:
                        break
                    r -= w
            # with no break, the last nonempty bucket absorbs any float roundoff in r
            x = chosen[int(index * chosen_size)]
            if not inner_lo <= x <= inner_hi:  # its neighborhood leaves the window
                code, where = _widened(code, half), _widened(where, half)
                half *= 2
                _mark_outside(code, half, ends, reach)
                inner_lo, inner_hi = reach - half, half - 1 - reach
            born = (x,)

    path.append((t, max(occupied) + origin if occupied else None))
    return ContactTrajectory(
        alive_at_tmax=extinct_time is None,
        extinct_time=extinct_time,
        final_occupied=tuple([x + origin for x in sorted(occupied)]),
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


LOCKSTEP_LANE = (5,)
# lockstep site codes: bit 0 means occupied, and a birth needs both low bits clear
HELD, BARRED, UNREACHED, MARGIN = 1, 2, 4, 8
_BIRTHS = np.array([code & (HELD | BARRED) == 0 for code in range(16)])  # by code


def _lockstep_runs(cfg: ContactConfig, init, t_max: float, seed: int, lo: int, hi: int):
    """Trials lo..hi-1 of (seed, LOCKSTEP_LANE) from the occupied set
    ``init`` up to ``t_max``, in trial order, each as (final occupied sites,
    boundary hit).  A window's rows hold about ``lockstep.WINDOW_SITES``
    sites together when they span ``_span_bound``'s sites.  Standard mode
    only: the kernel has no threshold births."""
    init = sorted(set(init))
    _check_init(cfg, init)
    if not init:  # every trial starts extinct
        for _ in range(lo, hi):
            yield (), False
        return
    span = _span_bound(cfg, init, t_max)
    if cfg.length is not None:
        span = min(span, cfg.length + 2 * cfg.neighborhood[-1])
    # a row doubles from 16 sites
    yield from _ContactRows.runs(seed, LOCKSTEP_LANE, lo, hi, 2 * span + 16, t_max, cfg, init)


def _site_codes(width: int, half: int, origin: int, ends: tuple[int, ...], reach: int):
    """The codes of a fresh row whose column c holds site origin + c - half:
    MARGIN on the 2 reach columns at either side, BARRED on the finite
    mode's sentinels and UNREACHED on sites 1 and L (the columns of both
    returned too)."""
    codes = np.zeros(width, dtype=np.int8)
    codes[:2 * reach] = codes[width - 2 * reach:] = MARGIN
    end_cols = [e - origin + half for e in ends]
    barred = [c - j for c in end_cols[:1] for j in range(1, reach + 1)]
    barred += [c + j for c in end_cols[1:] for j in range(1, reach + 1)]
    for c in barred:
        if 0 <= c < width:
            codes[c] = BARRED
    for c in end_cols:
        if 0 <= c < width:
            codes[c] |= UNREACHED
    return codes, end_cols


class _ContactRows(Lockstep):
    """One window of standard-mode trials: column c of a row holds site
    origin + c - half, and a birth needs a vacant site inside the interval.
    A row ends at t_max or when it dies out.  A birth into the MARGIN
    doubles every row's window, as ``_widened`` does, so every site a step
    reads stays inside its row."""

    def __init__(self, cfg: ContactConfig, init: list[int], keys: list):
        self.lam, self.offsets = cfg.lam, np.array(cfg.neighborhood, dtype=np.intp)
        self.reach = reach = cfg.neighborhood[-1]
        self.ring = 1 + len(self.offsets) * self.lam
        self.ends = () if cfg.length is None else (1, cfg.length)
        self.origin = origin = init[0]
        half = 8  # column half holds the origin; occupied columns stay >= 2 reach from either side
        while half <= init[-1] - origin + 2 * reach:
            half *= 2
        self.half = half
        codes, self.end_cols = _site_codes(2 * half, half, origin, self.ends, reach)
        super().__init__(keys, codes, [x - origin + half for x in init])  # marked 1, HELD
        self.covered = self._covers()

    def _covers(self) -> bool:  # no birth can reach the margin any more
        cols, width = self.end_cols, self.cells.shape[1]
        return bool(self.ends) and cols[0] >= 2 * self.reach and cols[1] < width - 2 * self.reach

    def decode(self, action):
        action = action * self.ring
        self.dies = action < 1
        self.move = np.zeros(action.shape, dtype=np.intp)  # the birth's offset; 0 on a death
        if self.lam:
            births = ~self.dies
            j = np.minimum(((action[births] - 1) / self.lam).astype(np.intp),
                           len(self.offsets) - 1)
            self.move[births] = self.offsets[j]

    def record(self, rows):
        hits = np.zeros(len(rows), dtype=bool)
        for c in self.end_cols:
            if 0 <= c < self.cells.shape[1]:
                hits |= self.cells[rows, c] & ~MARGIN != UNREACHED
        width, shift = self.cells.shape[1], self.origin - self.half
        for r, hit, alive in zip(rows.tolist(), hits.tolist(),
                                 self.count[rows].astype(np.intp).tolist()):
            final = ()
            if alive:
                final = tuple(sorted(f - r * width + shift for f in self.sites[r, :alive].tolist()))
            self.results[self.ids[r]] = final, hit

    def step(self, s: int, i):
        cells, sites = self.cells.ravel(), self.sites.ravel()
        top = np.add(self.base, self.count, dtype=np.intp, casting="unsafe")
        x = sites[i]
        y = x + self.move[s]
        code = cells[y]
        born = _BIRTHS.take(code)
        d = self.dies[s]
        new = code + born
        new *= ~d  # a death empties its site, which is y
        cells[y] = new
        sites[i] = np.where(d, sites[top - 1], x)
        sites[top] = y
        self.count += np.subtract(born, d, dtype=np.int8)
        if not self.covered and np.maximum.reduce(new) > MARGIN and \
                ((new & (MARGIN | HELD)) == MARGIN | HELD).any():
            self._widen()
        if not np.logical_and.reduce(self.count):
            out = np.flatnonzero(self.count == 0)
            self.end(out)
            base = self.base[out]  # revived on the origin: a row is never stepped empty
            self.count[out] = 1
            self.sites.ravel()[base] = base + self.half
            self.cells.ravel()[base + self.half] = HELD

    def _widen(self):
        half, width, n = self.half, self.cells.shape[1], len(self.keys)
        fresh, self.end_cols = _site_codes(2 * width, 2 * half, self.origin, self.ends,
                                           self.reach)
        cells = np.tile(fresh, (n, 1))
        cells[:, half:half + width] = self.cells & ~MARGIN
        sites = np.zeros((n, 2 * width), dtype=np.intp)
        sites[:, :width] = self.sites + (self.base + half)[:, None]  # column c moves to c + half
        self.cells, self.sites, self.half = cells, sites, 2 * half
        self._rebase()
        self.covered = self._covers()


def _survival_chunk(cfg, init, t_max, seed, lo, hi):
    survivals = boundary = 0
    for rng in trial_buffers(seed, (0,), lo, hi):
        out = _run(cfg, init, t_max, rng, None)
        survivals += out.alive_at_tmax
        boundary += out.boundary_hit
    return survivals, boundary


def _lockstep_chunk(cfg, init, t_max, seed, lo, hi):
    survivals = boundary = 0
    for final, hit in _lockstep_runs(cfg, init, t_max, seed, lo, hi):
        survivals += bool(final)
        boundary += hit
    return survivals, boundary


def _survival_estimate(survivals: int, boundary_hits: int, trials: int, seed: int,
                       lane: str) -> SurvivalEstimate:
    low, high = binomial_ci(survivals, trials)
    stats = TrialStats(
        trials=trials, survivals=survivals, master_seed=seed, lane=lane,
        notes=("finite-size surrogate: fixed interval and horizon",),
    )
    return SurvivalEstimate(survivals / trials, low, high, boundary_hits, stats)


def estimate_survival(cfg: ContactConfig, t_max: float, trials: int, seed: int,
                      init=None, workers: int = 1) -> SurvivalEstimate:
    """Fraction of trials still occupied at t_max, with a 95% interval.

    The infinite-volume survival probability is not observable here: this
    is a finite-interval, finite-horizon surrogate (noted in the output).
    Standard-mode trials run on the lockstep shell, lane 5
    (``_ContactRows``), threshold-mode trials on the event loop, lane 0,
    where they measured faster, as do standard-mode trials whose ring rate
    1 + |N| lam overflows to inf.  Trials split across processes when
    workers > 1; per-trial streams are seed-derived and the counts are
    order-independent, so the result is identical to the single-process run.
    """
    _check_horizon(t_max)
    check_trials(trials)
    if init is None:
        init = center_seed(cfg)
    init = tuple(init)
    check_sparse_span(cfg, init, t_max)
    chunk, lane = ((_lockstep_chunk, "contact/5") if cfg.mode == STANDARD and
                   math.isfinite(1 + len(cfg.neighborhood) * cfg.lam)
                   else (_survival_chunk, "contact/0"))
    parts = run_trials(chunk, (cfg, init, t_max, seed), trials, workers)
    return _survival_estimate(sum(p[0] for p in parts), sum(p[1] for p in parts), trials,
                              seed, lane)


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
    if samples < 2:
        raise ValueError(f"samples must be >= 2 to fit a slope, got {samples}")
    cfg = ContactConfig(lam, None, neighborhood, STANDARD)
    init = range(-left_depth, 1)
    check_sparse_span(cfg, init, t_max)
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
