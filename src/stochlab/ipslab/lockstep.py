"""The lockstep shell that contact survival and the coalescing walks run on.

The trials of a window are the rows of numpy arrays, and one numpy step
advances every row by one event.  A row holds its trial's cells, int8
codes that the process defines (bit 0 set while occupied), and in
swap-with-last order its occupied cells as flat indices into all rows'
cells (``sites``: ``count`` of them from the row's first flat index
``base``, so one past the last is ``base + count``).  Each occupied cell
rings at rate ``ring``, so a step reads three uniforms of the trial's
stream: the holding time, the ringing cell ``int(u count)`` (rng's pick
rule) and its action.  The rows read each block of steps together through
``StreamReader.rows``, so an outcome depends only on (seed, lane, trial)
at any window, block or worker count.  A row is recorded once, when it
ends, and then runs out the block it has read: its steps write only its
own cells, or widen every row's window, which changes no outcome.  The
rows still live are compacted between blocks; a block cut short would
throw away the uniforms it read.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .rng import log1p_of_negated, thread_reader, trial_keys

FIRST_STEPS = 2            # steps a trial reads in its first block; later blocks double
BLOCK_UNIFORMS = 1 << 18   # the most uniforms a block array holds (2 MiB), unless one
                           # step of every row alone needs more
WINDOW_SITES = 1 << 21     # cells a window's rows hold together at their widest estimate


class Lockstep:
    """One window of trials, one row each.  A process subclasses it with
    three hooks: ``decode(action)``, which reads a block's action uniforms
    (one row per step), ``step(s, i)``, which applies step s to the ringing
    cells ``sites.ravel()[i]`` of every row, ended or not, and
    ``record(rows)``, which stores the outcomes of rows that end now in
    ``results``."""

    ring = 1.0

    @classmethod
    def runs(cls, seed: int, lane: tuple[int, ...], lo: int, hi: int, cells: float,
             t_max: float, *args):
        """The records of trials lo..hi-1 of (seed, lane) in order, from
        windows of ``cls(*args, keys)`` whose rows hold about WINDOW_SITES
        cells together at ``cells`` a row."""
        streams = trial_keys(seed, lane, lo, hi)
        while keys := list(islice(streams, max(1, int(WINDOW_SITES // cells)))):
            yield from cls(*args, keys).run(t_max)

    def __init__(self, keys: list, fresh: np.ndarray, occupied: list[int]):
        """Rows for the trials of ``keys``, each a copy of the cells ``fresh``
        with the columns ``occupied`` occupied, in that order."""
        n = len(keys)
        self.keys, self.ids, self.results = keys, list(range(n)), [None] * n
        self.cells = np.tile(fresh, (n, 1))
        self.cells[:, occupied] = 1
        self.count = np.full(n, float(len(occupied)))  # a float, as rates and picks read it
        self._rebase()
        self.sites = np.zeros(self.cells.shape, dtype=np.intp)
        self.sites[:, :len(occupied)] = occupied
        self.sites += self.base[:, None]
        self.t = np.zeros(n)

    def _rebase(self):
        """Each row's first flat index, after the rows or their width changed."""
        self.base = np.arange(len(self.keys)) * self.cells.shape[1]

    def run(self, t_max: float) -> list:
        """Step every row until it ends; the trials' records in key order."""
        reader = thread_reader()
        n = len(self.keys)
        read, steps = 0, max(1, min(FIRST_STEPS, BLOCK_UNIFORMS // (n * 3)))
        while True:
            # the block's holding times, picks and actions, one row per step
            wait, pick, action = reader.rows(self.keys, read, 3 * steps).reshape(
                n, steps, 3).transpose(2, 1, 0)
            wait = log1p_of_negated(wait) / -self.ring  # divided by the count below
            pick = pick.copy()
            self.decode(action)
            t, gain = self.t, np.empty(n)
            for s in range(steps):
                count = self.count
                np.divide(wait[s], count, out=gain)
                t += gain
                if np.maximum.reduce(t) > t_max:
                    self.end(np.flatnonzero(t > t_max))
                # int(u * n) < n by rng's pick rule, so the index needs no clamp
                self.step(s, np.add(self.base, pick[s] * count, dtype=np.intp,
                                    casting="unsafe"))  # the cast truncates
            read += 3 * steps
            live = np.flatnonzero(t > -math.inf)
            if len(live) == 0:
                return self.results
            if len(live) < n:
                n, rows = len(live), live.tolist()
                self.keys = [self.keys[r] for r in rows]
                self.ids = [self.ids[r] for r in rows]
                width = self.cells.shape[1]
                self.sites = self.sites[live] + ((np.arange(n) - live) * width)[:, None]
                self.cells, self.count, self.t = self.cells[live], self.count[live], t[live]
                self._rebase()
            steps = min(2 * steps, max(1, BLOCK_UNIFORMS // (n * 3)))

    def end(self, rows: np.ndarray):
        """Record those of ``rows`` that have not ended yet, and mark them ended."""
        rows = rows[self.t[rows] > -math.inf]
        self.record(rows)
        self.t[rows] = -math.inf
