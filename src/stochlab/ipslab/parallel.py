"""Splitting seeded trials across worker processes.

Every trial draws from its own seed-derived stream, so which process runs
it does not matter; results come back in chunk order, and estimators that
reduce them in that order report the same numbers at any worker count.
"""

from __future__ import annotations

import os


def chunk_ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` trial ranges, one per process that can run."""
    parts = max(1, min(workers, trials, os.cpu_count() or 1))
    per = -(-trials // parts)
    return [(lo, min(lo + per, trials)) for lo in range(0, trials, per)]


def run_trials(chunk_fn, args: tuple, trials: int, workers: int) -> list:
    """``chunk_fn(*args, lo, hi)`` over ``chunk_ranges(trials, workers)`` in
    order: in this process for one range, else on one process per range."""
    ranges = chunk_ranges(trials, workers)
    if len(ranges) == 1:
        return [chunk_fn(*args, *ranges[0])]
    from concurrent.futures import ProcessPoolExecutor  # only multi-process runs pay its import

    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(chunk_fn, *args, lo, hi) for lo, hi in ranges]
        return [future.result() for future in futures]
