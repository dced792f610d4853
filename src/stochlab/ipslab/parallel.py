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


def run_trials(chunk_fn, jobs: list, workers: int) -> list:
    """``[chunk_fn(job) for job in jobs]``, on at most min(workers, jobs, CPUs) processes."""
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [chunk_fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # only multi-process runs pay its import

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, jobs))
