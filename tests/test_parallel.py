import os

from stochlab.ipslab.parallel import chunk_ranges, run_trials


def test_chunks_cover_trials_in_order(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert chunk_ranges(10, 3) == [(0, 4), (4, 8), (8, 10)]
    assert chunk_ranges(10, 64) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert chunk_ranges(2, 64) == [(0, 1), (1, 2)]
    assert chunk_ranges(5, 0) == [(0, 5)]


def test_workers_capped_by_cpus_and_jobs(monkeypatch):
    # a lambda cannot be sent to a worker process, so these calls pass only
    # when the cap leaves a single worker and the jobs run in this process
    here = os.getpid()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_trials(lambda lo, hi: (lo, hi, os.getpid()), (), 3, 64) == [(0, 3, here)]
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert run_trials(lambda job, lo, hi: (job, lo, hi, os.getpid()), (7,), 1, 64) == [
        (7, 0, 1, here)]
