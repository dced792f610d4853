"""Bulk stream keys and reseated buffers against the per-trial definition
``Generator(Philox(SeedSequence((seed, *lane, trial))))``."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from stochlab import gaplab, ipslab
from stochlab.ipslab import contact, lockstep, rng, voter
from stochlab.ipslab.rng import StreamReader, stream_keys, trial_buffers, trial_generator

SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
LANES = [(), (0,), (3,), (4,), (1, 7)]
# windows of up to rng.SCALAR_TRIALS trials are keyed by numpy's SeedSequence itself,
# wider ones by the uint32 hash on arrays
WINDOWS = [(0, 5), (1000, 1010), (2**32 - 3, 2**32), (2**32 - 9, 2**32)]


def seed_sequence_keys(seed, lane, lo, hi):
    keys = [SeedSequence((seed, *lane, t)).generate_state(2, np.uint64) for t in range(lo, hi)]
    return np.array(keys, dtype=np.uint64).reshape(hi - lo, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_stream_keys_equal_seed_sequence(seed, lane, lo, hi):
    got = stream_keys(seed, lane, lo, hi)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, seed_sequence_keys(seed, lane, lo, hi))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       lane=st.lists(st.integers(0, 2**40), max_size=4).map(tuple),
       lo=st.integers(0, 2**32), width=st.integers(0, 12))
def test_stream_keys_property(seed, lane, lo, width):
    hi = min(lo + width, 2**32)
    np.testing.assert_array_equal(stream_keys(seed, lane, lo, hi),
                                  seed_sequence_keys(seed, lane, lo, hi))


def test_interleaved_buffers_equal_their_generators():
    # 20,000 draws cross the 64, 128, ... 8192 blocks, and each refill of one
    # buffer happens while the other has the shared Philox seated on its key
    first, second = trial_buffers(2**63 + 11, (3,), 41, 43)
    a, b = [], []
    for _ in range(20_000):
        a.append(first.next())
        b.append(second.next())
    assert a == trial_generator(2**63 + 11, 3, 41).random(20_000).tolist()
    assert b == trial_generator(2**63 + 11, 3, 42).random(20_000).tolist()


def test_buffers_read_in_many_threads_equal_their_generators():
    # each thread reads through its own reader; a reader shared across
    # threads could be reseated by one thread between another's seat and read
    threads_n, trials, draws = 6, 4, 3000

    def read(lane, out):
        bufs = list(trial_buffers(3, (lane,), 0, trials))
        rows = [[] for _ in bufs]
        for _ in range(draws):
            for buf, row in zip(bufs, rows):
                row.append(buf.next())
        out.extend(rows)

    results = [[] for _ in range(threads_n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=read, args=(lane, results[lane]))
                for lane in range(threads_n)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for lane, rows in enumerate(results):
        assert rows == [trial_generator(3, lane, t).random(draws).tolist()
                        for t in range(trials)]
    assert rng.thread_reader() is rng.thread_reader()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**64 - 1])
def test_trial_zero_of_the_empty_lane_is_the_one_lane_stream(seed):
    # simulate_contact reads this buffer for trial_generator(seed, 0)'s stream
    buf = next(trial_buffers(seed, (), 0, 1))
    got = [buf.next() for _ in range(20_000)]
    assert got == trial_generator(seed, 0).random(20_000).tolist()


def test_buffers_past_one_key_block():
    lo, hi = rng.KEY_BLOCK - 2, rng.KEY_BLOCK + 2
    got = [buf.next() for buf in trial_buffers(5, (0,), lo, hi)]
    assert got == [trial_generator(5, 0, t).random() for t in range(lo, hi)]


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 101])
def test_reader_reads_any_stretch_of_any_stream(start):
    # starts off a 4-double Philox step drop the doubles before them
    keys = stream_keys(9, (2,), 3, 6).tolist()
    reader = StreamReader()
    rows = reader.rows(keys, start, 7)
    for trial, key, row in zip(range(3, 6), keys, rows):
        want = trial_generator(9, 2, trial).random(start + 7)[start:].tolist()
        assert row.tolist() == want
        assert reader.rows([key], start, 7)[0].tolist() == want


def test_empty_window_yields_nothing():
    assert list(trial_buffers(1, (0,), 7, 7)) == []
    assert stream_keys(1, (0,), 7, 7).shape == (0, 2)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_raises_like_trial_generator(seed):
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        trial_generator(seed, 0, 0)
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        stream_keys(seed, (0,), 0, 1)
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        next(trial_buffers(seed, (0,), 0, 1))


@pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 2**32 + 1)])
def test_window_outside_trial_domain_raises(lo, hi):
    with pytest.raises(ValueError, match="trial window"):
        stream_keys(1, (0,), lo, hi)


def test_trial_count_domain():
    rng.check_trials(1)
    rng.check_trials(ipslab.MAX_TRIALS)
    for bad in (0, ipslab.MAX_TRIALS + 1):
        with pytest.raises(ValueError, match="trials must be in 1..2\\*\\*32"):
            rng.check_trials(bad)


def _no_work(*args, **kwargs):
    raise AssertionError("a trial started")


@pytest.mark.parametrize("estimator", [
    lambda n: ipslab.estimate_survival(ipslab.ContactConfig(1.0, 11), 1.0, n, seed=1),
    lambda n: ipslab.right_edge_speed(1.0, 1.0, n, seed=1),
    lambda n: ipslab.consensus_rate(ipslab.VoterConfig(gaplab.cycle_graph(4), rho=0.5),
                                    1.0, n, seed=1),
    lambda n: ipslab.duality_check(gaplab.cycle_graph(4), (0, 1), 1.0, 0.5, n, seed=1),
], ids=["survival", "edge-speed", "consensus", "duality"])
def test_estimators_reject_more_than_two_to_the_32_trials(monkeypatch, estimator):
    # the event loops read per-trial buffers; the lockstep shell and the voter
    # kernel key and read whole windows of trials
    for module, names in ((contact, ("trial_buffers", "run_trials")),
                          (voter, ("trial_keys", "thread_reader", "run_trials", "_voter_runs")),
                          (lockstep, ("trial_keys", "thread_reader"))):
        for name in names:
            monkeypatch.setattr(module, name, _no_work)
    with pytest.raises(ValueError, match="trials must be in 1..2\\*\\*32"):
        estimator(2**32 + 1)


# each public estimator and single-trajectory entry point on a tiny input
ENTRY_POINTS = {
    "simulate_contact": lambda: ipslab.simulate_contact(ipslab.ContactConfig(1.0, 5), (3,), 1.0,
                                                        seed=1),
    "simulate_voter": lambda: ipslab.simulate_voter(
        ipslab.VoterConfig(gaplab.cycle_graph(4), rho=0.5), 1.0, seed=1),
    "estimate_survival": lambda: ipslab.estimate_survival(ipslab.ContactConfig(1.0, 5), 1.0, 8,
                                                          seed=1),
    "estimate_survival[threshold]": lambda: ipslab.estimate_survival(
        ipslab.threshold_config(1.0, 5), 1.0, 8, seed=1),
    "right_edge_speed": lambda: ipslab.right_edge_speed(1.0, 1.0, 2, seed=1, left_depth=3),
    "consensus_rate": lambda: ipslab.consensus_rate(
        ipslab.VoterConfig(gaplab.cycle_graph(4), rho=0.5), 1.0, 8, seed=1),
    "duality_check": lambda: ipslab.duality_check(gaplab.cycle_graph(4), (0, 1), 1.0, 0.5, 8,
                                                  seed=1),
}


def test_entry_points_read_lanes_of_their_own(monkeypatch):
    # two purposes on one lane would read the same streams at a seed, and
    # their results would be silently correlated
    read, stream_keys = [], rng.stream_keys

    def recording(seed, lane, lo, hi):
        read.append(tuple(lane))
        return stream_keys(seed, lane, lo, hi)

    monkeypatch.setattr(rng, "stream_keys", recording)
    lanes = {}
    for name, run in ENTRY_POINTS.items():
        read.clear()
        run()
        lanes[name] = set(read)
    # a single trajectory of either process is trial 0 of the empty lane
    assert lanes.pop("simulate_contact") == lanes.pop("simulate_voter") == {()}
    assert lanes["duality_check"] == {(3,), (6,)}  # lane 4 is the tests' witness walks
    estimator_lanes = [lane for read_lanes in lanes.values() for lane in read_lanes]
    assert all(lanes.values()) and () not in estimator_lanes
    assert len(estimator_lanes) == len(set(estimator_lanes)), lanes
