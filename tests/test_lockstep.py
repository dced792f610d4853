"""The lockstep shell's row lifecycle (``ipslab/lockstep.py``): a row is
recorded once, when it ends, then runs out the block it has read, and the
rows still live are compacted between blocks.  Each case below has rows
that keep stepping after they were recorded, and shows it."""

import math
from collections import Counter

import pytest
from references import lockstep_outcomes, walk_outcomes

from stochlab.gaplab import cycle_graph
from stochlab.ipslab import ContactConfig, contact, lockstep, voter

CASES = {
    # supercritical on the sparse line with a short horizon: rows recorded
    # at t_max go on growing and widen every row's window
    "sparse-widens": (lockstep_outcomes, (ContactConfig(3.0), (0,), 1.0, 5), "widened"),
    # a short interval: rows recorded at t_max die out and are revived
    "interval-revives": (lockstep_outcomes, (ContactConfig(1.0, length=4), (1, 2, 3, 4), 0.5, 6),
                         "ended again"),
    # four walkers on a small cycle: rows recorded at t_max still merge down
    # to one walker
    "walks-merge": (walk_outcomes, (cycle_graph(6), (0, 2, 3, 5), 0.3, 7), "ended again"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_trial_is_recorded_once(monkeypatch, case):
    outcomes, args, shown = CASES[case]
    trials, records, seen = 300, Counter(), Counter()
    for cls in (contact._ContactRows, voter._Walks):
        def record(self, rows, original=cls.record):
            records.update(tuple(self.keys[r]) for r in rows.tolist())
            return original(self, rows)
        monkeypatch.setattr(cls, "record", record)

    def end(self, rows, original=lockstep.Lockstep.end):
        seen["ended again"] += int((self.t[rows] == -math.inf).sum())
        return original(self, rows)

    def widen(self, original=contact._ContactRows._widen):
        seen["widened"] += bool((self.t == -math.inf).any())
        return original(self)

    monkeypatch.setattr(lockstep.Lockstep, "end", end)
    monkeypatch.setattr(contact._ContactRows, "_widen", widen)
    together = outcomes(*args, 0, trials)
    assert seen[shown] > 0  # some recorded row went on stepping and showed it
    assert len(records) == trials and set(records.values()) == {1}
    assert len(together) == trials and None not in together
    monkeypatch.setattr(lockstep, "WINDOW_SITES", 1)  # a window per trial
    assert together == outcomes(*args, 0, trials)
