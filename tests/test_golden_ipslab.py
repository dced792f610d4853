"""Seeded ipslab outputs pinned bit for bit.

``golden/ipslab_seeded.json`` was written by this module's ``__main__``
from the code as it stood before RNG blocks grew geometrically and
adjacency was built once per estimator; both changes must leave every
seeded stream untouched.  Its three older survival entries are the
estimator as it ran on the event loop, lane 0, which threshold-mode
``estimate_survival`` and ``references.event_loop_survival`` still run;
the ``*_lockstep`` entries, added when standard-mode ``estimate_survival``
moved onto the lockstep kernel, pin lane 5: an interval, the sparse line
(whose window doubles) and two workers.  The outputs carry no timing
fields, so the comparison is plain ``==`` after a JSON round trip (which turns tuples
into lists and keeps floats exact).  Never regenerate the file to make a
refactor pass: a mismatch is a bug in the refactor.
"""

import json
from dataclasses import asdict
from pathlib import Path

from references import event_loop_survival

from stochlab import ipslab
from stochlab.gaplab import cycle_graph

GOLDEN = Path(__file__).parent / "golden" / "ipslab_seeded.json"


def seeded_outputs() -> dict:
    standard = ipslab.ContactConfig(1.5, length=31)
    threshold = ipslab.threshold_config(1.0, length=31)
    full = tuple(range(1, 32))
    voter = ipslab.VoterConfig(cycle_graph(10), rho=0.5)
    edge = ipslab.right_edge_speed(2.0, t_max=20.0, trials=6, seed=9, left_depth=60)
    return {
        "simulate_contact": asdict(
            ipslab.simulate_contact(standard, full, 5.0, seed=99, record_dt=0.5)),
        "simulate_contact_threshold": asdict(
            ipslab.simulate_contact(threshold, full, 5.0, seed=98, record_dt=0.5)),
        "simulate_voter": asdict(ipslab.simulate_voter(voter, 20.0, seed=12, record_dt=1.0)),
        "estimate_survival": event_loop_survival(standard, 5.0, 40, seed=4).to_dict(),
        "estimate_survival_threshold": ipslab.estimate_survival(
            threshold, 5.0, 40, seed=4).to_dict(),
        "estimate_survival_w2": event_loop_survival(
            standard, 5.0, 40, seed=4, workers=2).to_dict(),
        "duality_check": ipslab.duality_check(
            cycle_graph(10), (0, 1), 2.0, 0.5, 400, seed=5).to_dict(),
        "duality_check_w2": ipslab.duality_check(
            cycle_graph(10), (0, 1), 2.0, 0.5, 400, seed=5, workers=2).to_dict(),
        "consensus_rate": ipslab.consensus_rate(voter, 100.0, 50, seed=2).to_dict(),
        "right_edge_speed": {**edge.to_dict(), "trialSlopes": list(edge.trial_slopes)},
        "estimate_survival_lockstep": ipslab.estimate_survival(
            standard, 5.0, 40, seed=4).to_dict(),
        "estimate_survival_lockstep_sparse": ipslab.estimate_survival(
            ipslab.ContactConfig(2.5), 8.0, 40, seed=4).to_dict(),
        "estimate_survival_lockstep_w2": ipslab.estimate_survival(
            standard, 5.0, 40, seed=4, workers=2).to_dict(),
    }


def test_uniform_buffer_matches_one_long_draw():
    # 20,000 reads cross every growing block (64..4096) and full 8192 ones
    buf = ipslab.UniformBuffer(ipslab.trial_generator(7, 0, 3))
    expected = ipslab.trial_generator(7, 0, 3).random(20_000).tolist()
    assert [buf.next() for _ in range(20_000)] == expected


def test_seeded_outputs_match_golden():
    assert json.loads(json.dumps(seeded_outputs())) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(seeded_outputs(), indent=1))
