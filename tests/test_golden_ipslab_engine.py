"""Event-loop corner cases pinned bit for bit.

``golden/ipslab_engine.json`` complements ``ipslab_seeded.json`` with the
cases the estimators there never reach: the sparse line in threshold mode
and with a wide neighborhood, runs that die with recording on, initial sets
on the interval's end sites, an interval of one site, coalescing walks at
many seeds and a uniform stream read across a partial block.  It was
written by this module's ``__main__`` from the event loops as they stood
before their state moved into one code map, and is compared with plain
``==`` after a JSON round trip.  The entries that make a run's touched
span grow (a sparse run that travels far both ways, one started near
10**15, an interval of 10**12 sites and one whose window grows onto both
end sites) were added from the loop as it stood before its state moved
into windowed lists.  The coalescing-walk entries read the walks' event
loop, which moved to ``references._walk_survivors`` when ``duality_check``'s
walk side moved onto the lockstep shell.  Never regenerate the file to make a
refactor pass: a mismatch is a bug in the refactor.
"""

import hashlib
import json
import struct
from dataclasses import asdict
from pathlib import Path

from references import _walk_survivors, adjacency_lists, path_graph

from stochlab import ipslab
from stochlab.gaplab import cycle_graph
from stochlab.ipslab import voter

GOLDEN = Path(__file__).parent / "golden" / "ipslab_engine.json"

PARTIAL = 37       # reads before the long one: the first 64-block is left part-used
LONG_READ = 20_000


def _contact(cfg, init, t_max, seed, record_dt=None) -> dict:
    return asdict(ipslab.simulate_contact(cfg, init, t_max, seed=seed, record_dt=record_dt))


def _uniform_digest() -> dict:
    buf = ipslab.UniformBuffer(ipslab.trial_generator(21, 0, 8))
    head = [buf.next() for _ in range(PARTIAL)]
    tail = [buf.next() for _ in range(LONG_READ)]
    return {
        "head": head,
        "tailSha256": hashlib.sha256(struct.pack(f"<{LONG_READ}d", *tail)).hexdigest(),
        "tailEnds": [tail[0], tail[-1]],
    }


def _walks(graph, start, t_max, seeds) -> list[int]:
    return [
        _walk_survivors(adjacency_lists(graph), start, t_max,
                        ipslab.UniformBuffer(ipslab.trial_generator(s, 4, 0)))
        for s in seeds
    ]


def engine_outputs() -> dict:
    wide = ipslab.right_edge_speed(1.2, t_max=12.0, trials=4, seed=17,
                                   neighborhood=(-2, -1, 1, 2), left_depth=30, samples=12)
    return {
        "edge_speed_wide": {
            **wide.to_dict(),
            "trialSlopes": list(wide.trial_slopes),
            "edgeSamples": [list(s) for s in wide.stats.right_edge_samples],
        },
        "sparse_threshold": _contact(ipslab.threshold_config(1.0), range(-6, 7), 6.0,
                                     seed=31, record_dt=0.5),
        "sparse_standard": _contact(ipslab.ContactConfig(1.8), (0, 3, 3, 9), 8.0,
                                    seed=32, record_dt=0.5),
        "sparse_wide": _contact(ipslab.ContactConfig(0.6, neighborhood=(-3, -2, -1, 1, 2, 3)),
                                range(0, 10), 5.0, seed=33, record_dt=1.0),
        "extinct_recorded": _contact(ipslab.ContactConfig(1.4, length=20), (10, 11), 40.0,
                                     seed=2, record_dt=0.25),
        "pure_death_recorded": _contact(ipslab.ContactConfig(0.0, length=11),
                                        range(1, 12), 10.0, seed=5, record_dt=0.5),
        "ends_standard": _contact(ipslab.ContactConfig(1.8, length=25), (25, 1, 13), 6.0,
                                  seed=44, record_dt=0.5),
        "ends_threshold": _contact(ipslab.threshold_config(0.9, length=25), (1, 2, 24, 25),
                                   6.0, seed=42, record_dt=0.5),
        "ends_wide": _contact(ipslab.ContactConfig(0.7, 12, (-3, -1, 1, 3)), (1, 12), 6.0,
                              seed=43, record_dt=0.5),
        "single_site": _contact(ipslab.ContactConfig(5.0, length=1), (1,), 3.0, seed=47,
                                record_dt=0.5),
        "sparse_far_both_ways": _contact(ipslab.ContactConfig(2.5), (0,), 60.0, seed=5,
                                         record_dt=2.0),
        "sparse_far_coordinates": _contact(ipslab.ContactConfig(1.8), (10**15, 10**15 + 2),
                                           10.0, seed=1, record_dt=1.0),
        "huge_interval": _contact(ipslab.ContactConfig(0.5, length=10**12), (5 * 10**11,),
                                  20.0, seed=12, record_dt=0.25),
        "grows_to_ends": _contact(ipslab.threshold_config(1.5, length=30), (15,), 20.0,
                                  seed=2, record_dt=1.0),
        "long_supercritical": _contact(ipslab.ContactConfig(2.0, length=400),
                                       range(1, 401), 20.0, seed=45, record_dt=2.0),
        "walks_cycle": _walks(cycle_graph(10), (0, 1, 5), 3.0, range(12)),
        "walks_path": _walks(path_graph(7), (6, 0, 3, 3, 1), 4.0, range(100, 112)),
        "voter_opinions": asdict(ipslab.simulate_voter(
            ipslab.VoterConfig(path_graph(6), opinions=(1, 0, 1, 1, 0, 0)), 30.0,
            seed=46, record_dt=2.0)),
        "uniform_after_partial_block": _uniform_digest(),
    }


def test_engine_outputs_match_golden():
    assert json.loads(json.dumps(engine_outputs())) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(engine_outputs(), indent=1))
