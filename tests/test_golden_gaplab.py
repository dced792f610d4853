"""Gap reports, hub-form minima and a shuffle comparison pinned bit for bit.

``golden/gaplab_reports.json`` was written by this module's ``__main__``
from the code as it stood while a 7-vertex report still needed an
explicit opt-in to its sparse path (the cycle7 entry was produced with
it).  Dense generators are built from the same rates in the same order
since, and the sparse ones from the same triplets, so every value must
match with ``==``.  The one exception is ``lambdaShuffle``: the shuffle
now sums each diagonal entry over all rated subsets in one pass and no
longer adds and removes the identity arrangement's rate, so its last
bits may move; it is held to 1e-12 relative.  Never regenerate the file
to make a refactor pass: a mismatch is a bug in the refactor.
"""

import json
from pathlib import Path

import numpy as np

from stochlab import gaplab

GOLDEN = Path(__file__).parent / "golden" / "gaplab_reports.json"
SHUFFLE_RTOL = 1e-12


def seeded_outputs() -> dict:
    g5 = gaplab.random_connected_graph(5, np.random.default_rng(51))
    g6 = gaplab.random_connected_graph(6, np.random.default_rng(61))
    hub5 = gaplab.random_connected_graph(5, np.random.default_rng(52))
    hyper = gaplab.random_hyperweights(5, np.random.default_rng(53))
    return {
        "report_path3": gaplab.gap_report(gaplab.path_graph(3)).to_dict(),
        "report_n5_shuffle": gaplab.gap_report(g5, hyper=hyper).to_dict(),
        "report_n6": gaplab.gap_report(g6).to_dict(),
        "report_cycle7": gaplab.gap_report(gaplab.cycle_graph(7)).to_dict(),
        "octopus_n5_minima": [
            gaplab.extreme_eigenvalues(gaplab.octopus_form(hub5, hub).matrix)[0]
            for hub in range(hub5.n)
        ],
        "shuffle_n5": gaplab.shuffle_gap_comparison(hyper),
    }


def split_shuffle(outputs: dict) -> tuple[dict, list[float]]:
    """Move every ``lambdaShuffle`` out of the outputs, in a fixed order."""
    shuffles = []
    for key in sorted(outputs):
        value = outputs[key]
        if isinstance(value, dict) and "lambdaShuffle" in value:
            shuffles.append(value.pop("lambdaShuffle"))
    return outputs, shuffles


def test_gap_outputs_match_golden():
    got, got_shuffle = split_shuffle(json.loads(json.dumps(seeded_outputs())))
    want, want_shuffle = split_shuffle(json.loads(GOLDEN.read_text()))
    assert got == want
    assert len(got_shuffle) == len(want_shuffle) == 2
    for a, b in zip(got_shuffle, want_shuffle):
        assert abs(a - b) <= SHUFFLE_RTOL * abs(b)


if __name__ == "__main__":
    print(json.dumps(seeded_outputs(), indent=1))
