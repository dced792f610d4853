"""Exact colorlab outputs pinned as reduced rationals.

``golden/colorlab_reports.json`` was written by this module's ``__main__``
from the code as it stood while every value was built by ``Fraction``
arithmetic, before the recursion, the formula route and the dependence
check moved to integer counts.  Rationals are stored as ``str`` of the
reduced fraction, so the comparison is plain ``==`` after a JSON round
trip.  Never regenerate the file to make a refactor pass: a mismatch is a
bug in the refactor.

Sampling changed its stream once, on purpose, when it moved from drawing
each letter from its prefix's conditional law to random insertion: the
``sample_*`` entries keep the old stream, produced by the old sampler in
``references``, the ``insertion_sample_*`` entries were added to pin the
new one, and the README's ``color sample`` command was pinned again.
"""

import contextlib
import io
import json
from pathlib import Path

from references import prefix_sample_windows
from stochlab import colorlab
from stochlab.cli import parse_and_dispatch

GOLDEN = Path(__file__).parent / "golden" / "colorlab_reports.json"

# the colorlab commands printed in the README, at the README's scale
README_COMMANDS = [
    ["color", "prob", "--q", "4", "--word", "121"],
    ["color", "prob", "--word", "131", "--source", "formula"],
    ["color", "check-dep", "--q", "4", "--k", "1", "--nmax", "8", "--expect", "holds=true"],
    ["color", "marginal", "--q", "4", "--pattern", "1.3"],
    ["color", "sample", "--q", "4", "--n", "10", "--seed", "7", "--count", "5"],
    ["color", "pushforward", "--n", "2"],
]


def _cli_value(argv) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code, report = parse_and_dispatch(argv)
    report = dict(report)
    report.pop("elapsed_ms")
    return {"exit": code, "report": report}


def seeded_outputs() -> dict:
    q2, q3, q4, q6 = map(colorlab.recursion_measure, (2, 3, 4, 6))
    dependence = {
        f"q{q}_k{k}_nmax{nmax}": colorlab.check_k_dependence(m, k, nmax).to_dict()
        for q, m, k, nmax in [(4, q4, 1, 7), (3, q3, 1, 8), (3, q3, 2, 8), (4, q4, 0, 3)]
    }
    pushforward = {
        str(n): {"".join(map(str, w)): str(p)
                 for w, p in sorted(colorlab.EliminateFoursMeasure().window(n).items())}
        for n in range(5)
    }
    normalizers = {
        str(q): [str(colorlab.CylinderMeasure(q).normalizer(n)) for n in range(1, 11)]
        for q in range(2, 7)
    }
    return {
        "check_k_dependence": dependence,
        "eliminate_fours_pushforward": pushforward,
        # the sampler's stream before it drew by random insertion
        "sample_q4_n10_count5_seed7": prefix_sample_windows(q4, 10, 5, seed=7),
        "sample_q3_n8_count20_seed11": prefix_sample_windows(q3, 8, 20, seed=11),
        "insertion_sample_q4_n10_count5_seed7": colorlab.sample_windows(q4, 10, 5, seed=7),
        "insertion_sample_q3_n8_count20_seed11": colorlab.sample_windows(q3, 8, 20, seed=11),
        "insertion_sample_q2_n5_count4_seed3": colorlab.sample_windows(q2, 5, 4, seed=3),
        "insertion_sample_q6_n12_count3_seed13": colorlab.sample_windows(q6, 12, 3, seed=13),
        "readme_commands": {" ".join(argv): _cli_value(argv) for argv in README_COMMANDS},
        "normalizers": normalizers,
    }


def test_colorlab_outputs_match_golden():
    got = json.loads(json.dumps(seeded_outputs()))
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(seeded_outputs(), indent=1))
