"""Exact colorlab outputs pinned as reduced rationals.

``golden/colorlab_reports.json`` was written by this module's ``__main__``
from the code as it stood while every value was built by ``Fraction``
arithmetic, before the recursion, the formula route and the dependence
check moved to integer counts.  Rationals are stored as ``str`` of the
reduced fraction, so the comparison is plain ``==`` after a JSON round
trip.  Never regenerate the file to make a refactor pass: a mismatch is a
bug in the refactor.
"""

import contextlib
import io
import json
from pathlib import Path

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
    q3, q4 = colorlab.recursion_measure(3), colorlab.recursion_measure(4)
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
        "sample_q4_n10_count5_seed7": colorlab.sample_windows(q4, 10, 5, seed=7),
        "sample_q3_n8_count20_seed11": colorlab.sample_windows(q3, 8, 20, seed=11),
        "readme_commands": {" ".join(argv): _cli_value(argv) for argv in README_COMMANDS},
        "normalizers": normalizers,
    }


def test_colorlab_outputs_match_golden():
    got = json.loads(json.dumps(seeded_outputs()))
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(seeded_outputs(), indent=1))
