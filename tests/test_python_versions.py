"""Seeded values do not depend on the Python version.

From Python 3.12 on, the builtin ``sum`` adds floats with Neumaier's
compensation, so a float total can differ in its last bits from the
left-to-right total of 3.10 and 3.11.  The library adds its float totals
left to right itself; ``references.sum_312`` stands in for 3.12's ``sum``
here, and every golden corpus must pass with it shadowing ``sum`` in every
``stochlab`` module.
"""

import importlib
import pkgutil
import random

import pytest
import test_golden_colorlab as golden_colorlab
import test_golden_gaplab as golden_gaplab
import test_golden_ipslab as golden_ipslab
import test_golden_ipslab_engine as golden_ipslab_engine
from references import sum_312

import stochlab
from stochlab.ipslab import contact

# float.hex of sum(_floats(seed)) as CPython 3.12.1 and 3.13.0 compute it, and
# as 3.10.13 and 3.11.7 compute it, left to right
SUMS_312 = {0: "-0x1.137d582dcd61cp+24", 1: "0x1.156af84a55eb1p+27",
            2: "0x1.3261656daf2c6p+26", 3: "0x1.b9ead23828ccep+25",
            4: "0x1.9cb52df790c43p+26", 5: "-0x1.55faa75e9d885p+20"}
SUMS_LEFT_TO_RIGHT = {0: "-0x1.137d582dcd625p+24", 1: "0x1.156af84a55eb2p+27",
                      2: "0x1.3261656daf2c6p+26", 3: "0x1.b9ead23828cd0p+25",
                      4: "0x1.9cb52df790c44p+26", 5: "-0x1.55faa75e9d879p+20"}


def _floats(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(50)]


def test_the_emulation_is_python_312s_sum():
    assert {seed: sum_312(_floats(seed)).hex() for seed in SUMS_312} == SUMS_312


def test_the_library_adds_left_to_right():
    assert {seed: contact._added(_floats(seed)).hex() for seed in SUMS_312} == \
        SUMS_LEFT_TO_RIGHT


@pytest.fixture()
def python_312_sum(monkeypatch):
    for info in pkgutil.walk_packages(stochlab.__path__, "stochlab."):
        module = importlib.import_module(info.name)
        monkeypatch.setattr(module, "sum", sum_312, raising=False)


@pytest.mark.parametrize("golden_test", [
    golden_colorlab.test_colorlab_outputs_match_golden,
    golden_gaplab.test_gap_outputs_match_golden,
    golden_ipslab.test_seeded_outputs_match_golden,
    golden_ipslab_engine.test_engine_outputs_match_golden,
], ids=["colorlab", "gaplab", "ipslab", "ipslab-engine"])
def test_golden_corpora_pass_under_python_312s_sum(python_312_sum, golden_test):
    golden_test()
