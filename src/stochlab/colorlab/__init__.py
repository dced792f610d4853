"""Exact-arithmetic construction and checks of finitely dependent colorings."""

from .dependence import DependenceReport, DependenceWitness, check_k_dependence
from .descent import descent_set_probability
from .measure import (
    CylinderMeasure,
    NormalizerMismatchError,
    canonical_form,
    formula_cylinder_probability,
    marginalize,
    memo_fits,
    proper_words,
    recursion_measure,
)
from .pushforward import (
    EliminateFoursMeasure,
    eliminate_fours_letter,
    eliminate_fours_pushforward,
)
from .sampling import sample_windows
from .words import CLOSE, NEUTRAL, OPEN, is_proper

__all__ = [
    "CLOSE",
    "NEUTRAL",
    "OPEN",
    "CylinderMeasure",
    "DependenceReport",
    "DependenceWitness",
    "EliminateFoursMeasure",
    "NormalizerMismatchError",
    "canonical_form",
    "check_k_dependence",
    "descent_set_probability",
    "eliminate_fours_letter",
    "eliminate_fours_pushforward",
    "formula_cylinder_probability",
    "is_proper",
    "marginalize",
    "memo_fits",
    "proper_words",
    "recursion_measure",
    "sample_windows",
]
