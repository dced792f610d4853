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
    recursion_cylinder_probability,
    recursion_measure,
)
from .pushforward import (
    EliminateFoursMeasure,
    eliminate_fours_letter,
    eliminate_fours_pushforward,
)
from .sampling import sample_window, sample_windows
from .words import (
    CLOSE,
    NEUTRAL,
    OPEN,
    DispersedDyckWord,
    RunDecomposition,
    SignMatrix,
    boundary_sign_product,
    dispersed_dyck_words,
    flip_runs,
    is_proper,
    run_decomposition,
)

__all__ = [
    "CLOSE",
    "NEUTRAL",
    "OPEN",
    "CylinderMeasure",
    "DependenceReport",
    "DependenceWitness",
    "DispersedDyckWord",
    "EliminateFoursMeasure",
    "NormalizerMismatchError",
    "RunDecomposition",
    "SignMatrix",
    "boundary_sign_product",
    "canonical_form",
    "check_k_dependence",
    "descent_set_probability",
    "dispersed_dyck_words",
    "eliminate_fours_letter",
    "eliminate_fours_pushforward",
    "flip_runs",
    "formula_cylinder_probability",
    "is_proper",
    "marginalize",
    "memo_fits",
    "proper_words",
    "recursion_cylinder_probability",
    "recursion_measure",
    "run_decomposition",
    "sample_window",
    "sample_windows",
]
