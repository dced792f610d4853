"""Spectral gaps and extreme eigenvalues of symmetric generators.

A dense operator gets a full symmetric eigendecomposition.  A
permutation-space operator can instead be read from its irrep blocks
(``irreps.block_spectrum``): ``block_gap`` takes the smallest eigenvalue
outside the trivial block, which holds the one zero eigenvalue of the
constant functions.
"""

from __future__ import annotations

import numpy as np

from .generators import GeneratorOperator

DEFAULT_TOL_ZERO = 1e-9


class ReducibilityError(RuntimeError):
    """The generator's zero eigenvalue is not simple (disconnected support)."""


def spectral_gap(op: GeneratorOperator, tol_zero: float = DEFAULT_TOL_ZERO) -> float:
    """Smallest nonzero eigenvalue of the negated rate matrix.

    Eigenvalues below ``tol_zero`` times the spectral radius count as zero;
    exactly one is allowed, otherwise ReducibilityError is raised.
    """
    eigenvalues = np.linalg.eigvalsh(-op.dense())
    radius = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    if radius == 0.0:
        raise ReducibilityError("zero generator has no spectral gap")
    threshold = tol_zero * radius
    nonzero = eigenvalues[eigenvalues > threshold]
    zero_count = eigenvalues.size - nonzero.size
    if zero_count != 1:
        raise ReducibilityError(
            f"{zero_count} eigenvalues below the zero threshold; "
            "the chain is reducible (or the matrix is not a generator)"
        )
    return float(nonzero[0])


def block_gap(blocks, tol_zero: float = DEFAULT_TOL_ZERO) -> float:
    """Spectral gap of a negated generator from its ``block_spectrum``.

    The trivial block (n) holds the zero eigenvalue; the gap is the
    smallest eigenvalue of every other block, and one below ``tol_zero``
    times the spectral radius (the largest over all blocks) raises
    ReducibilityError, as a second zero eigenvalue does in ``spectral_gap``.
    """
    radius = max(float(np.abs(ev).max()) for _, ev in blocks)
    if radius == 0.0:
        raise ReducibilityError("zero generator has no spectral gap")
    gap = min(float(ev[0]) for shape, ev in blocks if len(shape) > 1)
    if gap <= tol_zero * radius:
        raise ReducibilityError(
            f"a nontrivial irrep block has eigenvalue {gap:.3g}, below the zero "
            "threshold; the chain is reducible"
        )
    return gap


def extreme_eigenvalues(matrix) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a dense symmetric matrix."""
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(eigenvalues[0]), float(eigenvalues[-1])

