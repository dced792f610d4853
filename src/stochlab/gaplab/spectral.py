"""Spectral gaps and extreme eigenvalues of symmetric generators.

A dense generator's gap comes from a full symmetric eigendecomposition.
``extreme_eigenvalues`` splits a dense matrix into the connected
components of its nonzero pattern, found by ``graphs._components`` as for
``WeightedGraph.is_connected`` (it reads the pattern through a boolean
mask: 0.3-0.4 ms on a 720 x 720 hub form, where ``np.nonzero`` of the
floats takes 2.5 ms on 2 vCPUs), and solves the components of each size in one batched
``eigvalsh``; the dense hub comparison form at vertex i has one component
of |S|! states per coset of Sym(S), S = {i} u N(i), which is why
``reduction.octopus_extremes`` solves it in Sym(S) alone.  A
permutation-space operator can instead be read from its irrep blocks
(``irreps.block_spectrum``): ``block_gap`` takes the smallest eigenvalue
outside the trivial block, which holds the one zero eigenvalue of the
constant functions.
"""

from __future__ import annotations

import numpy as np

from .generators import GeneratorOperator
from .graphs import _components

DEFAULT_TOL_ZERO = 1e-9  # fixed, like every verdict threshold: no option loosens it


class ReducibilityError(RuntimeError):
    """The generator's zero eigenvalue is not simple (disconnected support)."""


def spectral_gap(op: GeneratorOperator) -> float:
    """Smallest nonzero eigenvalue of the negated rate matrix.

    Eigenvalues below ``DEFAULT_TOL_ZERO`` (1e-9) times the spectral radius
    count as zero; exactly one is allowed, otherwise ReducibilityError is
    raised.
    """
    eigenvalues = np.linalg.eigvalsh(-op.dense())
    radius = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    if radius == 0.0:
        raise ReducibilityError("zero generator has no spectral gap")
    threshold = DEFAULT_TOL_ZERO * radius
    nonzero = eigenvalues[eigenvalues > threshold]
    zero_count = eigenvalues.size - nonzero.size
    if zero_count != 1:
        raise ReducibilityError(
            f"{zero_count} eigenvalues below the zero threshold; "
            "the chain is reducible (or the matrix is not a generator)"
        )
    return float(nonzero[0])


def block_gap(blocks) -> float:
    """Spectral gap of a negated generator from its ``block_spectrum``.

    The trivial block (n) holds the zero eigenvalue; the gap is the
    smallest eigenvalue of every other block, and one below
    ``DEFAULT_TOL_ZERO`` (1e-9) times the spectral radius (the largest over
    all blocks) raises ReducibilityError, as a second zero eigenvalue does
    in ``spectral_gap``.
    """
    radius = max(float(np.abs(ev).max()) for _, ev in blocks)
    if radius == 0.0:
        raise ReducibilityError("zero generator has no spectral gap")
    gap = min(float(ev[0]) for shape, ev in blocks if len(shape) > 1)
    if gap <= DEFAULT_TOL_ZERO * radius:
        raise ReducibilityError(
            f"a nontrivial irrep block has eigenvalue {gap:.3g}, below the zero "
            "threshold; the chain is reducible"
        )
    return gap


def extreme_eigenvalues(matrix) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a dense symmetric matrix.

    The matrix is block diagonal up to a relabeling, one block per
    connected component of its nonzero pattern, and its spectrum is the
    union of the blocks' spectra.  Each block keeps its indices in
    ascending order, and all blocks of one size are solved by one batched
    ``eigvalsh``; a connected matrix is solved whole, as ``eigvalsh(matrix)``.
    Like ``eigvalsh``, only the lower triangle is read.  Raises ValueError,
    naming the shape, for an empty or non-square matrix.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ValueError(f"need a nonempty square matrix, got shape {matrix.shape}")
    order, starts, sizes = _components(matrix)
    low, high = np.inf, -np.inf
    for size in set(sizes.tolist()):  # not np.unique, which imports numpy.ma (1.2 MiB)
        members = order[starts[sizes == size, None] + np.arange(size)]
        eigenvalues = np.linalg.eigvalsh(matrix[members[:, :, None], members[:, None, :]])
        low = min(low, eigenvalues[:, 0].min())
        high = max(high, eigenvalues[:, -1].max())
    return float(low), float(high)

