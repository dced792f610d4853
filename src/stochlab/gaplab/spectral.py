"""Spectral gaps, Dirichlet forms, and variance for symmetric generators.

The solver follows the operator's format, which the generator builders
pick from the state count.  Dense operators (up to 720 states) get a full
symmetric eigendecomposition.  Sparse operators (the 5040-state
permutation space) use a Lanczos solve for the smallest eigenvalue after
deflating the constant vector: adding a rank-one shift on the all-ones
direction moves the trivial zero eigenvalue out of the way without
touching the rest of the spectrum.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .generators import GeneratorOperator

DEFAULT_TOL_ZERO = 1e-9


class ReducibilityError(RuntimeError):
    """The generator's zero eigenvalue is not simple (disconnected support)."""


def spectral_gap(op: GeneratorOperator, tol_zero: float = DEFAULT_TOL_ZERO) -> float:
    """Smallest nonzero eigenvalue of the negated rate matrix.

    Eigenvalues below ``tol_zero`` times the spectral radius count as zero;
    exactly one is allowed, otherwise ReducibilityError is raised.
    """
    if op.is_sparse:
        return _iterative_gap(op, tol_zero)
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


def _iterative_gap(op: GeneratorOperator, tol_zero: float) -> float:
    from scipy.sparse.csgraph import connected_components

    q = op.matrix
    dim = op.dim
    diag = np.asarray(q.diagonal()).ravel()
    radius_bound = 2.0 * float(np.abs(diag).max())  # Gershgorin for -Q
    if radius_bound == 0.0:
        raise ReducibilityError("zero generator has no spectral gap")
    # for a symmetric generator the zero eigenvalue multiplicity equals the
    # number of connected components of the state graph; Lanczos restarts
    # can miss extra zeros, so count them structurally
    pieces, _ = connected_components(q, directed=False)
    if pieces != 1:
        raise ReducibilityError(
            f"state graph splits into {pieces} pieces; the chain is reducible"
        )
    ones = np.full(dim, 1.0 / np.sqrt(dim))

    def matvec(x):
        return -(q @ x) + radius_bound * (ones @ x) * ones

    operator = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    rng = np.random.default_rng(1729)  # fixed start vector for reproducibility
    v0 = rng.standard_normal(dim)
    smallest = eigsh(operator, k=1, which="SA", v0=v0, tol=1e-11,
                     maxiter=50 * dim, return_eigenvectors=False)[0]
    if smallest <= tol_zero * radius_bound:
        raise ReducibilityError(
            "deflated operator still has a near-zero eigenvalue; "
            "the chain is reducible"
        )
    return float(smallest)


def extreme_eigenvalues(matrix) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a symmetric matrix, dense or sparse."""
    import scipy.sparse as sp

    if sp.issparse(matrix):
        v0 = np.random.default_rng(1729).standard_normal(matrix.shape[0])
        lo = eigsh(matrix, k=1, which="SA", v0=v0, return_eigenvectors=False)[0]
        hi = eigsh(matrix, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
        return float(lo), float(hi)
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(eigenvalues[0]), float(eigenvalues[-1])


def dirichlet_form(op: GeneratorOperator, f) -> float:
    """Energy -<f, Qf> under the uniform measure on the state space."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.dim,):
        raise ValueError(f"test vector has shape {f.shape}, expected ({op.dim},)")
    return float(-(f @ (op.matrix @ f)) / op.dim)


def variance(f) -> float:
    """Variance of a test vector under the uniform measure."""
    f = np.asarray(f, dtype=float)
    if f.size == 0:
        raise ValueError("empty test vector")
    return float((f * f).mean() - f.mean() ** 2)
