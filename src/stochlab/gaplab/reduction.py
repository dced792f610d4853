"""One-vertex network reduction and the hub-comparison quadratic form.

Removing vertex ``i`` redistributes its conductances among the remaining
vertices: the new weight on (j, k) gains c(i,j)c(i,k) / sum_l c(i,l).
This is the conductance-preserving trace of the walk (series reduction on
3 vertices, star-triangle on 4).

The hub-comparison form compares the swap energy of the star at ``i``
against half the redistributed pairwise swap energy; its positive
semidefiniteness is exactly the inequality that makes the reduction
monotone for the interchange process.  ``octopus_form`` builds it as a
dense matrix (up to 6 vertices); its only swaps are inside S = {i} u N(i),
so ``spectral.extreme_eigenvalues`` solves it as n!/|S|! components of
|S|! states, one per coset of Sym(S).  ``octopus_extremes`` reads its
extreme eigenvalues from irrep blocks (up to 8).
"""

from __future__ import annotations

import itertools

import numpy as np

from .generators import GeneratorOperator, _PermutationSpace
from .graphs import WeightedGraph
from .irreps import block_spectrum


def reduce_vertex(graph: WeightedGraph, i: int) -> WeightedGraph:
    """Remove vertex i, redistributing its conductances among its neighbors."""
    n = graph.n
    if not 0 <= i < n:
        raise ValueError(f"vertex {i} outside 0..{n - 1}")
    strength = graph.strength(i)
    if strength <= 0:
        raise ValueError(f"vertex {i} is isolated; nothing to redistribute")
    keep = [v for v in range(n) if v != i]
    w = graph.weights
    spokes = w[i, keep]
    reduced = w[np.ix_(keep, keep)] + np.outer(spokes, spokes) / strength
    np.fill_diagonal(reduced, 0.0)
    return WeightedGraph(reduced)


def _hub_coefficients(graph: WeightedGraph, i: int) -> dict[tuple[int, int], float]:
    """Net coefficient c_ab of (I - T_ab) in the hub comparison form at i,
    per unordered pair a < b (see ``octopus_form``)."""
    n = graph.n
    if not 0 <= i < n:
        raise ValueError(f"vertex {i} outside 0..{n - 1}")
    strength = graph.strength(i)
    if strength <= 0:
        raise ValueError(f"vertex {i} is isolated")
    w = graph.weights
    others = [v for v in range(n) if v != i]
    coeff: dict[tuple[int, int], float] = {}
    for l in others:
        if w[i, l] > 0:
            coeff[(min(i, l), max(i, l))] = coeff.get((min(i, l), max(i, l)), 0.0) + w[i, l]
    for j, k in itertools.combinations(others, 2):
        c = w[i, j] * w[i, k] / strength
        if c != 0:
            coeff[(j, k)] = coeff.get((j, k), 0.0) - c
    return coeff


def octopus_form(graph: WeightedGraph, i: int) -> GeneratorOperator:
    """The hub-comparison matrix C on the permutation space, built densely.

    C = sum_l c(i,l) (I - T_il)
        - 1/2 sum_{j,k != i} (c(i,j) c(i,k) / sum_l c(i,l)) (I - T_jk)

    with T_ab the swap action at the pair (a, b); the ordered double sum
    makes each unordered pair count once (j = k terms vanish).  The matrix
    is symmetric with zero row sums but mixed-sign off-diagonals; it is not
    a generator, and its claimed property is positive semidefiniteness.
    """
    space = _PermutationSpace(graph.n, "hub comparison form")
    for (a, b), c in _hub_coefficients(graph, i).items():
        # c * (I - T_ab): -c off-diagonal, +c on the diagonal
        space.swap(a, b, c)
    # the builder accumulates sum_c c (T - I); the comparison form is its negative
    return GeneratorOperator(space.states, -space.finish())


def octopus_extremes(graph: WeightedGraph, i: int) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of the hub comparison form at i, read
    from its irrep blocks (up to ``irreps.MAX_VERTICES`` vertices)."""
    eigenvalues = [ev for _, ev in block_spectrum(graph.n, _hub_coefficients(graph, i))]
    return min(float(ev[0]) for ev in eigenvalues), max(float(ev[-1]) for ev in eigenvalues)
