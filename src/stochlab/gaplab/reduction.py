"""One-vertex network reduction and the hub-comparison quadratic form.

Removing vertex ``i`` redistributes its conductances among the remaining
vertices: the new weight on (j, k) gains c(i,j)c(i,k) / sum_l c(i,l).
This is the conductance-preserving trace of the walk (series reduction on
3 vertices, star-triangle on 4).

The hub-comparison form compares the swap energy of the star at ``i``
against half the redistributed pairwise swap energy; its positive
semidefiniteness is exactly the inequality that makes the reduction
monotone for the interchange process.  Both read only the star
S = {i} u N(i).  The form's swaps lie in Sym(S), so its spectrum as a set
is that of the same coefficients on |S| vertices: ``octopus_extremes``
solves Sym(S)'s irrep blocks (|S| up to 8, any n), and ``octopus_form``
builds the form densely on all n! states (n up to 6).
"""

from __future__ import annotations

import itertools

import numpy as np

from .generators import GeneratorOperator, _PermutationSpace
from .graphs import WeightedGraph
from .irreps import block_spectrum


def _star(graph: WeightedGraph, i: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """S = {i} u N(i) ascending, i's conductances to S, and the redistributed
    conductances c(i,j)c(i,k) / sum_l c(i,l) on S x S (zero diagonal)."""
    if not 0 <= i < graph.n:
        raise ValueError(f"vertex {i} outside 0..{graph.n - 1}")
    star = sorted([i, *np.flatnonzero(graph.weights[i] > 0).tolist()])
    if len(star) == 1:
        raise ValueError(f"vertex {i} is isolated")
    spokes = graph.weights[i, star]
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.outer(spokes, spokes) / graph.strength(i)
    np.fill_diagonal(products, 0.0)
    if not np.isfinite(products).all():
        raise ValueError(f"vertex {i}: the products of its conductances overflow")
    return star, spokes, products


def reduce_vertex(graph: WeightedGraph, i: int) -> WeightedGraph:
    """Remove vertex i, redistributing its conductances among its neighbors."""
    star, _, products = _star(graph, i)
    reduced = graph.weights.copy()
    reduced[np.ix_(star, star)] += products
    return WeightedGraph(np.delete(np.delete(reduced, i, 0), i, 1))


def _hub_coefficients(graph: WeightedGraph, i: int) -> tuple[list, dict[tuple[int, int], float]]:
    """S = {i} u N(i) ascending, and the net coefficient of (I - T_{S[a] S[b]})
    in the hub form at i per pair of positions a < b in S, spokes first (see
    ``octopus_form``)."""
    star, spokes, products = _star(graph, i)
    hub = star.index(i)
    spoke_pairs = {(min(hub, a), max(hub, a)): w for a, w in enumerate(spokes) if a != hub}
    pairs = itertools.combinations(range(len(star)), 2)
    return star, spoke_pairs | {(a, b): -products[a, b] for a, b in pairs if products[a, b] != 0}


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
    star, coeff = _hub_coefficients(graph, i)
    for (a, b), c in coeff.items():
        # c * (I - T_ab): -c off-diagonal, +c on the diagonal
        space.swap(star[a], star[b], c)
    # the builder accumulates sum_c c (T - I); the comparison form is its
    # negative, taken in place rather than in a second n! x n! array
    matrix = space.finish()
    np.negative(matrix, out=matrix)
    return GeneratorOperator(space.states, matrix)


def octopus_extremes(graph: WeightedGraph, i: int) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of the hub comparison form at i, read
    from Sym(S)'s irrep blocks (|S| up to ``irreps.MAX_VERTICES``, any n)."""
    star, coeff = _hub_coefficients(graph, i)
    eigenvalues = [ev for _, ev in block_spectrum(len(star), coeff)]
    return min(float(ev[0]) for ev in eigenvalues), max(float(ev[-1]) for ev in eigenvalues)
