"""One-vertex network reduction and the hub-comparison quadratic form.

Removing vertex ``i`` redistributes its conductances among the remaining
vertices: the new weight on (j, k) gains c(i,j)c(i,k) / sum_l c(i,l).
This is the conductance-preserving trace of the walk (series reduction on
3 vertices, star-triangle on 4).

The hub-comparison form compares the swap energy of the star at ``i``
against half the redistributed pairwise swap energy; its positive
semidefiniteness is exactly the inequality that makes the reduction
monotone for the interchange process.
"""

from __future__ import annotations

import itertools

import numpy as np

from .generators import GeneratorOperator, _check_permutation_capacity, _MatrixBuilder
from .graphs import WeightedGraph


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


def embedded_reduced_graph(graph: WeightedGraph, i: int) -> WeightedGraph:
    """The reduced graph placed back on the full vertex set, i isolated."""
    reduced = reduce_vertex(graph, i)
    keep = [v for v in range(graph.n) if v != i]
    w = np.zeros((graph.n, graph.n))
    w[np.ix_(keep, keep)] = reduced.weights
    return WeightedGraph(w)


def octopus_form(graph: WeightedGraph, i: int) -> GeneratorOperator:
    """The hub-comparison matrix C on the permutation space.

    C = sum_l c(i,l) (I - T_il)
        - 1/2 sum_{j,k != i} (c(i,j) c(i,k) / sum_l c(i,l)) (I - T_jk)

    with T_ab the swap action at the pair (a, b); the ordered double sum
    makes each unordered pair count once (j = k terms vanish).  The matrix
    is symmetric with zero row sums but mixed-sign off-diagonals; it is not
    a generator, and its claimed property is positive semidefiniteness.
    """
    n = graph.n
    _check_permutation_capacity(n, "hub comparison form")
    if not 0 <= i < n:
        raise ValueError(f"vertex {i} outside 0..{n - 1}")
    strength = graph.strength(i)
    if strength <= 0:
        raise ValueError(f"vertex {i} is isolated")
    w = graph.weights
    others = [v for v in range(n) if v != i]

    # net coefficient per unordered transposition
    coeff: dict[tuple[int, int], float] = {}
    for l in others:
        if w[i, l] > 0:
            coeff[(min(i, l), max(i, l))] = coeff.get((min(i, l), max(i, l)), 0.0) + w[i, l]
    for j, k in itertools.combinations(others, 2):
        c = w[i, j] * w[i, k] / strength
        if c != 0:
            coeff[(j, k)] = coeff.get((j, k), 0.0) - c

    states = tuple(itertools.permutations(range(n)))
    index = {s: r for r, s in enumerate(states)}
    builder = _MatrixBuilder(len(states))
    for r, sigma in enumerate(states):
        lst = list(sigma)
        for (a, b), c in coeff.items():
            lst[a], lst[b] = lst[b], lst[a]
            # c * (I - T_ab): -c off-diagonal, +c on the diagonal
            builder.add(r, index[tuple(lst)], c)
            lst[a], lst[b] = lst[b], lst[a]
    # the builder accumulates sum_c c (T - I); the comparison form is its negative
    return GeneratorOperator("octopus_form", states, -builder.finish())

