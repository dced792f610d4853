"""Dense rate matrices over permutations, particle subsets, and vertices.

Permutation states assign a label to each vertex and are ranked by Lehmer
code (lexicographic order of the label tuples).  All generators here are
symmetric, so the uniform measure is reversible for each of them.  These
builders are the explicit witnesses of the spectra that gaplab's reports
read from irrep blocks (``irreps.block_spectrum``): they form every matrix
densely and refuse a state space above ``DENSE_STATE_LIMIT`` states
(6! = 720, so at most six vertices for the permutation space).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import CapacityError, HyperWeights, WeightedGraph

DENSE_STATE_LIMIT = 720  # 6!


@dataclass(frozen=True)
class GeneratorOperator:
    """A symmetric rate matrix together with its ranked state space."""

    states: tuple
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.states)

    def dense(self) -> np.ndarray:
        return self.matrix


def _check_permutation_capacity(n: int, what: str):
    if n < 2:
        raise ValueError(f"{what} needs at least 2 vertices")
    if math.factorial(n) > DENSE_STATE_LIMIT:
        raise CapacityError(f"the dense {what} supports at most {DENSE_STATE_LIMIT} states "
                            f"(6 vertices), got {n} vertices")


class _MatrixBuilder:
    """A dense rate matrix: each entry sums its rates in the order they were
    added, and the diagonal holds the negated row sums, accumulated in the
    same order.  ``add`` takes one entry, or index arrays with distinct rows.
    """

    def __init__(self, dim: int):
        self.matrix = np.zeros((dim, dim))
        self.diag = np.zeros(dim)

    def add(self, rows, cols, rate: float):
        self.matrix[rows, cols] += rate
        self.diag[rows] -= rate

    def finish(self) -> np.ndarray:
        self.matrix[np.diag_indices_from(self.matrix)] += self.diag
        return self.matrix


class _PermutationSpace(_MatrixBuilder):
    """A dense rate matrix over the n! label assignments, filled one
    relabeling of positions at a time for every state at once."""

    def __init__(self, n: int, what: str):
        _check_permutation_capacity(n, what)
        self.states = tuple(itertools.permutations(range(n)))
        super().__init__(len(self.states))
        self.perms = np.array(self.states, dtype=np.int64)
        # Lehmer code: digit k counts the later entries smaller than entry k
        self.place = np.array([math.factorial(n - 1 - k) for k in range(n)], dtype=np.int64)
        self.rows = np.arange(len(self.states))

    def move(self, moved, rate: float):
        """Rate from every sigma to sigma o g, where ``moved`` lists g(v)
        for each position v."""
        images = self.perms[:, moved]
        later_smaller = np.triu(images[:, :, None] > images[:, None, :], 1).sum(axis=2)
        self.add(self.rows, later_smaller @ self.place, rate)

    def swap(self, i: int, j: int, rate: float):
        moved = list(range(self.perms.shape[1]))
        moved[i], moved[j] = j, i
        self.move(moved, rate)


def interchange_generator(graph: WeightedGraph) -> GeneratorOperator:
    """Label swaps across every positive edge at the edge's conductance."""
    space = _PermutationSpace(graph.n, "interchange process")
    for i, j, w in graph.edges():
        space.swap(i, j, w)
    return GeneratorOperator(space.states, space.finish())


def rw_generator(graph: WeightedGraph) -> GeneratorOperator:
    """Single-particle walk: the negated weighted Laplacian."""
    if graph.n < 2:
        raise ValueError("random walk needs at least 2 vertices")
    w = graph.weights
    q = w.copy()
    np.fill_diagonal(q, -w.sum(axis=1))
    return GeneratorOperator(tuple(range(graph.n)), q)


def exclusion_generator(graph: WeightedGraph, k: int) -> GeneratorOperator:
    """k indistinguishable particles hopping across edges, one per site."""
    n = graph.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"particle count must satisfy 1 <= k <= {n - 1}, got {k}")
    if math.comb(n, k) > DENSE_STATE_LIMIT:
        raise CapacityError(f"exclusion process with {math.comb(n, k)} configurations exceeds "
                            f"the dense limit of {DENSE_STATE_LIMIT}")
    states = tuple(itertools.combinations(range(n), k))
    index = {s: r for r, s in enumerate(states)}
    edges = list(graph.edges())
    builder = _MatrixBuilder(len(states))
    for r, subset in enumerate(states):
        members = set(subset)
        for i, j, w in edges:
            if (i in members) != (j in members):
                swapped = tuple(sorted(members.symmetric_difference((i, j))))
                builder.add(r, index[swapped], w)
    return GeneratorOperator(states, builder.finish())


def alpha_shuffle_generator(hyper: HyperWeights) -> GeneratorOperator:
    """Uniform rearrangement of the labels on each rated subset.

    Each subset A contributes rate * (U_A - I) where U_A averages over all
    |A|! arrangements of the labels occupying A.  The identity arrangement's
    share, rate/|A|!, cancels against the same amount of the -rate * I
    term, so it is left out of both.
    """
    space = _PermutationSpace(hyper.n, "alpha-shuffle process")
    for subset, rate in hyper.rates.items():
        if rate == 0:
            continue
        positions = sorted(subset)
        per = rate / math.factorial(len(positions))
        moved = list(range(hyper.n))
        # permutations() yields the identity arrangement first
        for arrangement in itertools.islice(itertools.permutations(positions), 1, None):
            for p, source in zip(positions, arrangement):
                moved[p] = source
            space.move(moved, per)
    return GeneratorOperator(space.states, space.finish())


def alpha_single_particle_rates(hyper: HyperWeights) -> WeightedGraph:
    """The walk seen by one particle: each subset spreads rate/|A| on its pairs."""
    w = np.zeros((hyper.n, hyper.n))
    for subset, rate in hyper.rates.items():
        share = rate / len(subset)
        for i, j in itertools.combinations(sorted(subset), 2):
            w[i, j] += share
            w[j, i] += share
    return WeightedGraph(w)
