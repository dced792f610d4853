"""Dense rate matrices over permutations, particle subsets, and vertices.

Permutation states assign a label to each vertex and are ranked by Lehmer
code (lexicographic order of the label tuples).  All generators here are
symmetric, so the uniform measure is reversible for each of them.  These
builders are the explicit witnesses of the spectra that gaplab's reports
read from irrep blocks (``irreps.block_spectrum``): they form every matrix
densely and refuse a state space above ``DENSE_STATE_LIMIT`` states
(6! = 720, so at most six vertices for the permutation space).

A permutation-space matrix is filled one relabeling g at a time, each
adding its rate at the entries (sigma, sigma o g) of all n! states.  Which
entries those are depends only on n and g, so their flat indices are
ranked once per process (``_move_map``) and every later build that moves
by g, in any interchange, shuffle or hub-form matrix, reads them back.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> tuple[tuple, np.ndarray]:
    """The n! label assignments in Lehmer order, as tuples and as one
    read-only int array.  Built once per n and process."""
    states = tuple(itertools.permutations(range(n)))
    perms = np.array(states, dtype=np.int64)
    perms.flags.writeable = False
    return states, perms


@functools.lru_cache(maxsize=None)
def _move_map(n: int, moved: tuple[int, ...]) -> np.ndarray:
    """Read-only flat indices r * n! + rank(sigma_r o g) of the entries that
    the relabeling g (``moved[v]`` = g(v)) fills, one per state sigma_r.
    Built once per (n, g) and process: at most n! maps of n! indices, under
    4 MiB at ``DENSE_STATE_LIMIT``."""
    _, perms = _permutations(n)
    images = perms[:, moved]
    # Lehmer code: digit k counts the later entries smaller than entry k
    later_smaller = np.triu(images[:, :, None] > images[:, None, :], 1).sum(axis=2)
    place = np.array([math.factorial(n - 1 - k) for k in range(n)], dtype=np.int64)
    flat = np.arange(len(perms)) * len(perms) + later_smaller @ place
    flat.flags.writeable = False
    return flat


class _PermutationSpace(_MatrixBuilder):
    """A dense rate matrix over the n! label assignments, filled one
    relabeling of positions at a time for every state at once, through the
    memoized ``_move_map`` of that relabeling."""

    def __init__(self, n: int, what: str):
        _check_permutation_capacity(n, what)
        self.n = n
        self.states, _ = _permutations(n)
        super().__init__(len(self.states))

    def move(self, moved, rate: float):
        """Rate from every sigma to sigma o g, where ``moved`` lists g(v)
        for each position v."""
        # one entry per row, so each entry gets its rates in the order added
        self.matrix.ravel()[_move_map(self.n, tuple(moved))] += rate
        self.diag -= rate

    def swap(self, i: int, j: int, rate: float):
        moved = list(range(self.n))
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
