"""Rate-matrix builders over permutations, particle subsets, and vertices.

Permutation states assign a label to each vertex and are ranked by Lehmer
code (lexicographic order of the label tuples).  All generators here are
symmetric, so the uniform measure is reversible for each of them.  Every
state-space generator collects its rates in one builder, and the state
count alone picks the format: a dense matrix up to ``DENSE_STATE_LIMIT``
states (6! = 720), a sparse one above it (such as the 7! = 5040 states of
seven vertices), which the spectral routines hand to the iterative
eigensolver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graphs import CapacityError, HyperWeights, WeightedGraph

DENSE_STATE_LIMIT = 720  # 6!
MAX_VERTICES = 7


@dataclass(frozen=True)
class GeneratorOperator:
    """A symmetric rate matrix together with its ranked state space."""

    kind: str
    states: tuple
    matrix: object  # ndarray or scipy.sparse matrix

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.matrix)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray() if self.is_sparse else self.matrix


def _check_permutation_capacity(n: int, what: str):
    if n < 2:
        raise ValueError(f"{what} needs at least 2 vertices")
    if n > MAX_VERTICES:
        raise CapacityError(f"{what} supports at most {MAX_VERTICES} vertices, got {n}")


class _MatrixBuilder:
    """Accumulates off-diagonal rates as triplets and their negated row sums.

    Duplicate entries are summed in the order they were added.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.diag = np.zeros(dim)

    def add(self, r: int, c: int, rate: float):
        self.rows.append(r)
        self.cols.append(c)
        self.vals.append(rate)
        self.diag[r] -= rate

    def finish(self):
        """Dense up to ``DENSE_STATE_LIMIT`` states, CSR above it."""
        d = self.dim
        self.rows.extend(range(d))
        self.cols.extend(range(d))
        self.vals.extend(self.diag)
        coo = sparse.coo_matrix((self.vals, (self.rows, self.cols)), shape=(d, d))
        return coo.toarray() if d <= DENSE_STATE_LIMIT else coo.tocsr()


def interchange_generator(graph: WeightedGraph) -> GeneratorOperator:
    """Label swaps across every positive edge at the edge's conductance."""
    n = graph.n
    _check_permutation_capacity(n, "interchange process")
    states = tuple(itertools.permutations(range(n)))
    index = {s: r for r, s in enumerate(states)}
    edges = list(graph.edges())
    builder = _MatrixBuilder(len(states))
    for r, sigma in enumerate(states):
        lst = list(sigma)
        for i, j, w in edges:
            lst[i], lst[j] = lst[j], lst[i]
            builder.add(r, index[tuple(lst)], w)
            lst[i], lst[j] = lst[j], lst[i]
    return GeneratorOperator("interchange", states, builder.finish())


def rw_generator(graph: WeightedGraph) -> GeneratorOperator:
    """Single-particle walk: the negated weighted Laplacian."""
    if graph.n < 2:
        raise ValueError("random walk needs at least 2 vertices")
    w = graph.weights
    q = w.copy()
    np.fill_diagonal(q, -w.sum(axis=1))
    return GeneratorOperator("random_walk", tuple(range(graph.n)), q)


def exclusion_generator(graph: WeightedGraph, k: int) -> GeneratorOperator:
    """k indistinguishable particles hopping across edges, one per site."""
    n = graph.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"particle count must satisfy 1 <= k <= {n - 1}, got {k}")
    if math.comb(n, k) > 10_000:
        raise CapacityError(
            f"exclusion process with {math.comb(n, k)} configurations exceeds the limit of 10000"
        )
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
    return GeneratorOperator("exclusion", states, builder.finish())


def alpha_shuffle_generator(hyper: HyperWeights) -> GeneratorOperator:
    """Uniform rearrangement of the labels on each rated subset.

    Each subset A contributes rate * (U_A - I) where U_A averages over all
    |A|! arrangements of the labels occupying A.  The identity arrangement's
    share, rate/|A|!, cancels against the same amount of the -rate * I
    term, so it is left out of both.
    """
    n = hyper.n
    _check_permutation_capacity(n, "alpha-shuffle process")
    states = tuple(itertools.permutations(range(n)))
    index = {s: r for r, s in enumerate(states)}
    builder = _MatrixBuilder(len(states))
    for subset, rate in hyper.rates.items():
        if rate == 0:
            continue
        positions = sorted(subset)
        f = math.factorial(len(positions))
        per = rate / f
        for r, sigma in enumerate(states):
            labels = [sigma[p] for p in positions]
            lst = list(sigma)
            # permutations() yields the identity arrangement first
            for arrangement in itertools.islice(itertools.permutations(labels), 1, None):
                for p, lab in zip(positions, arrangement):
                    lst[p] = lab
                builder.add(r, index[tuple(lst)], per)
    return GeneratorOperator("alpha_shuffle", states, builder.finish())


def alpha_single_particle_rates(hyper: HyperWeights) -> WeightedGraph:
    """The walk seen by one particle: each subset spreads rate/|A| on its pairs."""
    w = np.zeros((hyper.n, hyper.n))
    for subset, rate in hyper.rates.items():
        share = rate / len(subset)
        for i, j in itertools.combinations(sorted(subset), 2):
            w[i, j] += share
            w[j, i] += share
    return WeightedGraph(w)
