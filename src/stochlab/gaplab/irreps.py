"""Irreducible representations of S_n in Young's orthogonal form, and the
block spectra of permutation-space operators.

The interchange generator, the hub comparison form and the subset shuffle
act on label assignments sigma by sigma -> sigma o g for permutations g of
the positions, so each is an element of the group algebra of S_n acting in
its right regular representation.  That representation holds d_lambda
copies of every irrep lambda (Diaconis & Shahshahani 1981), so the n! x n!
operator has the spectrum of its d_lambda x d_lambda images rho_lambda, each
eigenvalue repeated d_lambda times.  The hub form at vertex i lies in the
group algebra of Sym(S), S = {i} u N(i), so it is solved with n = |S| and
its pairs as positions in S.  The trivial irrep (n) carries the constant
functions; the standard irrep (n-1, 1) carries the motion of one label,
i.e. the single-particle walk.

Young's orthogonal form (Okounkov & Vershik 1996) takes the standard Young
tableaux of shape lambda as an orthonormal basis.  For s_k = (k k+1) and a
tableau T whose entries k and k+1 have contents (column minus row) c_k and
c_{k+1}, with axial distance r = c_{k+1} - c_k,

    rho(s_k) e_T = (1/r) e_T + sqrt(1 - 1/r^2) e_{s_k T},

where s_k T swaps the entries k and k+1 (for |r| = 1 they share a row or a
column and the second term is absent).  Every rho(s_k) is symmetric and
orthogonal, and a general (i j) is s_{j-1} (i j-1) s_{j-1}.  Positions are
0-based: entry k of a tableau is position k.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .graphs import CapacityError

# all transposition tables at n = 8 hold 28 * 8! doubles (9 MB); at n = 10
# they would hold 45 * 10! (1.3 GB)
MAX_VERTICES = 8


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, largest parts first, in decreasing lexicographic
    order: (n) first, then (n-1, 1), ..., (1, ..., 1) last."""
    out = []

    def grow(rest: int, cap: int, parts: tuple[int, ...]):
        if rest == 0:
            out.append(parts)
        for part in range(min(rest, cap), 0, -1):
            grow(rest - part, part, parts + (part,))

    grow(n, n, ())
    return out


def standard_tableaux(shape) -> list[tuple[int, ...]]:
    """Standard Young tableaux of ``shape`` as row words: entry k of the
    tuple is the row holding k, and k sits right of every earlier entry of
    that row.  Listed in lexicographic order of the row words."""
    n = sum(shape)
    out = []
    filled = [0] * len(shape)
    word: list[int] = []

    def grow():
        if len(word) == n:
            out.append(tuple(word))
            return
        for row, length in enumerate(shape):
            if filled[row] < length and (row == 0 or filled[row - 1] > filled[row]):
                filled[row] += 1
                word.append(row)
                grow()
                word.pop()
                filled[row] -= 1

    grow()
    return out


def adjacent_transpositions(shape) -> list[np.ndarray]:
    """rho(s_k) for k = 0 .. n-2 in Young's orthogonal form."""
    tableaux = standard_tableaux(shape)
    index = {t: a for a, t in enumerate(tableaux)}
    contents = []
    for t in tableaux:
        seen = [0] * len(shape)
        content = []
        for row in t:
            content.append(seen[row] - row)
            seen[row] += 1
        contents.append(content)
    d = len(tableaux)
    out = []
    for k in range(sum(shape) - 1):
        m = np.zeros((d, d))
        for a, t in enumerate(tableaux):
            r = contents[a][k + 1] - contents[a][k]
            m[a, a] = 1.0 / r
            if abs(r) > 1:
                swapped = t[:k] + (t[k + 1], t[k]) + t[k + 2:]
                m[a, index[swapped]] = math.sqrt(1.0 - 1.0 / (r * r))
        out.append(m)
    return out


@functools.lru_cache(maxsize=None)
def transposition_tables(n: int) -> dict[tuple[int, ...], np.ndarray]:
    """For each partition of n, rho(i j) for every pair i < j, stacked in
    ``itertools.combinations(range(n), 2)`` order into a read-only array of
    shape (pairs, d, d).  Built once per n and process."""
    if not 2 <= n <= MAX_VERTICES:
        raise CapacityError(f"irrep blocks support 2 to {MAX_VERTICES} vertices, got {n}")
    tables = {}
    for shape in partitions(n):
        adjacent = adjacent_transpositions(shape)
        by_pair: dict[tuple[int, int], np.ndarray] = {}
        for i, j in itertools.combinations(range(n), 2):
            s = adjacent[j - 1]
            by_pair[i, j] = s if j == i + 1 else s @ by_pair[i, j - 1] @ s
        stacked = np.array(list(by_pair.values()))
        stacked.setflags(write=False)
        tables[shape] = stacked
    return tables


def block_spectrum(n: int, coeffs=None, subset_rates=None) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Per-irrep spectra of  sum_{i<j} c_ij (I - (i j)) + sum_A r_A (I - U_A).

    ``coeffs`` maps pairs (i, j), i < j, to c_ij; ``subset_rates`` maps
    vertex subsets A to r_A, where U_A averages the |A|! rearrangements of
    the positions in A.  Returns (shape, ascending eigenvalues) for every
    partition in ``partitions(n)`` order; each eigenvalue has multiplicity
    d_lambda = len(eigenvalues) in the n!-state operator.  U_A is built
    from coset sums: with A = {a_1 < ... < a_m},
    sum over S_A = prod_{k=2..m} (e + sum_{j<k} (a_j a_k)).  Coefficients
    or rates that sum past the float range raise ValueError.
    """
    tables = transposition_tables(n)
    pair_index = {p: k for k, p in enumerate(itertools.combinations(range(n), 2))}
    c = np.zeros(len(pair_index))
    for pair, value in (coeffs or {}).items():
        c[pair_index[pair]] += value
    rates = [(sorted(subset), rate) for subset, rate in (subset_rates or {}).items() if rate]
    with np.errstate(over="ignore"):
        weights = float(c.sum())
    added = 0  # the rates left to right, as sum() adds them before Python 3.12
    for _, rate in rates:
        added += rate
    diagonal = weights + added
    if not math.isfinite(diagonal):
        raise ValueError(f"the {'subset rates' if math.isfinite(weights) else 'edge weights'} "
                         "sum past the float range")
    out = []
    for shape, table in tables.items():
        eye = np.eye(table.shape[1])
        block = diagonal * eye - np.tensordot(c, table, axes=1)
        for members, rate in rates:
            average = eye
            for k in range(1, len(members)):
                coset = eye + sum(table[pair_index[members[j], members[k]]] for j in range(k))
                average = average @ coset
            block -= (rate / math.factorial(len(members))) * average
        out.append((shape, np.linalg.eigvalsh(block)))
    return out
