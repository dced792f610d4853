"""Weighted graphs, subset rate systems, and the text network format.

The file format, one record per line ('#' starts a comment):

    n <vertex count>
    e <i> <j> <weight>            0-based endpoints, i < j, weight >= 0
    h <k> <v1> ... <vk> <rate>    subset of k >= 2 distinct vertices

Duplicate edge or subset records are summed.  Parse errors carry the line
and column of the offending token; an 'n' whose dense weights would not fit
in physical memory is one.

Both ``WeightedGraph.edges`` and the one component labeller, ``_components``
(for ``WeightedGraph.is_connected`` and ``spectral.extreme_eigenvalues``),
read a matrix's nonzero pattern with ``_nonzero``: the indices of
``np.nonzero`` in the same row-major order, found through a boolean mask of
at most ``MASK_BYTES``.  On a 3000-vertex path that takes 8-9 ms against
45-60 ms for ``np.nonzero`` of the float weights (2 vCPUs).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ..memory import physical_memory_bytes


class CapacityError(ValueError):
    """The requested state space exceeds the supported size."""


class GraphFormatError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative edge conductances with zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if not np.isfinite(w).all():
            i, j = np.argwhere(~np.isfinite(w))[0]
            raise ValueError(f"weights must be finite, got {w[i, j]} at ({i}, {j})")
        if not _is_symmetric(w):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ValueError("diagonal weights must be zero")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def edges(self):
        """Positive-weight edges as (i, j, weight) with i < j, row by row."""
        rows, cols = _nonzero(self.weights)
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        return zip(rows.tolist(), cols.tolist(), self.weights[rows, cols].tolist())

    def strength(self, i: int) -> float:
        return float(self.weights[i].sum())

    @property
    def is_connected(self) -> bool:
        return self.n > 0 and len(_components(self.weights)[1]) == 1

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        w = np.zeros((n, n))
        for i, j, weight in edges:
            w[i, j] += weight
            w[j, i] += weight
        return cls(w)


MASK_BYTES = 2**20  # the most of a boolean ``matrix != 0`` that ``_nonzero`` holds at once
TILE = 128  # the side of the blocks ``_is_symmetric`` compares


def _is_symmetric(matrix: np.ndarray) -> bool:
    """``np.array_equal(matrix, matrix.T)`` for a square matrix, compared a
    pair of TILE x TILE blocks at a time: the transpose of one block stays in
    cache, where the whole transpose walks memory with a stride of n
    doubles (on a 3000-vertex path 18 ms against 69 ms, best of 5, 2 vCPUs)."""
    n = len(matrix)
    return all(np.array_equal(matrix[i:i + TILE, j:j + TILE], matrix[j:j + TILE, i:i + TILE].T)
               for i in range(0, n, TILE) for j in range(i, n, TILE))


def _nonzero(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a square matrix, the same indices in the same
    row-major order, read through the boolean mask ``matrix != 0`` a block
    of rows at a time."""
    n = len(matrix)
    rows = max(1, MASK_BYTES // max(n, 1))
    flat = [np.flatnonzero(matrix[lo:lo + rows] != 0) + lo * n for lo in range(0, n, rows)]
    return np.divmod(np.concatenate([np.zeros(0, dtype=np.intp), *flat]), n)


def _components(matrix: np.ndarray):
    """Connected components of the lower triangle's nonzero pattern, as
    (order, starts, sizes): ``order[starts[c]:starts[c] + sizes[c]]`` are
    component c's indices, ascending.

    Each index takes the least label among its neighbors' until no label
    moves, and pointer jumping (``label[label]``) shortens the chains in
    between; every label stays an index of its own component.
    """
    rows, cols = _nonzero(matrix)
    below = rows > cols
    heads = np.concatenate([rows[below], cols[below]])
    tails = np.concatenate([cols[below], rows[below]])
    label = np.arange(len(matrix))
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, heads, label[tails])
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    order = np.argsort(label, kind="stable")
    sorted_labels = label[order]
    starts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
    return order, starts, np.diff(np.r_[starts, len(matrix)])


@dataclass(frozen=True)
class HyperWeights:
    """Nonnegative shuffle rates indexed by vertex subsets of size >= 2."""

    n: int
    rates: dict[frozenset[int], float] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for subset, rate in self.rates.items():
            subset = frozenset(subset)
            if len(subset) < 2:
                raise ValueError(f"rated subsets need >= 2 vertices, got {sorted(subset)}")
            if not all(0 <= v < self.n for v in subset):
                raise ValueError(f"subset {sorted(subset)} outside 0..{self.n - 1}")
            if not math.isfinite(rate):
                raise ValueError(f"rate for {sorted(subset)} must be finite, got {rate}")
            if rate < 0:
                raise ValueError(f"rate for {sorted(subset)} is negative")
            cleaned[subset] = cleaned.get(subset, 0.0) + float(rate)
        object.__setattr__(self, "rates", cleaned)


@dataclass(frozen=True)
class Network:
    """Parsed contents of a network file."""

    graph: WeightedGraph
    hyper: HyperWeights


# --- standard small graphs --------------------------------------------------

def path_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph.from_edges(n, [(i, i + 1, weight) for i in range(n - 1)])


def cycle_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """The n-cycle; at n = 2 it is the single edge of ``weight``."""
    if n < 2:
        raise ValueError(f"a cycle needs at least 2 vertices, got n={n}")
    edges = [(i, i + 1, weight) for i in range(n - 1)]
    if n > 2:
        edges.append((0, n - 1, weight))
    return WeightedGraph.from_edges(n, edges)


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph.from_edges(
        n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)]
    )


def star_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Hub vertex 0 joined to every other vertex."""
    return WeightedGraph.from_edges(n, [(0, j, weight) for j in range(1, n)])


def single_edge(weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph.from_edges(2, [(0, 1, weight)])


# --- fuzzing and enumeration ------------------------------------------------

def random_connected_graph(n: int, rng: np.random.Generator,
                           edge_prob: float = 0.5) -> WeightedGraph:
    """Erdos-Renyi skeleton conditioned on connectivity, weights in (0, 1]."""
    while True:
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < edge_prob:
                    weight = 1.0 - rng.random()  # uniform on (0, 1]
                    w[i, j] = w[j, i] = weight
        g = WeightedGraph(w)
        if g.is_connected:
            return g


def random_hyperweights(n: int, rng: np.random.Generator) -> HyperWeights:
    """Random rated subsets, 1 to 4 of them, whose single-particle graph is
    connected."""
    from .generators import alpha_single_particle_rates

    while True:
        count = int(rng.integers(1, 5))
        rates: dict[frozenset[int], float] = {}
        for _ in range(count):
            size = int(rng.integers(2, n + 1))
            subset = frozenset(int(v) for v in rng.choice(n, size=size, replace=False))
            rates[subset] = rates.get(subset, 0.0) + (1.0 - rng.random())
        hyper = HyperWeights(n, rates)
        if alpha_single_particle_rates(hyper).is_connected:
            return hyper


def connected_graph_representatives(n: int) -> list[WeightedGraph]:
    """One unit-weight representative per isomorphism class of connected
    graphs on n vertices: the first edge mask of each class, in mask order.

    Bit b of a mask is the b-th pair of ``itertools.combinations``.  The
    canonical form of a mask is the least, over all n! relabelings p, of
    the bit string that reads pair b's bit at pair (p(i_b), p(j_b)), first
    pair most significant; all masks are relabeled at once per p.
    """
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: b for b, pair in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(len(pairs))) & 1
    # connectivity: grow the set reached from vertex 0 by whole neighbourhoods
    neighbours = np.zeros((len(masks), n), dtype=np.int64)
    for (i, j), b in index.items():
        neighbours[:, i] |= bits[:, b] << j
        neighbours[:, j] |= bits[:, b] << i
    reached = np.ones(len(masks), dtype=np.int64)
    for _ in range(n - 1):
        for v in range(n):
            reached |= np.where(reached >> v & 1, neighbours[:, v], 0)
    connected = np.flatnonzero(reached == (1 << n) - 1)
    kept = bits[connected]
    place = 1 << np.arange(len(pairs) - 1, -1, -1, dtype=np.int64)
    canon = None
    for p in itertools.permutations(range(n)):
        relabeled = kept[:, [index[tuple(sorted((p[i], p[j])))] for i, j in pairs]] @ place
        canon = relabeled if canon is None else np.minimum(canon, relabeled)
    _, first = np.unique(canon, return_index=True)
    return [
        WeightedGraph.from_edges(n, [(i, j, 1.0) for b, (i, j) in enumerate(pairs) if mask >> b & 1])
        for mask in connected[np.sort(first)].tolist()
    ]


# --- text format ------------------------------------------------------------

def parse_network(text: str) -> Network:
    n = None
    edges: list[tuple[int, int, float]] = []
    rates: dict[frozenset[int], float] = {}

    # the helpers read the record being parsed: lineno, raw and tokens
    def err(k, message):
        """Refuse the record, pointing at its k-th token."""
        starts = [m.start() for m in re.finditer(r"\S+", raw)]
        raise GraphFormatError(message, lineno, starts[k] + 1)

    def integers(lo, hi, message):
        """tokens[lo:hi] as ints, else an error at the first that is not one."""
        out = []
        for k in range(lo, hi):
            try:
                out.append(int(tokens[k]))
            except ValueError:
                err(k, message)
        return out

    def number(k, what):
        """A weight or rate: a float, finite and nonnegative."""
        token = tokens[k]
        try:
            value = float(token)
        except ValueError:
            err(k, f"bad {what} {token!r}")
        if not math.isfinite(value):
            err(k, f"{what} must be finite, got {token!r}")
        if value < 0:
            err(k, f"{what} must be nonnegative")
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag == "n":
            if n is not None:
                err(0, "duplicate 'n' record")
            if len(tokens) != 2:
                err(0, "'n' record needs exactly one count")
            n = integers(1, 2, f"bad vertex count {tokens[1]!r}")[0]
            if n < 1:
                err(1, "vertex count must be >= 1")
            # parsing peaks at 9.0-10.3 bytes per n^2: the float weights and their checks
            have = physical_memory_bytes()
            if 12 * n * n > have:
                err(1, f"vertex count {n} needs dense weights larger "
                    f"than the {have / 2**30:.1f} GiB of physical memory")
        elif tag == "e":
            if n is None:
                err(0, "'e' record before 'n'")
            if len(tokens) != 4:
                err(0, "'e' record needs: e <i> <j> <weight>")
            i, j = integers(1, 3, "endpoints must be integers")
            if not 0 <= i < n:
                err(1, f"endpoint {i} outside 0..{n - 1}")
            if not 0 <= j < n:
                err(2, f"endpoint {j} outside 0..{n - 1}")
            if i >= j:
                err(1, f"edges require i < j, got {i} >= {j}")
            edges.append((i, j, number(3, "weight")))
        elif tag == "h":
            if n is None:
                err(0, "'h' record before 'n'")
            if len(tokens) < 2:
                err(0, "'h' record needs: h <k> <v1> ... <vk> <rate>")
            k = integers(1, 2, f"bad subset size {tokens[1]!r}")[0]
            if k < 2:
                err(1, "subset size must be >= 2")
            if len(tokens) != k + 3:
                err(0, f"'h' record needs {k} vertices and a rate")
            verts = integers(2, 2 + k, "vertices must be integers")
            for at, v in enumerate(verts, start=2):
                if not 0 <= v < n:
                    err(at, f"vertex {v} outside 0..{n - 1}")
            subset = frozenset(verts)
            if len(subset) != k:
                err(next(at for at in range(3, 2 + k) if verts[at - 2] in verts[:at - 2]),
                    "subset vertices must be distinct")
            rates[subset] = rates.get(subset, 0.0) + number(2 + k, "rate")
        else:
            err(0, f"unknown record type {tag!r}")
    if n is None:
        raise GraphFormatError("missing 'n' record", 1)
    return Network(WeightedGraph.from_edges(n, edges), HyperWeights(n, rates))


def parse_graph_file(path) -> Network:
    with open(path, encoding="utf-8") as fh:
        return parse_network(fh.read())


def format_network(graph: WeightedGraph, hyper: HyperWeights | None = None) -> str:
    lines = [f"n {graph.n}"]
    for i, j, w in graph.edges():
        lines.append(f"e {i} {j} {float(w)!r}")
    if hyper is not None:
        for subset in sorted(hyper.rates, key=sorted):
            verts = " ".join(str(v) for v in sorted(subset))
            lines.append(f"h {len(subset)} {verts} {float(hyper.rates[subset])!r}")
    return "\n".join(lines) + "\n"
