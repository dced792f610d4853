"""Reference code the tests compare the library against.

None of this is called by the library, the CLI or the benchmark: each
piece restates a definition term by term so that a test can check the
optimized code in ``src/`` against it.

* Python 3.12's ``sum``, which compensates float roundoff, for the test
  that seeded values do not depend on the Python version.
* colorlab: the sign-matrix encoding of a 4-color word, the run
  decomposition of a sign row, dispersed Dyck words as validated objects,
  the run flips and boundary sign products of the explicit q=4 formula,
  the formula itself summed term by term from them, the pushforward map
  applied word by word, a measure's window read one ``prob`` at a time,
  the recursion's table canonicalizing every deletion, the law of random
  proper insertion enumerated sequence by sequence, and the sampler that
  drew each letter from its prefix's conditional law (the stream of the
  older sample entries in ``golden/colorlab_reports.json``).  The
  library's formula (``measure._formula_numerator``) keeps each top row's
  Dyck-word terms once and reads only a sign per term off the bottom row;
  its pushforward maps whole window arrays; its sampler draws by random
  insertion.
* gaplab: the standard graph families (path, complete, star, single edge)
  and seeded random connected graphs and subset rates, the tests' inputs;
  the network text with 'h' records, which only the round-trip tests
  write; the positive-weight edges read pair by pair, row-major, which
  ``WeightedGraph.edges`` lists from one read of the nonzero pattern, and
  each vertex's neighbors as a list, which ``WeightedGraph.adjacency``
  holds as CSR arrays; the permutation-space builder ranking every move
  afresh, which ``generators._PermutationSpace`` reads from memoized move
  maps; the Dirichlet form and variance of the variational gap
  characterization, and the reduced graph embedded back on the full
  vertex set, for the reduction's monotonicity checks.
* ipslab: exact transient laws of small systems by uniformization, for
  the contact process on an interval, coalescing walks and the voter
  model, which the event loops' Monte Carlo means are tested against;
  standard-mode contact survival estimated on the event loop, lane 0,
  one trial at a time (the stream of the older survival entries in
  ``golden/ipslab_seeded.json``), the witness that ``estimate_survival``'s
  lockstep kernel on lane 5 is compared with, and survival on either
  engine from any occupied set, where ``estimate_survival`` starts from
  the center and picks the engine by mode and rate; and coalescing walks on an
  event loop, one ``UniformBuffer`` per trial (lane 4 in the older duality
  entries there), the witness of the walk side of ``duality_check``, which
  runs on the lockstep shell on lane 6.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from stochlab.colorlab import (canonical_form, descent_set_probability, eliminate_fours_letter,
                               proper_words)
from stochlab.colorlab.measure import _canonical_proper_words
from stochlab.colorlab.words import CLOSE, NEUTRAL, OPEN, _enum_dispersed
from stochlab import gaplab
from stochlab.gaplab import (GeneratorOperator, HyperWeights, WeightedGraph,
                             alpha_single_particle_rates, reduce_vertex)
from stochlab.gaplab.generators import _PermutationSpace
from stochlab.ipslab import contact, voter
from stochlab.ipslab.contact import STANDARD, ContactConfig
from stochlab.ipslab.parallel import run_trials
from stochlab.ipslab.rng import UniformBuffer, trial_buffers

# --- Python's sum ---------------------------------------------------------------

_C_LONG = range(-2**63, 2**63)


def sum_312(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it (``builtin_sum_impl``), for ints
    and floats: ints add exactly; from the first float on, floats are added
    with Neumaier's compensation, which joins the total at the end, and
    ints that fit a C long are added without it.  Python 3.10 and 3.11 add
    left to right, so a float total can differ in its last bits."""
    items = iter(iterable)
    result = start
    if type(result) is int and result in _C_LONG:
        for item in items:
            if type(item) in (int, bool) and item in _C_LONG and result + item in _C_LONG:
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int) and item in _C_LONG:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


# --- colorlab ----------------------------------------------------------------

# color <-> (top sign, bottom sign) for q = 4
_COLOR_TO_SIGNS = {1: (+1, +1), 2: (+1, -1), 3: (-1, +1), 4: (-1, -1)}
_SIGNS_TO_COLOR = {signs: color for color, signs in _COLOR_TO_SIGNS.items()}


@dataclass(frozen=True)
class SignMatrix:
    """Two aligned sign rows encoding a 4-color word column by column."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        if len(self.top) != len(self.bottom):
            raise ValueError("rows must have equal length")
        for s in self.top + self.bottom:
            if s not in (+1, -1):
                raise ValueError(f"signs must be +1/-1, got {s!r}")

    @classmethod
    def from_letters(cls, letters) -> "SignMatrix":
        cols = [_COLOR_TO_SIGNS[a] for a in letters]
        return cls(tuple(c[0] for c in cols), tuple(c[1] for c in cols))


def to_letters(sm: SignMatrix) -> tuple[int, ...]:
    """The 4-color word whose columns are the sign matrix's columns."""
    return tuple(_SIGNS_TO_COLOR[(t, b)] for t, b in zip(sm.top, sm.bottom))


@dataclass(frozen=True)
class RunDecomposition:
    """Maximal constant runs of a sign sequence.

    ``boundaries[j]`` is the 0-based index of the last position of run
    ``j``; the boundary sits between that position and the next one.
    """

    runs: tuple[tuple[int, int], ...]  # (sign, length)
    boundaries: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        ends, pos = [], 0
        for _, length in self.runs:
            pos += length
            ends.append(pos - 1)
        object.__setattr__(self, "boundaries", tuple(ends[:-1]))

    @property
    def m(self) -> int:
        return len(self.runs)


def run_decomposition(signs) -> RunDecomposition:
    """Split a nonempty sign sequence into alternating runs."""
    signs = tuple(signs)
    if not signs:
        raise ValueError("empty sign sequence has no runs")
    runs = []
    cur, count = signs[0], 1
    for s in signs[1:]:
        if s == cur:
            count += 1
        else:
            runs.append((cur, count))
            cur, count = s, 1
    runs.append((cur, count))
    return RunDecomposition(tuple(runs))


@dataclass(frozen=True)
class DispersedDyckWord:
    """A concatenation of neutral symbols and complete Dyck words.

    Neutral symbols may not appear strictly inside a bracket pair, and the
    brackets must be balanced and well nested.
    """

    symbols: str

    def __post_init__(self):
        if not _is_dispersed_dyck(self.symbols):
            raise ValueError(f"not a dispersed Dyck word: {self.symbols!r}")

    @property
    def open_count(self) -> int:
        return self.symbols.count(OPEN)


def _is_dispersed_dyck(symbols: str) -> bool:
    depth = 0
    for ch in symbols:
        if ch == OPEN:
            depth += 1
        elif ch == CLOSE:
            depth -= 1
            if depth < 0:
                return False
        elif ch == NEUTRAL:
            if depth != 0:  # neutral only at top level
                return False
        else:
            return False
    return depth == 0


def dispersed_dyck_words(length: int) -> list[DispersedDyckWord]:
    """All dispersed Dyck words of the given length, lexicographically."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return [DispersedDyckWord(s) for s in _enum_dispersed(length)]


def flip_runs(signs, word: DispersedDyckWord) -> tuple[int, ...]:
    """Sign-flip runs of ``signs`` according to a dispersed Dyck word.

    The word's symbols align with the internal run boundaries, in order.
    Run 1 is never flipped; each non-neutral symbol toggles the flip state
    of the following run.  A boundary survives in the result exactly when
    its symbol is neutral.
    """
    signs = tuple(signs)
    dec = run_decomposition(signs)
    if len(word.symbols) != dec.m - 1:
        raise ValueError(
            f"word length {len(word.symbols)} != number of internal boundaries {dec.m - 1}"
        )
    out = []
    flip = False
    for j, (sign, length) in enumerate(dec.runs):
        if j > 0 and word.symbols[j - 1] != NEUTRAL:
            flip = not flip
        out.extend([-sign if flip else sign] * length)
    return tuple(out)


def boundary_sign_product(word: DispersedDyckWord, top, bottom) -> int:
    """Product of bottom-row signs picked at the run boundaries of the top row.

    An open bracket picks the bottom sign immediately left of its boundary,
    a close bracket the sign immediately right; neutral symbols contribute
    nothing.  Returns +1 or -1 (+1 for the empty product).
    """
    top, bottom = tuple(top), tuple(bottom)
    if len(top) != len(bottom):
        raise ValueError("rows must have equal length")
    dec = run_decomposition(top)
    if len(word.symbols) != dec.m - 1:
        raise ValueError(
            f"word length {len(word.symbols)} != number of internal boundaries {dec.m - 1}"
        )
    prod = 1
    for j, ch in enumerate(word.symbols):
        left = dec.boundaries[j]  # last index of run j+1 (0-based)
        if ch == OPEN:
            prod *= bottom[left]
        elif ch == CLOSE:
            prod *= bottom[left + 1]
    return prod


def reference_formula(letters) -> Fraction:
    """The q=4 formula term by term: 2^-m times the signed sum, over the
    dispersed Dyck words aligned with the m - 1 internal run boundaries of
    the top row, of (-1)^(open brackets) times the boundary sign product
    times the descent-set probability of the run-flipped top row."""
    if not letters:
        return Fraction(1)
    sm = SignMatrix.from_letters(letters)
    runs = run_decomposition(sm.top).m
    total = Fraction(0)
    for w in dispersed_dyck_words(runs - 1):
        sign = -1 if w.open_count % 2 else 1
        total += (sign * boundary_sign_product(w, sm.top, sm.bottom)
                  * descent_set_probability(flip_runs(sm.top, w)))
    return total / 2**runs


def pushforward_window(source_window: dict, n: int) -> dict:
    """The length-n image window of the four-color elimination, mapping
    each word of a length-(n+2) source window (word -> mass) one at a time
    and summing the masses that land on the same image."""
    out: dict = {}
    for word, mass in source_window.items():
        image = tuple(eliminate_fours_letter(word[i - 1], word[i], word[i + 1])
                      for i in range(1, n + 1))
        out[image] = out.get(image, 0) + mass
    return out


def prob_window(measure, n: int) -> dict:
    """Probabilities of every proper word of length n (improper omitted)."""
    return {w: measure.prob(w) for w in proper_words(measure.q, n)}


def deletion_table(q: int, nmax: int) -> dict:
    """The recursion's chain counts N keyed by canonical form through
    length nmax, canonicalizing every deletion: N(w) is the sum of N over
    the proper one-letter deletions of w."""
    table = {(): 1}
    for n in range(1, nmax + 1):
        for word, _ in _canonical_proper_words(q, n):
            table[word] = sum(table[canonical_form(word[:i] + word[i + 1:])] for i in range(n)
                              if not (0 < i < n - 1 and word[i - 1] == word[i + 1]))
    return table


def insertion_laws(q: int, nmax: int) -> list[dict]:
    """For each length n = 0..nmax, every word mapped to its number of
    insertion sequences: the ways to build it from the empty word by
    inserting one color at a time, each insertion proper."""
    # the colors that may go between a left and a right neighbor, 0 for none
    allowed = {(left, right): [(a,) for a in range(1, q + 1) if a not in (left, right)]
               for left in range(q + 1) for right in range(q + 1)}
    laws = [{(): 1}]
    for m in range(nmax):
        grown: dict = {}
        for word, ways in laws[-1].items():
            padded = (0, *word, 0)
            for gap in range(m + 1):
                head, tail = word[:gap], word[gap:]
                for a in allowed[padded[gap], padded[gap + 1]]:
                    longer = head + a + tail
                    grown[longer] = grown.get(longer, 0) + ways
        laws.append(grown)
    return laws


def prefix_sample_windows(measure, n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Draw ``count`` independent length-n words, letter by letter from the
    conditional law given the sampled prefix; deterministic given seed.

    The numerators of the extensions of a prefix, over their length's one
    denominator and divided by their gcd with it, are integer weights
    compared against a uniform random integer.  This was the library's
    sampler before it drew by random insertion; it reads the denominator
    first, since that builds the recursion's table through the length.
    """
    if n < 0:
        raise ValueError("window length must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(seed)
    thresholds: dict[tuple[int, ...], tuple[list[int], int]] = {}

    def weights_for(prefix):
        got = thresholds.get(prefix)
        if got is None:
            denominator = measure._denominator(len(prefix) + 1)
            # the prefix is proper, so u.a is improper only when a repeats its last letter
            numerators = [0 if prefix and a == prefix[-1] else measure._numerator(prefix + (a,))
                          for a in range(1, measure.q + 1)]
            g = math.gcd(*numerators, denominator)
            ws = [v // g for v in numerators]
            got = thresholds[prefix] = (ws, sum(ws))
        return got

    out = []
    for _ in range(count):
        word: tuple[int, ...] = ()
        for _ in range(n):
            ws, total = weights_for(word)
            r = rng.randrange(total)
            a = 0
            while r >= ws[a]:
                r -= ws[a]
                a += 1
            word = word + (a + 1,)
        out.append(word)
    return out


# --- gaplab ------------------------------------------------------------------

def path_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph.from_edges(n, [(i, i + 1, weight) for i in range(n - 1)])


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph.from_edges(
        n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)]
    )


def star_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Hub vertex 0 joined to every other vertex."""
    return WeightedGraph.from_edges(n, [(0, j, weight) for j in range(1, n)])


def single_edge(weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph.from_edges(2, [(0, 1, weight)])


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


def format_network(graph: WeightedGraph, hyper: HyperWeights | None = None) -> str:
    """The library's network text of ``graph``, followed by one 'h' record
    per rated subset of ``hyper``."""
    lines = [gaplab.format_network(graph)]
    if hyper is not None:
        for subset in sorted(hyper.rates, key=sorted):
            verts = " ".join(str(v) for v in sorted(subset))
            lines.append(f"h {len(subset)} {verts} {float(hyper.rates[subset])!r}\n")
    return "".join(lines)


def pair_edges(graph: WeightedGraph) -> list[tuple[int, int, float]]:
    """(i, j, weight) for every pair i < j of positive weight, row by row."""
    w = graph.weights
    return [(i, j, w[i, j]) for i in range(graph.n) for j in range(i + 1, graph.n) if w[i, j] > 0]


def adjacency_lists(graph: WeightedGraph) -> list[list[int]]:
    """Each vertex's neighbors as a list, in the ascending order of
    ``WeightedGraph.adjacency``."""
    adj = [[] for _ in range(graph.n)]
    for i, j, _ in graph.edges():
        adj[i].append(j)
        adj[j].append(i)
    return adj


class LehmerPermutationSpace(_PermutationSpace):
    """The permutation-space builder with no memo: each move ranks the images
    of all n! states afresh by their Lehmer codes, digit k counting the later
    entries smaller than entry k, and adds its rate by row and column."""

    def __init__(self, n: int, what: str):
        super().__init__(n, what)
        self.perms = np.array(self.states, dtype=np.int64)
        self.place = np.array([math.factorial(n - 1 - k) for k in range(n)], dtype=np.int64)
        self.rows = np.arange(len(self.states))

    def move(self, moved, rate: float):
        images = self.perms[:, list(moved)]
        later_smaller = np.triu(images[:, :, None] > images[:, None, :], 1).sum(axis=2)
        self.add(self.rows, later_smaller @ self.place, rate)


def dirichlet_form(op: GeneratorOperator, f) -> float:
    """Energy -<f, Qf> under the uniform measure on the state space."""
    f, dim = np.asarray(f, dtype=float), len(op.states)
    if f.shape != (dim,):
        raise ValueError(f"test vector has shape {f.shape}, expected ({dim},)")
    return float(-(f @ (op.matrix @ f)) / dim)


def variance(f) -> float:
    """Variance of a test vector under the uniform measure."""
    f = np.asarray(f, dtype=float)
    if f.size == 0:
        raise ValueError("empty test vector")
    return float((f * f).mean() - f.mean() ** 2)


def embedded_reduced_graph(graph: WeightedGraph, i: int) -> WeightedGraph:
    """The reduced graph placed back on the full vertex set, i isolated."""
    reduced = reduce_vertex(graph, i)
    keep = [v for v in range(graph.n) if v != i]
    w = np.zeros((graph.n, graph.n))
    w[np.ix_(keep, keep)] = reduced.weights
    return WeightedGraph(w)


# --- ipslab ------------------------------------------------------------------
# A law is a vector over the states of a finite continuous-time chain with
# generator Q.  Uniformization (Jensen 1953) writes it at time t as
# p_t = sum_k Pois(Lt; k) p_0 P^k, with P = I + Q/L and L the largest exit
# rate, so every term is a probability vector and the sum is exact up to
# the Poisson mass left out, which is bounded and stopped below TAIL.
# Each generator is applied to a row vector by index operations over the
# states; no dense Q is built.

TAIL = 1e-14
MAX_TERMS = 100_000


def uniformized(p0: np.ndarray, apply_q, rate: float, t: float) -> np.ndarray:
    """p0 exp(tQ) for ``apply_q(p) = pQ`` with exit rates at most ``rate``.

    Term k + 1 of Pois(rate t) is term k times rate t / (k + 1); once that
    ratio is below 1 the mass past the last term taken is at most the next
    term over one minus the ratio (a geometric series), and the sum stops
    when that bound is below TAIL.
    """
    mean = rate * t
    p = np.asarray(p0, dtype=float)
    if mean == 0:
        return p.copy()
    log_w = -mean  # log Pois(mean; k), kept in logs so that exp(-mean) cannot underflow
    out = math.exp(log_w) * p
    tail = math.inf
    for k in range(1, MAX_TERMS):
        p = p + apply_q(p) / rate
        log_w += math.log(mean / k)
        w = math.exp(log_w)
        out += w * p
        ratio = mean / (k + 1)
        if ratio < 1:
            tail = w * ratio / (1 - ratio)
            if tail < TAIL:
                break
    assert tail < TAIL, f"Poisson mass {tail:.3g} left out after {MAX_TERMS} terms"
    return out


def _flip_law(p0: np.ndarray, rates: np.ndarray, t: float) -> np.ndarray:
    """Law at time t of a spin system on ``len(rates)`` sites, state s a
    bitmask, where site i flips at rate ``rates[i][s]``: flipping bit i is a
    permutation of the states, so pQ[s] gains (p * rates[i])[s ^ 2**i]."""
    states = np.arange(rates.shape[1])
    partners = [states ^ (1 << i) for i in range(len(rates))]
    exits = rates.sum(axis=0)

    def apply_q(p):
        out = -p * exits
        for partner, rate in zip(partners, rates):
            out += (p * rate)[partner]
        return out

    return uniformized(p0, apply_q, float(exits.max()), t)


def _bits(states: np.ndarray, site: int) -> np.ndarray:
    return (states >> site) & 1


def contact_law(cfg: ContactConfig, init, t: float) -> np.ndarray:
    """Law at time t of the contact process on sites 1..L (L <= 12) from
    the occupied set ``init``: entry s is the probability that exactly the
    sites x with bit x - 1 of s set are occupied.

    The rates are the event loop's: an occupied site dies at rate 1, and a
    vacant one is born at rate lam times its count of occupied neighbors
    (offsets in ``cfg.neighborhood`` that land in 1..L), or lam when that
    count is at least 1 in threshold mode.
    """
    length = cfg.length
    if length is None or length > 12:
        raise ValueError("the exact law needs a finite interval of at most 12 sites")
    states = np.arange(1 << length)
    rates = np.empty((length, len(states)))
    for i in range(length):
        count = sum(_bits(states, i + d) for d in cfg.neighborhood if 0 <= i + d < length)
        birth = cfg.lam * (count if cfg.mode == STANDARD else count > 0)
        rates[i] = np.where(_bits(states, i), 1.0, birth)
    p0 = np.zeros(len(states))
    p0[sum(1 << (x - 1) for x in set(init))] = 1.0
    return _flip_law(p0, rates, t)


def voter_law(graph: WeightedGraph, rho: float, t: float) -> np.ndarray:
    """Law at time t of the voter model on a unit-weight graph of n <= 12
    vertices from i.i.d. opinions with density rho: entry s is the
    probability that exactly the vertices v with bit v of s set hold 1.

    Vertex v copies each neighbor at rate 1/deg(v), so it flips at rate
    the fraction of its neighbors that disagree with it.
    """
    n = graph.n
    if n > 12:
        raise ValueError("the exact law needs at most 12 vertices")
    adj = adjacency_lists(graph)
    states = np.arange(1 << n)
    rates = np.empty((n, len(states)))
    for v, neighbors in enumerate(adj):
        mine = _bits(states, v)
        rates[v] = sum(_bits(states, u) != mine for u in neighbors) / len(neighbors)
    ones = sum(_bits(states, v) for v in range(n))
    p0 = rho ** ones * (1 - rho) ** (n - ones)
    return _flip_law(p0, rates, t)


def walk_law(graph: WeightedGraph, target, t: float) -> dict[frozenset, float]:
    """Law at time t of coalescing walks started one on each vertex of
    ``target``, on a unit-weight graph, as probabilities of the occupied
    vertex sets.

    Each walker jumps at rate 1 to a uniform neighbor and merges with a
    walker it lands on.  The states are the nonempty vertex subsets of
    size at most |target|, and the generator is a list of (from, to, rate)
    transitions between their indices.
    """
    adj = adjacency_lists(graph)
    size = len(set(target))
    subsets = [frozenset(v for v in range(graph.n) if m >> v & 1)
               for m in range(1, 1 << graph.n) if m.bit_count() <= size]
    index = {s: i for i, s in enumerate(subsets)}
    src, dst, rate = [], [], []
    for s, i in index.items():
        for v in s:
            for u in adj[v]:
                src.append(i)
                dst.append(index[s - {v} | {u}])
                rate.append(1 / len(adj[v]))
    src, dst, rate = np.array(src), np.array(dst), np.array(rate)
    exits = np.bincount(src, weights=rate, minlength=len(subsets))

    def apply_q(p):
        return np.bincount(dst, weights=p[src] * rate, minlength=len(p)) - p * exits

    p0 = np.zeros(len(subsets))
    p0[index[frozenset(target)]] = 1.0
    return dict(zip(subsets, uniformized(p0, apply_q, float(exits.max()), t).tolist()))


# --- contact survival from any start, on either engine ---------------------------


def _survival(chunk, lane: str, cfg: ContactConfig, t_max: float, trials: int, seed: int,
              init, workers: int) -> contact.SurvivalEstimate:
    init = tuple(contact.center_seed(cfg) if init is None else init)
    parts = run_trials(chunk, (cfg, init, t_max, seed), trials, workers)
    return contact._survival_estimate(sum(p[0] for p in parts), sum(p[1] for p in parts),
                                      trials, seed, lane)


def event_loop_survival(cfg: ContactConfig, t_max: float, trials: int, seed: int,
                        init=None, workers: int = 1) -> contact.SurvivalEstimate:
    """``estimate_survival`` as it was before the lockstep kernel, in either
    mode and from any occupied set ``init`` (the center by default): one
    ``contact._run`` per trial on lane 0, reported as lane "contact/0"."""
    return _survival(contact._survival_chunk, "contact/0", cfg, t_max, trials, seed, init,
                     workers)


def lockstep_survival(cfg: ContactConfig, t_max: float, trials: int, seed: int,
                      init=None, workers: int = 1) -> contact.SurvivalEstimate:
    """``estimate_survival``'s standard-mode lockstep kernel, lane 5, from any
    occupied set ``init`` (the center by default) and at any birth rate."""
    return _survival(contact._lockstep_chunk, "contact/5", cfg, t_max, trials, seed, init,
                     workers)


def lockstep_outcomes(cfg: ContactConfig, init, t_max: float, seed: int, lo: int, hi: int):
    """The lockstep kernel's (final occupied sites, boundary hit) of trials
    lo..hi-1 as a list, which ``run_trials`` can send between processes."""
    return list(contact._lockstep_runs(cfg, init, t_max, seed, lo, hi))


# --- coalescing walks on the event loop -----------------------------------------


def _walk_survivors(adj: list[list[int]], start, t_max: float, rng: UniformBuffer) -> int:
    """Number of distinct walkers left at t_max, merging on meeting."""
    walkers = sorted(set(start))  # positions, in the order a uniform pick indexes them
    occupied = set(walkers)
    alive = len(walkers)
    if alive < 2:
        return alive
    t = 0.0
    stream = iter(rng)
    # each event reads three uniforms: the step, the walker and its neighbor
    for step, pick, neighbor in zip(map(math.log1p, map(operator.neg, stream)), stream, stream):
        t -= step / alive
        if t > t_max:
            break
        i = int(pick * alive)
        if i >= alive:  # never fires: int(u * n) < n by the pick rule in rng.py
            i = alive - 1
        old = walkers[i]
        neighbors = adj[old]
        degree = len(neighbors)
        j = int(neighbor * degree)
        if j >= degree:
            j = degree - 1
        new = neighbors[j]
        occupied.remove(old)
        if new in occupied:  # merged into the sitting walker
            del walkers[i]
            alive -= 1
            if alive == 1:
                break
        else:
            occupied.add(new)
            walkers[i] = new
    return alive


def witness_walks(graph: WeightedGraph, start, t_max: float, seed: int, lane: tuple[int, ...],
                  lo: int, hi: int) -> list[int]:
    """``_walk_survivors`` of trials lo..hi-1 of (seed, lane)."""
    adj = adjacency_lists(graph)
    return [_walk_survivors(adj, start, t_max, rng) for rng in trial_buffers(seed, lane, lo, hi)]


def walk_outcomes(graph: WeightedGraph, start, t_max: float, seed: int, lo: int,
                  hi: int) -> list[int]:
    """The walk kernel's walkers left at t_max in trials lo..hi-1 of lane 6,
    as a list, which ``run_trials`` can send between processes."""
    return list(voter._walk_runs(graph.adjacency(), start, t_max, seed, lo, hi))


def _witness_duality_chunk(graph, rho, target, t, seed, lo, hi):
    count = 0
    for _, opinions, _, _ in voter._voter_runs(graph.adjacency(), rho, None, t, seed, (3,),
                                               lo, hi):
        count += all(opinions[v] == 1 for v in target)
    adj = adjacency_lists(graph)
    values = [rho ** _walk_survivors(adj, target, t, rng)
              for rng in trial_buffers(seed, (4,), lo, hi)]
    return count, values


def witness_duality(graph: WeightedGraph, target, t: float, rho: float, trials: int,
                    seed: int, workers: int = 1) -> voter.DualityReport:
    """``duality_check`` as it was before the walk side moved onto the
    lockstep shell: the voter side on lane 3 and ``_walk_survivors`` on
    lane 4, for a valid target."""
    target = tuple(sorted(set(target)))
    parts = run_trials(_witness_duality_chunk, (graph, rho, target, t, seed), trials, workers)
    return voter._duality_report(parts, trials, target, t, rho, seed)
