"""Exhaustive finite-window independence checks for exact window measures.

A measure here is anything with a ``window_array(n)`` method returning a
dense int64 array of numerators, one axis per window position indexed by
color (zero at improper words), and their common denominator T, below
2**63; the check reads it as uint64.  The axis sums of the window are the
marginals.  Distances are over window positions; a pair of position sets
is tested by comparing joint marginal times denominator against the
product of the two marginals, for all color assignments at once, exactly.

Every marginal is at most T, so only the two compared products can leave
64 bits.  They are compared modulo 2**64, as wrapping uint64 products, and
modulo as many fixed primes below 2**31 as it takes for the moduli's
product to exceed T**2 (none while T**2 < 2**64, when the uint64
comparison is the plain one).  Both products lie in [0, T**2], so by the
Chinese remainder theorem they are equal exactly when every residue
agrees; the witness's rationals are then recomputed in Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

import numpy as np

# the three largest primes below 2**31: two residues multiply within int64,
# and 2**64 times their product (about 2**157) exceeds any T**2 with T < 2**63
PRIMES = (2147483647, 2147483629, 2147483587)


@dataclass(frozen=True)
class DependenceWitness:
    """A factorization failure: positions are 1-based within the window."""

    window: int
    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]  # (position, color) pairs
    joint: Fraction
    product: Fraction


@dataclass(frozen=True)
class DependenceReport:
    k: int
    nmax: int
    holds: bool
    witness: DependenceWitness | None
    pairs_checked: int

    def to_dict(self) -> dict:
        out = {"k": self.k, "nmax": self.nmax, "holds": self.holds,
               "pairsChecked": self.pairs_checked}
        if self.witness is not None:
            w = self.witness
            out["witness"] = {
                "window": w.window,
                "A": list(w.set_a),
                "B": list(w.set_b),
                "assignment": {str(p): c for p, c in w.assignment},
                "joint": str(w.joint),
                "product": str(w.product),
            }
        return out


def _reduced(window: np.ndarray, denom: int) -> tuple[np.ndarray, int]:
    """The window and its denominator divided by their gcd, the window as
    uint64 (its entries are below 2**63), whose products wrap modulo 2**64.

    The copy pays: the unreduced T_10**2 at q = 4 needs one prime, and
    ``check-dep --q 4 --k 1 --nmax 10`` took 0.93-1.10 s unreduced against
    0.50-0.56 s, for 10 MiB less peak RSS (126 against 136 MiB)."""
    g = gcd(denom, int(np.gcd.reduce(window, axis=None)))
    return (window // g if g > 1 else window).view(np.uint64), denom // g


def _moduli(denom: int) -> tuple[int, ...]:
    """The fewest of ``PRIMES`` that, with the 2**64 of wrapping uint64
    products, have a product above denom**2 (none while denom**2 < 2**64)."""
    count = next(c for c in range(len(PRIMES) + 1) if prod(PRIMES[:c]) << 64 > denom * denom)
    return PRIMES[:count]


def marginal_tables(window: np.ndarray) -> dict[int, np.ndarray]:
    """Marginal numerators for every subset of window positions.

    ``tables[mask]`` keeps all axes, with length 1 at the positions outside
    ``mask``, so any two tables broadcast against each other.  Each is
    summed over one axis from the table with one more position.
    """
    full = (1 << window.ndim) - 1
    tables = {full: window}
    for mask in sorted(range(full), key=lambda m: -bin(m).count("1")):
        missing = ~mask & full
        j = (missing & -missing).bit_length() - 1
        tables[mask] = tables[mask | 1 << j].sum(axis=j, keepdims=True)
    return tables


def check_bytes(q: int, k: int, nmax: int) -> int:
    """Peak bytes of ``check_k_dependence``: the (q+1)^nmax int64 entries of
    the marginal tables of length nmax (the full one is the window reduced
    by its gcd), the windows of every length up to nmax, and 4 arrays the
    size of the largest pair's union (nmax - k positions) for its
    comparison's temporaries (tracemalloc counts 2.1-3.1).  The tables of
    one length are freed before the next length's are built.  Each of the
    2^nmax tables is charged 1.5 KiB for its array object (tracemalloc
    counts 270-360 bytes; the rest is margin where the tables are small).
    tracemalloc peaks at 0.93-0.95 of this at q = 4, k = 1, nmax = 9, 10 and
    at 0.89-0.93 at q = 3, k = 2, nmax = 10, 11; a child's peak RSS grows by
    0.95-0.98 of it at q = 4, k = 1, nmax = 10, 11 and q = 3, k = 2, nmax = 11, 12."""
    windows = sum(q**n for n in range(nmax + 1))
    return 8 * ((q + 1)**nmax + windows + 4 * q**(nmax - k)) + 1536 * 2**nmax


def _too_close(mask_a: int, mask_b: int, k: int) -> bool:
    spread = mask_a
    for d in range(1, k + 1):
        spread |= mask_a << d | mask_a >> d
    return bool(spread & mask_b)


def check_k_dependence(measure, k: int, nmax: int) -> DependenceReport:
    """Exact k-dependence check over all windows of length <= nmax.

    For every pair of nonempty position sets A, B with every cross
    distance strictly greater than k, verifies that the joint law of the
    colors on A u B factorizes over A and B, for every color assignment.
    Returns the first violation found (windows ascending, then position
    sets, then assignments in lexicographic order).

    Cost: ~3^nmax pairs, each compared over its q^|A u B| assignments in
    one broadcast, on (q+1)^nmax table entries of 8 bytes (``check_bytes``
    adds the windows and the temporaries).  From a cold
    measure at q = 4, k = 1 it takes 0.008 s at nmax = 7, 0.03 s at 8,
    0.1 s at 9, 0.22-0.5 s at 10 and 2.5-4.5 s at 11, where the products
    pass 2**64 and one prime joins (470 MiB peak RSS; 2-vCPU VM, the
    ranges spanning its load).  A report with holds=True certifies only the
    windows up to nmax; it is evidence, not a proof, for larger separations.
    Raises ValueError for a window whose denominator would reach 2**63.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if nmax < k + 2:
        raise ValueError(f"nmax must be at least k+2={k + 2} to contain a testable pair")
    pairs_checked = 0
    for n in range(2, nmax + 1):
        window, denom = _reduced(*measure.window_array(n))
        tables = marginal_tables(window)
        moduli = _moduli(denom)
        for mask_a in range(1, 1 << n):
            comp = ((1 << n) - 1) & ~mask_a
            mask_b = comp
            while mask_b:
                # dedupe unordered pairs: A holds the smallest position
                if (mask_b & -mask_b) > (mask_a & -mask_a) and not _too_close(mask_a, mask_b, k):
                    pairs_checked += 1
                    witness = _check_pair(tables, denom, moduli, mask_a, mask_b)
                    if witness is not None:
                        return DependenceReport(k, nmax, False, witness, pairs_checked)
                mask_b = (mask_b - 1) & comp
        # nothing reads this length again: free it before the next one is built
        del window, tables
    return DependenceReport(k, nmax, True, None, pairs_checked)


def _check_pair(tables, denom, moduli, mask_a, mask_b):
    mask_u = mask_a | mask_b
    joint, a, b = tables[mask_u], tables[mask_a], tables[mask_b]
    # the products modulo 2**64 (uint64 multiplication wraps), and modulo
    # each prime in ``moduli``
    bad = joint * denom != a * b
    for p in moduli:
        bad |= joint % p * (denom % p) % p != a % p * (b % p) % p
    # C order over the axes is lexicographic order of the assignments
    first = int(bad.argmax())
    if not bad.flat[first]:
        return None
    colors = np.unravel_index(first, bad.shape)
    positions = range(bad.ndim)
    a_value, b_value = (int(np.broadcast_to(t, bad.shape)[colors]) for t in (a, b))
    return DependenceWitness(
        window=bad.ndim,
        set_a=tuple(p + 1 for p in positions if mask_a >> p & 1),
        set_b=tuple(p + 1 for p in positions if mask_b >> p & 1),
        assignment=tuple((p + 1, int(colors[p]) + 1) for p in positions if mask_u >> p & 1),
        joint=Fraction(int(joint[colors]), denom),
        product=Fraction(a_value * b_value, denom * denom),
    )
