"""Aggregate gap computations for one graph, with identity checks.

The walk gap comes from a dense matrix; the interchange, exclusion and
subset-shuffle gaps from the operators' irrep blocks
(``irreps.block_spectrum``, up to ``irreps.MAX_VERTICES`` vertices), k
particles reading the blocks (n-j, j), j <= min(k, n-k) (Young's rule).
The (n-1, 1) block must reproduce the single-particle walk: a mismatch there
is flagged, since it would mean the blocks themselves are wrong.  Each
exclusion gap lies between the interchange gap and that block's smallest
eigenvalue, so ``exclusionConstant`` follows from ``identityOk`` and an
unflagged (n-1, 1) block; it is no longer a separate numerical check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .generators import alpha_single_particle_rates, rw_generator
from .graphs import HyperWeights, WeightedGraph
from .irreps import block_spectrum
from .spectral import DEFAULT_TOL_ZERO, ReducibilityError, block_gap, spectral_gap

DEFAULT_RTOL = 1e-8  # fixed, like DEFAULT_TOL_ZERO; the reports carry both


@dataclass
class GapReport:
    n: int
    lambda_rw: float
    lambda_ip: float
    exclusion_gaps: list[float]
    identity_ok: bool
    exclusion_constant: bool
    contraction_ok: bool
    max_rel_deviation: float
    lambda_shuffle: float | None = None
    lambda_shuffle_rw: float | None = None
    shuffle_identity_ok: bool | None = None
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "lambdaRW": self.lambda_rw,
            "lambdaIP": self.lambda_ip,
            "exclusionGaps": self.exclusion_gaps,
            "zeroEigCount": 1,  # spectral_gap and block_gap raise on any other count
            "tolZero": DEFAULT_TOL_ZERO,
            "rtol": DEFAULT_RTOL,
            "identityOk": self.identity_ok,
            "exclusionConstant": self.exclusion_constant,
            "contractionOk": self.contraction_ok,
            "maxRelDeviation": self.max_rel_deviation,
            "flags": self.flags,
        }
        if self.lambda_shuffle is not None:
            out["lambdaShuffle"] = self.lambda_shuffle
            out["lambdaShuffleRW"] = self.lambda_shuffle_rw
            out["shuffleIdentityOk"] = self.shuffle_identity_ok
        return out


def gap_report(graph: WeightedGraph, hyper: HyperWeights | None = None) -> GapReport:
    """Compute the walk, interchange, and exclusion gaps of one graph.

    Flags any relative deviation of the interchange or exclusion gaps from
    the walk gap beyond ``DEFAULT_RTOL`` (1e-8); eigenvalues below
    ``DEFAULT_TOL_ZERO`` (1e-9) times the spectral radius count as zero.
    When subset rates are supplied, the shuffle gap is compared against the
    walk with the single-particle rates; that comparison is reported, not
    asserted (it is a conjecture).
    """
    if not graph.is_connected:
        raise ReducibilityError("gap report requires a connected graph")
    # the blocks first: they refuse n > irreps.MAX_VERTICES before any dense step
    blocks = block_spectrum(graph.n, {(i, j): w for i, j, w in graph.edges()})
    lam_rw = spectral_gap(rw_generator(graph))
    lam_ip = block_gap(blocks)
    lows = {shape: float(ev[0]) for shape, ev in blocks}
    n = graph.n
    exclusion = [min(lows[n - j, j] for j in range(1, min(k, n - k) + 1)) for k in range(1, n)]
    deviations = [abs(lam_ip - lam_rw)] + [abs(g - lam_rw) for g in exclusion]
    max_rel = max(deviations) / lam_rw
    identity_ok = abs(lam_ip - lam_rw) <= DEFAULT_RTOL * lam_rw
    exclusion_constant = all(abs(g - lam_rw) <= DEFAULT_RTOL * lam_rw for g in exclusion)
    contraction_ok = lam_ip <= lam_rw * (1 + DEFAULT_RTOL)
    flags = _standard_block_flags(blocks, lam_rw, "walk gap")
    if not identity_ok:
        flags.append("interchange gap deviates from walk gap")
    if not exclusion_constant:
        flags.append("exclusion gaps are not constant in the particle count")
    if not contraction_ok:
        flags.append("contraction bound violated")
    report = GapReport(
        n=graph.n,
        lambda_rw=lam_rw,
        lambda_ip=lam_ip,
        exclusion_gaps=exclusion,
        identity_ok=identity_ok,
        exclusion_constant=exclusion_constant,
        contraction_ok=contraction_ok,
        max_rel_deviation=max_rel,
    )
    if hyper is not None:
        shuffle_report = shuffle_gap_comparison(hyper)
        report.lambda_shuffle = shuffle_report["lambdaShuffle"]
        report.lambda_shuffle_rw = shuffle_report["lambdaShuffleRW"]
        report.shuffle_identity_ok = shuffle_report["shuffleIdentityOk"]
        if shuffle_report["flags"]:
            flags.extend(shuffle_report["flags"])
    report.flags = flags
    return report


def shuffle_gap_comparison(hyper: HyperWeights) -> dict:
    """Gap of the subset-shuffle process vs the single-particle walk.

    The equality of the two is conjectural: a relative disagreement beyond
    ``DEFAULT_RTOL`` (1e-8) is flagged in the result but never raised.  The
    gaps read ``DEFAULT_TOL_ZERO`` (1e-9) as ``spectral_gap`` does.
    """
    single = alpha_single_particle_rates(hyper)
    if not any(rate > 0 for rate in hyper.rates.values()):
        return {
            "lambdaShuffle": None,
            "lambdaShuffleRW": None,
            "shuffleIdentityOk": None,
            "flags": ["degenerate: all shuffle rates are zero"],
        }
    if not single.is_connected:
        return {
            "lambdaShuffle": None,
            "lambdaShuffleRW": None,
            "shuffleIdentityOk": None,
            "flags": ["single-particle graph is disconnected"],
        }
    blocks = block_spectrum(hyper.n, subset_rates=hyper.rates)
    lam_shuffle = block_gap(blocks)
    lam_walk = spectral_gap(rw_generator(single))
    flags = _standard_block_flags(blocks, lam_walk, "single-particle walk gap")
    agree = abs(lam_shuffle - lam_walk) <= DEFAULT_RTOL * max(lam_walk, 1e-300)
    if not agree:
        flags.append(
            f"shuffle gap {lam_shuffle:.12g} differs from single-particle walk "
            f"gap {lam_walk:.12g} (conjectured equal; reported, not asserted)"
        )
    return {
        "lambdaShuffle": lam_shuffle,
        "lambdaShuffleRW": lam_walk,
        "shuffleIdentityOk": agree,
        "flags": flags,
    }


def _standard_block_flags(blocks, lam_walk: float, walk: str) -> list[str]:
    """A flag unless the (n-1, 1) block's smallest eigenvalue is the walk gap."""
    shape, eigenvalues = blocks[1]  # partitions order: (n), then (n-1, 1)
    low = float(eigenvalues[0])
    if abs(low - lam_walk) <= DEFAULT_RTOL * lam_walk:
        return []
    return [f"irrep block {shape} has smallest eigenvalue {low:.12g}, not the {walk} "
            f"{lam_walk:.12g}"]
