"""The event loops and the lockstep kernels (contact survival and the
coalescing walks) against exact transient laws of small systems.

``references.py`` computes the laws by uniformization, with the Poisson
mass left out below 1e-14.  The first tests check those laws against
theorems (total mass, the voter/coalescing-walk duality, the contact
process's self-duality); the rest compare seeded Monte Carlo means with the
exact means as one-sample z scores, |z| <= 3, and the final occupied set's
whole law with the exact law as a chi-square z score, z <= 3; a
proportion that the duality theorem gives exactly is held to
``DUALITY_Z_BOUND``, and so is its two-sample z against the walk kernel on
a graph past the exact laws' reach.  Seeds and trial counts are frozen.
"""

import math

import numpy as np
import pytest
from references import contact_law, lockstep_outcomes, voter_law, walk_law, walk_outcomes

from stochlab.gaplab import cycle_graph, path_graph, star_graph
from stochlab.ipslab import (
    DUALITY_Z_BOUND,
    ContactConfig,
    VoterConfig,
    consensus_rate,
    duality_check,
    estimate_survival,
    simulate_contact,
    threshold_config,
)

Z_BOUND = 3.0
SURVIVAL = 0.581290      # L=8, lam=2, t=5, from site 4
DUALITY = 0.403575       # 10-cycle, target {0, 1}, t=2, rho=0.5


def _occupancy(length: int) -> np.ndarray:
    return np.array([bin(s).count("1") for s in range(1 << length)])


def _mask(sites) -> int:
    return sum(1 << (x - 1) for x in sites)


def _hits(law: np.ndarray, sites) -> float:
    """P(the occupied set meets ``sites``)."""
    return float(law[np.arange(len(law)) & _mask(sites) != 0].sum())


class TestOracles:
    @pytest.mark.parametrize("law", [
        lambda: contact_law(ContactConfig(2.0, length=8), (4,), 5.0),
        lambda: contact_law(threshold_config(1.2, length=8), (3, 6), 1.0),
        lambda: contact_law(ContactConfig(1.0, length=6, neighborhood=(-3, -1, 1, 3)),
                            (1, 6), 2.0),
        lambda: voter_law(cycle_graph(10), 0.5, 2.0),
        lambda: voter_law(path_graph(5), 0.3, 4.0),
        lambda: np.array(list(walk_law(cycle_graph(10), (0, 1), 2.0).values())),
        lambda: np.array(list(walk_law(path_graph(6), (0, 2, 5), 1.0).values())),
    ])
    def test_total_mass_is_one(self, law):
        p = law()
        assert (p >= -1e-15).all()
        assert abs(p.sum() - 1) <= 1e-12

    def test_time_zero_is_the_start(self):
        law = contact_law(ContactConfig(2.0, length=5), (2, 4), 0.0)
        assert law[_mask((2, 4))] == 1 and law.sum() == 1

    def test_voter_walk_duality(self):
        # P(0 and 1 both hold 1 at t) = E[rho^(walkers left at t)] from {0, 1}
        graph = cycle_graph(10)
        voter = voter_law(graph, 0.5, 2.0)
        lhs = voter[np.arange(len(voter)) & 0b11 == 0b11].sum()
        rhs = sum(p * 0.5 ** len(walkers)
                  for walkers, p in walk_law(graph, (0, 1), 2.0).items())
        assert abs(lhs - rhs) <= 1e-12
        assert round(lhs, 6) == DUALITY

    @pytest.mark.parametrize("graph", [cycle_graph(10), path_graph(7), star_graph(7)],
                             ids=["cycle", "path", "star"])
    def test_consensus_is_dual_to_walks_from_every_vertex(self, graph):
        # unanimity at t has mass E[rho^N + (1 - rho)^N], N the walkers left at t
        # when one starts on every vertex
        for t in (1.0, 4.0):
            assert abs(_consensus_mass(graph, 0.3, t) - _dual_consensus(graph, 0.3, t)) <= 1e-12

    @pytest.mark.parametrize("a, b", [((4,), (1,)), ((1, 2), (7, 8)), ((2, 5, 8), (3,))])
    def test_contact_self_duality(self, a, b):
        # P(A_t meets B) = P(B_t meets A) for the standard contact process
        cfg = ContactConfig(2.0, length=8)
        assert abs(_hits(contact_law(cfg, a, 1.5), b) - _hits(contact_law(cfg, b, 1.5), a)) \
            <= 1e-12

    def test_survival_from_one_site(self):
        law = contact_law(ContactConfig(2.0, length=8), (4,), 5.0)
        assert round(1 - law[0], 6) == SURVIVAL

    def test_pure_death_is_exponential(self):
        law = contact_law(ContactConfig(0.0, length=3), (1, 2, 3), 0.7)
        assert abs(law[0b111] - math.exp(-2.1)) <= 1e-14

    def test_large_interval_refused(self):
        with pytest.raises(ValueError):
            contact_law(ContactConfig(1.0, length=13), (1,), 1.0)
        with pytest.raises(ValueError):
            contact_law(ContactConfig(1.0), (0,), 1.0)


def _consensus_mass(graph, rho: float, t: float) -> float:
    law = voter_law(graph, rho, t)
    return float(law[0] + law[-1])


def _dual_consensus(graph, rho: float, t: float) -> float:
    return sum(p * (rho ** len(walkers) + (1 - rho) ** len(walkers))
               for walkers, p in walk_law(graph, range(graph.n), t).items())


def _z(values, exact: float) -> float:
    values = np.asarray(values, dtype=float)
    return (values.mean() - exact) / math.sqrt(values.var(ddof=1) / len(values))


def _chi_square_z(observed: np.ndarray, expected: np.ndarray) -> float:
    """Pearson's chi-square of counts against expected counts, the cells
    expected fewer than 10 times pooled into one, standardized by the
    Wilson-Hilferty transform (about N(0, 1) under the null)."""
    keep = expected >= 10
    observed = np.append(observed[keep], observed[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum())
    if expected[-1] == 0:  # nothing to pool
        observed, expected = observed[:-1], expected[:-1]
    chi2 = ((observed - expected) ** 2 / expected).sum()
    df = len(expected) - 1
    return ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))


class TestLockstepAgainstExactLaws:
    """The final occupied sets of ``estimate_survival``'s lockstep kernel
    (lane 5, standard mode), trial by trial, against the exact law: a wrong
    rate anywhere in the occupied-site form, such as a death or birth
    branch weighted by the wrong ring rate, moves the law of the final set."""

    @pytest.mark.parametrize("cfg, init, seed", [
        (ContactConfig(1.5, length=8), tuple(range(1, 9)), 61),
        (ContactConfig(1.0, length=8, neighborhood=(-2, -1, 1, 2)), (4,), 62),
    ], ids=["standard", "range-2"])
    def test_final_set_law(self, cfg, init, seed):
        trials, t_max = 2500, 1.0
        law = contact_law(cfg, init, t_max)
        finals = [final for final, _ in lockstep_outcomes(cfg, init, t_max, seed, 0, trials)]
        observed = np.bincount([_mask(f) for f in finals], minlength=len(law))
        assert _chi_square_z(observed, trials * law) <= Z_BOUND


class TestWalkLockstepAgainstExactLaws:
    """The walkers left at t by ``duality_check``'s walk kernel (lane 6),
    trial by trial, against their exact law: a kernel that lets two walkers
    share a vertex, or moves them at the wrong rate, moves this law."""

    @pytest.mark.parametrize("graph, start, t, seed", [
        (cycle_graph(10), (0, 1), 2.0, 63),
        (path_graph(6), (0, 2, 5), 1.0, 64),
    ], ids=["cycle", "path"])
    def test_walkers_left_law(self, graph, start, t, seed):
        trials = 4000
        law = np.zeros(len(start) + 1)
        for walkers, p in walk_law(graph, start, t).items():
            law[len(walkers)] += p
        observed = np.bincount(walk_outcomes(graph, start, t, seed, 0, trials),
                               minlength=len(law))
        assert _chi_square_z(observed, trials * law) <= Z_BOUND


class TestConsensusAgainstItsDual:
    """``consensus_rate`` against P(consensus by t), which the walks from
    every vertex give exactly (unanimity is absorbing), at horizons where
    it is between 0.3 and 0.8."""

    @pytest.mark.parametrize("graph, t, seed", [
        (cycle_graph(10), 4.0, 65),
        (star_graph(7), 1.0, 66),
    ], ids=["cycle", "star"])
    def test_rate_matches_the_exact_value(self, graph, t, seed):
        trials, exact = 4000, _dual_consensus(graph, 0.3, t)
        assert 0.3 <= exact <= 0.8
        est = consensus_rate(VoterConfig(graph, rho=0.3), t, trials, seed)
        assert abs(est.rate - exact) <= DUALITY_Z_BOUND * math.sqrt(exact * (1 - exact) / trials)

    def test_rate_matches_the_walks_on_the_20_cycle(self):
        # at rho = 1/2 the dual value is 2 E[(1/2)^N], N the walkers left at
        # t of 20 started one on each vertex, estimated by the walk kernel
        graph, t, trials, seed = cycle_graph(20), 50.0, 4000, 67
        est = consensus_rate(VoterConfig(graph, rho=0.5), t, trials, seed)
        dual = 0.5 ** (np.array(walk_outcomes(graph, range(20), t, seed, 0, trials)) - 1.0)
        assert 0.3 <= dual.mean() <= 0.8
        spread = math.sqrt((est.rate * (1 - est.rate) + dual.var()) / trials)
        assert abs(est.rate - dual.mean()) <= DUALITY_Z_BOUND * spread


class TestEventLoopsAgainstExactLaws:
    @pytest.mark.parametrize("cfg, init, seed", [
        (ContactConfig(1.5, length=8), tuple(range(1, 9)), 100_000),
        (threshold_config(1.2, length=8), (3, 6), 200_000),
    ], ids=["standard", "threshold"])
    def test_mean_occupancy(self, cfg, init, seed):
        trials, t_max = 2500, 1.0
        law = contact_law(cfg, init, t_max)
        finals = [simulate_contact(cfg, init, t_max, seed=seed + t).final_occupied
                  for t in range(trials)]
        assert abs(_z([len(f) for f in finals], law @ _occupancy(cfg.length))) <= Z_BOUND
        # the same runs against the whole law of the final occupied set, which
        # catches an engine whose mean alone stays near the exact mean
        observed = np.bincount([_mask(f) for f in finals], minlength=len(law))
        assert _chi_square_z(observed, trials * law) <= Z_BOUND

    def test_exact_means(self):
        # the values the engine tests above compare with
        full = contact_law(ContactConfig(1.5, length=8), range(1, 9), 1.0) @ _occupancy(8)
        split = contact_law(threshold_config(1.2, length=8), (3, 6), 1.0) @ _occupancy(8)
        assert (round(full, 6), round(split, 6)) == (5.059889, 3.501141)

    def test_survival_interval_covers_the_exact_value(self):
        est = estimate_survival(ContactConfig(2.0, length=8), 5.0, 5000, seed=5, init=(4,))
        assert est.ci_low <= SURVIVAL <= est.ci_high

    def test_duality_sides_match_the_exact_value(self):
        rep = duality_check(cycle_graph(10), (0, 1), 2.0, 0.5, 20_000, seed=404)
        assert abs(rep.lhs - DUALITY) <= Z_BOUND * rep.lhs_stderr
        assert abs(rep.rhs - DUALITY) <= Z_BOUND * rep.rhs_stderr
