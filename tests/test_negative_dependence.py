"""Negative dependence of the symmetric exclusion process, checked exactly.

Borcea, Branden & Liggett (J. AMS 22, 2009) proved that symmetric
exclusion preserves the strong Rayleigh property, so from any
deterministic start the law at every time t

* has Cov(eta_t(x), eta_t(y)) <= 0 for every pair x != y, and
* has a generating polynomial f(z) = sum_A P(eta_t = A) prod_{a in A} z_a
  with  d_i f * d_j f >= f * d_i d_j f  at every real z (Rayleigh).

The law from every start at once is exp(tQ) of the exclusion generator Q,
formed from ``eigh`` (Q is symmetric).  Both inequalities are checked on
the criterion-06 graphs (every connected class with n <= 5 and 50 seeded
weighted graphs with n = 6) at every 2 <= k <= n - 2, and on one seeded
weighted graph with n = 10 at every k.
"""

import itertools

import numpy as np

from stochlab import gaplab

TIMES = (0.05, 0.3, 1.0, 3.0)
# probabilities are O(1); eigh's rounding leaves about 1e-15 in each entry of exp(tQ)
COV_TOL = 1e-12
# every term of the Rayleigh difference is a product of two terms of f's size, and the
# difference nearly vanishes at small t (it is 0 at t = 0), so rounding is about eps * f^2
RAYLEIGH_TOL = 1e-10
# points of the lattice {-2, -1/2, 1/2, 1, 3}^n, mixed signs so that f has cancellations
LEVELS = (-2.0, -0.5, 0.5, 1.0, 3.0)
POINTS = 8


def _laws(graph, k, t):
    """exp(tQ) of the k-particle exclusion generator: row s is the law at
    time t from the s-th configuration, columns the same configurations."""
    op = gaplab.exclusion_generator(graph, k)
    eigenvalues, vectors = np.linalg.eigh(op.dense())
    return np.array(op.states), (vectors * np.exp(t * eigenvalues)) @ vectors.T


def _max_covariance(states, laws, n):
    """The largest Cov(eta(x), eta(y)), x != y, over every row of ``laws``."""
    occupied = np.zeros((len(states), n))
    np.put_along_axis(occupied, states, 1.0, axis=1)
    means = laws @ occupied
    joint = np.einsum("sa,ax,ay->sxy", laws, occupied, occupied)
    cov = joint - means[:, :, None] * means[:, None, :]
    off = ~np.eye(n, dtype=bool)
    return cov[:, off].max()


def _rayleigh_slack(states, laws, n, z):
    """The least  d_i f d_j f - f d_i d_j f + RAYLEIGH_TOL f^2  over pairs
    i != j, rows of ``laws`` and points ``z`` (one per row of z), and the
    f^2 at which it is reached."""
    count, k = states.shape
    zs = z[:, states]  # (points, configurations, k)
    f_terms = zs.prod(axis=2)
    # d_i: the configuration's monomial with z_i left out, at column i
    d1 = np.zeros((len(z), count, n))
    for p in range(k):
        rest = np.delete(zs, p, axis=2).prod(axis=2)
        np.put_along_axis(d1, np.broadcast_to(states[None, :, p, None], (len(z), count, 1)),
                          rest[:, :, None], axis=2)
    d2 = np.zeros((len(z), count, n, n))
    for p, q in itertools.permutations(range(k), 2):
        rest = np.delete(zs, (p, q), axis=2).prod(axis=2)
        d2[:, np.arange(count), states[:, p], states[:, q]] = rest
    f = np.einsum("sa,ma->ms", laws, f_terms)
    df = np.einsum("sa,mai->msi", laws, d1)
    ddf = np.einsum("sa,maij->msij", laws, d2)
    square = np.broadcast_to((f * f)[:, :, None, None], ddf.shape)
    slack = df[:, :, :, None] * df[:, :, None, :] - f[:, :, None, None] * ddf
    slack += RAYLEIGH_TOL * square
    off = ~np.eye(n, dtype=bool)
    worst = slack[:, :, off].argmin()
    return slack[:, :, off].flat[worst], square[:, :, off].flat[worst]


def _check(graph, ks, rng):
    n = graph.n
    z = rng.choice(LEVELS, size=(POINTS, n))
    for k in ks:
        for t in TIMES:
            states, laws = _laws(graph, k, t)
            np.testing.assert_allclose(laws.sum(axis=1), 1.0, atol=1e-12)
            cov = _max_covariance(states, laws, n)
            assert cov <= COV_TOL, f"n={n} k={k} t={t}: pair covariance {cov:.3g} > 0"
            slack, square = _rayleigh_slack(states, laws, n, z)
            assert slack >= 0, (f"n={n} k={k} t={t}: Rayleigh difference "
                                f"{slack - RAYLEIGH_TOL * square:.3g} at f^2 = {square:.3g}")


def _criterion_06_graphs():
    graphs = [g for n in (4, 5) for g in gaplab.connected_graph_representatives(n)]
    rng = np.random.default_rng(2024)
    return graphs + [gaplab.random_connected_graph(6, rng) for _ in range(50)]


def test_criterion_06_graphs_are_negatively_dependent():
    # classes with n <= 3 have no k in 2..n-2
    rng = np.random.default_rng(12)
    for graph in _criterion_06_graphs():
        _check(graph, range(2, graph.n - 1), rng)


def test_ten_vertices_at_every_particle_count():
    graph = gaplab.random_connected_graph(10, np.random.default_rng(10), edge_prob=0.4)
    _check(graph, range(1, 10), np.random.default_rng(13))

