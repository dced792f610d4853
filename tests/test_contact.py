import math
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import event_loop_survival, lockstep_outcomes

from stochlab.gaplab import cycle_graph
from stochlab.ipslab import (
    DUALITY_Z_BOUND,
    ContactConfig,
    TrialStats,
    VoterConfig,
    contact,
    estimate_survival,
    lockstep,
    right_edge_speed,
    simulate_contact,
    simulate_voter,
    threshold_config,
    trial_generator,
)
from stochlab.ipslab.parallel import run_trials


class TestConfig:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ContactConfig(-1.0, length=10)

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            ContactConfig(1.0, length=10, neighborhood=(0, 1, -1))

    def test_asymmetric_neighborhood_rejected(self):
        with pytest.raises(ValueError):
            ContactConfig(1.0, length=10, neighborhood=(1, 2, -1))

    def test_threshold_defaults(self):
        cfg = threshold_config(0.985, length=50)
        assert cfg.neighborhood == (-2, -1, 1, 2)
        assert cfg.mode == "threshold"

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ContactConfig(1.0, length=10, mode="sideways")


class TestSimulate:
    def test_determinism_byte_for_byte(self):
        cfg = ContactConfig(1.5, length=60)
        a = simulate_contact(cfg, (30,), 8.0, seed=99, record_dt=0.5)
        b = simulate_contact(cfg, (30,), 8.0, seed=99, record_dt=0.5)
        assert a == b

    def test_different_seeds_differ(self):
        cfg = ContactConfig(1.5, length=60)
        outs = {simulate_contact(cfg, (30,), 5.0, seed=s).final_occupied for s in range(8)}
        assert len(outs) > 1

    def test_empty_start_is_absorbing(self):
        cfg = ContactConfig(2.0, length=10)
        out = simulate_contact(cfg, (), 5.0, seed=1)
        assert out.extinct_time == 0.0
        assert out.final_occupied == ()
        assert out.n_events == 0

    def test_pure_death_extinction_times(self):
        # single site dies at an Exp(1) time
        cfg = ContactConfig(0.0, length=5)
        times = []
        survived = 0
        for trial in range(10_000):
            out = simulate_contact(cfg, (3,), 10.0, seed=trial)
            if out.alive_at_tmax:
                survived += 1
            else:
                times.append(out.extinct_time)
        assert survived / 10_000 < 0.01
        mean = sum(times) / len(times)
        assert abs(mean - 1.0) < 4 / math.sqrt(len(times))

    def test_single_site_survival_probability(self):
        # no neighbors on a length-1 interval: survival(t) = exp(-t)
        cfg = ContactConfig(3.0, length=1)
        alive = sum(
            simulate_contact(cfg, (1,), 1.0, seed=t).alive_at_tmax
            for t in range(4000)
        )
        p = math.exp(-1)
        sigma = math.sqrt(4000 * p * (1 - p))
        assert abs(alive - 4000 * p) <= 4 * sigma

    def test_dirichlet_boundary(self):
        cfg = ContactConfig(5.0, length=3)
        out = simulate_contact(cfg, (2,), 4.0, seed=5)
        assert all(1 <= x <= 3 for x in out.final_occupied)

    def test_boundary_flag(self):
        cfg = ContactConfig(5.0, length=3)
        hits = [simulate_contact(cfg, (2,), 4.0, seed=s).boundary_hit for s in range(10)]
        assert any(hits)  # with rate 5 the endpoints fill almost surely

    def test_out_of_range_init_rejected(self):
        with pytest.raises(ValueError):
            simulate_contact(ContactConfig(1.0, length=5), (6,), 1.0, seed=0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            simulate_contact(ContactConfig(1.0, length=5), (1,), 0.0, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        cfg = ContactConfig(1.0, length=5)
        with pytest.raises(ValueError, match="birth rate"):
            ContactConfig(bad, length=5)
        with pytest.raises(ValueError, match="t_max"):
            simulate_contact(cfg, (1,), bad, seed=0)
        with pytest.raises(ValueError, match="t_max"):
            estimate_survival(cfg, bad, 3, seed=0)
        with pytest.raises(ValueError, match="t_max"):
            right_edge_speed(1.0, bad, 3, seed=0)

    @pytest.mark.parametrize("simulate", [
        lambda dt: simulate_contact(ContactConfig(1.0, length=10), (5,), 5.0, 1, record_dt=dt),
        lambda dt: simulate_voter(VoterConfig(cycle_graph(6), rho=0.5), 5.0, 1, record_dt=dt),
    ], ids=["contact", "voter"])
    def test_record_dt_domain(self, simulate):
        # a negative step used to record path points until memory ran out, and
        # a tiny positive one asks for more points than any memory holds
        for bad in (-0.5, math.nan, math.inf, 1e-300):
            with pytest.raises(ValueError, match="record_dt"):
                simulate(bad)
        assert simulate(0) == simulate(None)  # no path points either way

    def test_record_grid(self):
        cfg = ContactConfig(1.0, length=30)
        out = simulate_contact(cfg, (15,), 3.0, seed=2, record_dt=1.0)
        times = [t for t, _ in out.right_edge_path]
        assert times[0] == 0.0
        grid = [t for t in times if t in (1.0, 2.0, 3.0)]
        assert grid == [1.0, 2.0, 3.0] or not out.alive_at_tmax

    def test_sparse_mode_spreads_both_ways(self):
        cfg = ContactConfig(3.0)  # unbounded
        out = simulate_contact(cfg, (0,), 6.0, seed=8)
        if out.alive_at_tmax:
            assert min(out.final_occupied) < 0 < max(out.final_occupied)

    def test_a_huge_interval_far_from_its_ends_is_the_sparse_line_moved(self):
        # the run spreads over -25..16 around its start and never nears an
        # end, so it is the sparse line's run event for event, moved by the
        # center, in memory that follows the touched span and not the 10**12 sites
        center = 5 * 10**11
        tracemalloc.start()
        huge = simulate_contact(ContactConfig(2.0, length=10**12), (center,), 15.0, seed=4,
                                record_dt=1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        line = simulate_contact(ContactConfig(2.0), (0,), 15.0, seed=4, record_dt=1.0)
        assert huge.alive_at_tmax and not huge.boundary_hit
        assert huge.n_events == line.n_events
        assert huge.final_occupied == tuple(x + center for x in line.final_occupied)
        assert huge.right_edge_path == tuple((t, e + center) for t, e in line.right_edge_path)
        assert peak < 2**20


class TestEstimateSurvival:
    def test_lambda_zero_survival_is_zero_within_ci(self):
        cfg = ContactConfig(0.0, length=21)
        est = estimate_survival(cfg, 10.0, 500, seed=1)
        assert est.fraction == 0.0
        assert est.ci_low == 0.0

    def test_deterministic_given_seed(self):
        cfg = ContactConfig(1.2, length=40)
        a = estimate_survival(cfg, 10.0, 100, seed=5)
        b = estimate_survival(cfg, 10.0, 100, seed=5)
        assert a == b

    def test_monotone_in_lambda_up_to_ci(self):
        # survival estimates ordered along the rate grid, with CI slack
        results = []
        for lam in (0.5, 1.0, 2.0):
            cfg = ContactConfig(lam, length=400)
            results.append(estimate_survival(cfg, 100.0, 120, seed=31))
        for lo, hi in zip(results, results[1:]):
            assert hi.fraction >= lo.fraction - (lo.fraction - lo.ci_low) - (hi.ci_high - hi.fraction)

    def test_stats_invariant(self):
        with pytest.raises(ValueError):
            TrialStats(trials=5, survivals=6)


def _two_sample_z(p: float, q: float, trials: int) -> float:
    spread = math.sqrt((p * (1 - p) + q * (1 - q)) / trials)
    return (p - q) / spread


class TestLockstepKernel:
    """``estimate_survival``'s lockstep kernel (lane 5, standard mode)
    against the event loop it replaced (lane 0), and its trials'
    independence of how they are split into chunks, windows, blocks and
    processes."""

    @pytest.mark.parametrize("init, t_max, seed", [((30,), 20.0, 71), ((1,), 8.0, 73)],
                             ids=["center", "site-1"])
    def test_survival_and_boundary_hits_match_the_event_loop(self, init, t_max, seed):
        # from the center, a fraction of the trials reaches site 1 or L = 60
        # by t_max after the window has widened; from site 1 every trial
        # counts as a hit at once, in both engines
        cfg, trials = ContactConfig(2.0, length=60), 2000
        lockstep = estimate_survival(cfg, t_max, trials, seed, init=init)
        event_loop = event_loop_survival(cfg, t_max, trials, seed, init=init)
        assert abs(_two_sample_z(lockstep.fraction, event_loop.fraction, trials)) \
            <= DUALITY_Z_BOUND
        if 1 in init:
            assert lockstep.boundary_hits == event_loop.boundary_hits == trials
        else:
            assert 0 < event_loop.boundary_hits < trials
            hits = lockstep.boundary_hits / trials, event_loop.boundary_hits / trials
            assert abs(_two_sample_z(*hits, trials)) <= DUALITY_Z_BOUND

    def test_threshold_survival_stays_on_the_event_loop(self):
        cfg = threshold_config(1.2, length=30)
        assert estimate_survival(cfg, 4.0, 50, seed=9) == event_loop_survival(cfg, 4.0, 50, 9)

    def test_an_overflowing_ring_rate_runs_on_the_event_loop(self):
        # 1 + |N| lam is inf, which the lockstep cannot split into a death
        # and a birth, so the event loop runs the trials
        cfg = ContactConfig(1e308, length=5)
        est = estimate_survival(cfg, 1.0, 50, seed=0)
        assert est.stats.lane == "contact/0"
        assert est == event_loop_survival(cfg, 1.0, 50, 0)

    @pytest.mark.parametrize("cfg, init", [
        (ContactConfig(2.0), (0, 3)),
        (ContactConfig(1.7, length=30), (1, 15)),
    ], ids=["sparse", "interval"])
    def test_outcomes_do_not_depend_on_the_split(self, monkeypatch, cfg, init):
        trials, split, args = 61, 23, (cfg, init, 6.0, 81)
        whole = lockstep_outcomes(*args, 0, trials)
        assert 0 < sum(bool(final) for final, _ in whole) < trials
        halves = lockstep_outcomes(*args, 0, split) + lockstep_outcomes(*args, split, trials)
        assert whole == halves
        workers = run_trials(lockstep_outcomes, args, trials, 2)
        assert whole == [outcome for part in workers for outcome in part]
        monkeypatch.setattr(lockstep, "WINDOW_SITES", 1)  # a window per trial
        monkeypatch.setattr(lockstep, "BLOCK_UNIFORMS", 1)  # a block per step
        assert whole == lockstep_outcomes(*args, 0, trials)


@cache
def _occupied_from_full(cfg, length: int, site: int, t: float, trials: int, seed: int) -> float:
    """P(site occupied at t) from the full interval, over event-loop seeds."""
    full = range(1, length + 1)
    return sum(site in simulate_contact(cfg, full, t, seed=s).final_occupied
               for s in range(seed * trials, (seed + 1) * trials)) / trials


class TestSelfDualityAtScale:
    """Self-duality on an interval past the exact laws' 12 sites:
    P(xi_t^A meets B) = P(xi_t^B meets A) for a symmetric standard contact
    process.  With A = {x} and B the whole interval, survival from x equals
    P(x occupied at t) from full occupancy; the two sides are estimated from
    independent trials and compared by a two-sample z.  The threshold
    process is not self-dual, and the same z must exceed the bound there.
    Standard-mode survival runs on ``estimate_survival``'s lockstep kernel
    here and on the event loop in the subclass below; both read the same
    full-interval side.  Threshold survival runs on the event loop in both."""

    LENGTH, SITE, T, TRIALS = 16, 8, 3.0, 2000
    survival = staticmethod(estimate_survival)

    def _z(self, cfg, seed: int) -> float:
        survival = self.survival(cfg, self.T, self.TRIALS, seed, init=(self.SITE,)).fraction
        occupied = _occupied_from_full(cfg, self.LENGTH, self.SITE, self.T, self.TRIALS, seed)
        return _two_sample_z(survival, occupied, self.TRIALS)

    @pytest.mark.parametrize("neighborhood, lam, seed", [
        ((-1, 1), 2.0, 41),
        ((-2, -1, 1, 2), 1.0, 42),
    ], ids=["nearest", "range-2"])
    def test_standard_process_is_self_dual(self, neighborhood, lam, seed):
        cfg = ContactConfig(lam, self.LENGTH, neighborhood)
        assert abs(self._z(cfg, seed)) <= DUALITY_Z_BOUND

    def test_threshold_process_is_not(self):
        assert self._z(threshold_config(1.2, self.LENGTH), 43) > DUALITY_Z_BOUND


class TestSelfDualityAtScaleEventLoop(TestSelfDualityAtScale):
    survival = staticmethod(event_loop_survival)


class TestFixedStepCrossValidation:
    def test_threshold_rate_is_flat_in_the_neighbor_count(self):
        # site 2 of {1,3} has two occupied neighbors: the short-time birth
        # probability is lam*t in threshold mode but 2*lam*t in standard
        t_short = 0.02
        fills = {"threshold": 0, "standard": 0}
        for mode, cfg in (
            ("threshold", ContactConfig(1.0, length=3, neighborhood=(-1, 1), mode="threshold")),
            ("standard", ContactConfig(1.0, length=3)),
        ):
            for trial in range(40_000):
                out = simulate_contact(cfg, (1, 3), t_short, seed=trial)
                fills[mode] += 2 in out.final_occupied
        # expectations ~800 vs ~1600 events with sigma ~ 28
        assert fills["standard"] > fills["threshold"] + 8 * math.sqrt(fills["standard"])
        assert abs(fills["threshold"] - 40_000 * 1.0 * t_short) <= 5 * math.sqrt(800)


@st.composite
def contact_runs(draw):
    length = draw(st.integers(1, 15))
    neighborhood = draw(st.sampled_from([(-1, 1), (-2, -1, 1, 2), (-3, 3)]))
    mode = draw(st.sampled_from(["standard", "threshold"]))
    cfg = ContactConfig(draw(st.floats(0, 4)), length, neighborhood, mode)
    init = draw(st.lists(st.integers(1, length), max_size=length))
    return cfg, init, draw(st.floats(0.01, 5)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(contact_runs())
def test_trajectory_invariants(run):
    cfg, init, t_max, seed = run
    out = simulate_contact(cfg, init, t_max, seed)
    final = out.final_occupied
    assert all(1 <= x <= cfg.length for x in final)
    assert list(final) == sorted(set(final))
    assert (out.extinct_time is not None) == (final == ())
    assert out.alive_at_tmax == (final != ())
    assert out.extinct_time is None or 0 <= out.extinct_time <= t_max


class TestSparseSpanBound:
    """A sparse-line run whose touched span could outgrow memory is refused
    before any trial starts."""

    @pytest.fixture()
    def one_mib(self, monkeypatch):
        monkeypatch.setattr(contact, "physical_memory_bytes", lambda: 2**20)
        monkeypatch.setattr(contact, "_run", None)  # no trial may start
        monkeypatch.setattr(contact, "_lockstep_runs", None)

    @pytest.mark.parametrize("call", [
        lambda t: simulate_contact(ContactConfig(3.0), (0,), t, seed=1),
        lambda t: estimate_survival(ContactConfig(3.0), t, 4, seed=1),
        lambda t: estimate_survival(threshold_config(1.0), t, 4, seed=1, init=(0, 5)),
        lambda t: right_edge_speed(3.0, t, 2, seed=1),
    ], ids=["simulate", "survival", "survival-threshold", "edge-speed"])
    def test_refused_naming_t_max(self, one_mib, call):
        # 1 MiB holds 5,461 sites at 192 bytes; the edges move at rate <= 3 each
        with pytest.raises(ValueError, match="t_max 1000 lets a sparse-line run"):
            call(1000.0)

    def test_the_bound(self, monkeypatch):
        # the half-line -400..0 plus one site each side, and both edges at rate 3 * 1
        monkeypatch.setattr(contact, "physical_memory_bytes", lambda: 192 * (403 + 6 * 100))
        contact.check_sparse_span(ContactConfig(3.0), range(-400, 1), 100.0)
        with pytest.raises(ValueError, match="t_max"):
            contact.check_sparse_span(ContactConfig(3.0), range(-400, 1), 100.1)
        # reach 2 and positive offsets summing to 3: 2 sites each side, and moves of
        # up to 2 sites at rate 3 * lam, so 5 + 12 t sites: 1001 at t=83, 1013 at 84
        contact.check_sparse_span(threshold_config(1.0), (0,), 83.0)
        with pytest.raises(ValueError, match="t_max"):
            contact.check_sparse_span(threshold_config(1.0), (0,), 84.0)

    def test_finite_intervals_and_empty_starts_are_not_bounded(self, monkeypatch):
        monkeypatch.setattr(contact, "physical_memory_bytes", lambda: 0)
        contact.check_sparse_span(ContactConfig(3.0, length=5), (1,), 1e300)
        contact.check_sparse_span(ContactConfig(3.0), (), 1e300)


class TestRightEdge:
    def test_supercritical_edge_moves_right(self):
        est = right_edge_speed(2.0, t_max=40.0, trials=24, seed=9, left_depth=60)
        assert est.slope > 3 * est.stderr

    def test_edge_speed_sign_brackets_the_critical_rate(self):
        """The edge speed alpha(lam) is positive exactly when lam > lam_c
        (Durrett 1980), and 1.539 <= lam_c <= 1.942 (Liggett 1995), so
        alpha(1.5) < 0 < alpha(2).  The estimate is a surrogate for alpha: a
        finite horizon, and a half-line truncated at depth 400.  Seeds frozen
        when the test was written: z = -5.04 at lam = 1.5, +4.37 at lam = 2."""
        below = right_edge_speed(1.5, 80.0, 96, 9)
        above = right_edge_speed(2.0, 40.0, 24, 9)
        assert below.excluded_trials == above.excluded_trials == 0
        assert below.slope / below.stderr <= -4
        assert above.slope / above.stderr >= 4

    def test_pure_death_edge_retreats(self):
        # births never happen, so every per-trial slope is <= 0
        est = right_edge_speed(0.0, t_max=4.0, trials=24, seed=9)
        assert est.slope <= 0
        assert all(s <= 0 for s in est.trial_slopes)

    def test_clt_scaling_of_the_stderr(self):
        small = right_edge_speed(2.0, t_max=30.0, trials=12, seed=21, left_depth=50)
        big = right_edge_speed(2.0, t_max=30.0, trials=48, seed=21, left_depth=50)
        # quadrupling the trials should roughly halve the standard error
        assert big.stderr <= 0.5 * small.stderr * 1.35
        assert big.stderr >= 0.5 * small.stderr / 1.35

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_fewer_than_two_samples_refused(self, samples):
        # 0 would divide t_max by zero, and 1 fits two points at the same t
        with pytest.raises(ValueError, match="samples must be >= 2"):
            right_edge_speed(2.0, 4.0, 2, seed=9, samples=samples)

    def test_two_samples_fit(self):
        est = right_edge_speed(2.0, 4.0, 2, seed=9, samples=2)
        assert est.excluded_trials == 0 and len(est.trial_slopes) == 2

    def test_deterministic(self):
        a = right_edge_speed(1.0, t_max=10.0, trials=8, seed=3, left_depth=40)
        b = right_edge_speed(1.0, t_max=10.0, trials=8, seed=3, left_depth=40)
        assert a == b


class TestRng:
    def test_lane_streams_are_stable(self):
        a = trial_generator(7, 1, 2).random(4).tolist()
        b = trial_generator(7, 1, 2).random(4).tolist()
        assert a == b

    def test_lanes_differ(self):
        a = trial_generator(7, 1, 2).random(4).tolist()
        b = trial_generator(7, 1, 3).random(4).tolist()
        assert a != b

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            trial_generator(-1)
