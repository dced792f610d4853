import math

import numpy as np
import pytest

from stochlab.gaplab import cycle_graph
from stochlab.ipslab import (
    ContactConfig,
    TrialStats,
    VoterConfig,
    estimate_survival,
    right_edge_speed,
    simulate_contact,
    simulate_voter,
    tau_leap_occupancy,
    threshold_config,
    trial_generator,
)


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


class TestFixedStepCrossValidation:
    def test_event_driven_matches_tau_leap(self):
        # the two clock implementations agree on the mean occupancy
        cfg = ContactConfig(1.5, length=8)
        init = range(1, 9)
        trials = 2500
        t_max = 1.0
        ref = tau_leap_occupancy(cfg, init, t_max, 1e-3, trials, seed=17)
        event = np.array([
            len(simulate_contact(cfg, init, t_max, seed=100_000 + t).final_occupied)
            for t in range(trials)
        ])
        z = (event.mean() - ref.mean()) / math.sqrt(
            event.var(ddof=1) / trials + ref.var(ddof=1) / trials
        )
        assert abs(z) <= 3.0

    def test_event_driven_matches_tau_leap_threshold_mode(self):
        cfg = threshold_config(1.2, length=8)
        init = (3, 6)
        trials = 2500
        t_max = 1.0
        ref = tau_leap_occupancy(cfg, init, t_max, 1e-3, trials, seed=18)
        event = np.array([
            len(simulate_contact(cfg, init, t_max, seed=200_000 + t).final_occupied)
            for t in range(trials)
        ])
        z = (event.mean() - ref.mean()) / math.sqrt(
            event.var(ddof=1) / trials + ref.var(ddof=1) / trials
        )
        assert abs(z) <= 3.0

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

    def test_reference_validates_arguments(self):
        with pytest.raises(ValueError):
            tau_leap_occupancy(ContactConfig(1.0), (0,), 1.0, 1e-3, 10, seed=0)
        with pytest.raises(ValueError):
            tau_leap_occupancy(ContactConfig(400.0, length=4), (1,), 1.0, 1e-2, 10, seed=0)


class TestRightEdge:
    def test_supercritical_edge_moves_right(self):
        est = right_edge_speed(2.0, t_max=40.0, trials=24, seed=9, left_depth=60)
        assert est.slope > 3 * est.stderr

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
