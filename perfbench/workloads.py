"""The four fixed-work workloads and the checks that make each result verified.

Each workload has a function that makes its inputs and a list of jobs.
That function draws only weights, rates and sampler/simulator seeds from
the workload seed; sizes, graph skeletons, subset-size profiles and trial
counts are constants here, so every seed does the same work.  Every job asserts its result
against a fact that holds for any seed (exact rationals, identity flags,
the frozen ``ipslab.stats`` floors and z bound), and appends its seeded
outputs to ``Checks.outputs`` so repeated runs can be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import statistics
import time
from fractions import Fraction

import numpy as np

from stochlab import cli, colorlab, gaplab, ipslab


class Checks:
    """Counts checks attempted and failed; an exception fails its job."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: list = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def run(self, name, job, inputs) -> None:
        try:
            job(self, inputs)
        except Exception as exc:  # a raising job is one failed check
            self.attempted += 1
            self.failures.append(f"{name} raised {type(exc).__name__}: {exc}")


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63, size=count)]


def _weighted(n: int, edges, rng: np.random.Generator) -> gaplab.WeightedGraph:
    """Fixed skeleton, weights uniform on (0, 1] drawn from the seed."""
    return gaplab.WeightedGraph.from_edges(n, [(i, j, 1.0 - rng.random()) for i, j in edges])


# --- color-exact -------------------------------------------------------------

EQUIVALENCE_MAX_LEN = 7      # 4,373 proper q=4 words
NORMALIZER_QS = (3, 5)
NORMALIZER_MAX_LEN = 8
SAMPLE_LEN = 7               # inside the memoized lengths, so the memo size is seed-free
SAMPLE_COUNT = 1000


def color_inputs(rng):
    return {"sample_seed": int(rng.integers(0, 2**63))}


def color_equivalence(ck, inp):
    formula = colorlab.CylinderMeasure(4, "formula")
    recursion = colorlab.recursion_measure(4)
    words = mismatches = 0
    for n in range(EQUIVALENCE_MAX_LEN + 1):
        for w in colorlab.proper_words(4, n):
            words += 1
            mismatches += formula.prob(w) != recursion.prob(w)
    ck.expect("formula equals recursion", mismatches == 0 and words == 4373,
              f"{mismatches} mismatches over {words} words")


def color_normalizers(ck, inp):
    for q in NORMALIZER_QS:
        measure = colorlab.recursion_measure(q)
        for n in range(1, NORMALIZER_MAX_LEN + 1):
            got = measure.normalizer(n)
            ck.expect(f"normalizer q={q} n={n}", got == Fraction(1, n * (q - 2) + 2), str(got))


def color_cli_checkdep(ck, inp):
    argv = ["color", "check-dep", "--q", "4", "--k", "1", "--nmax", "7",
            "--expect", "holds=true"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code, report = cli.parse_and_dispatch(argv)
    ck.expect("cli check-dep exit 0", code == 0, f"exit {code}")
    ck.expect("cli check-dep prints the report", json.loads(out.getvalue())["holds"] is True)
    ck.outputs.append(report["pairsChecked"])


def color_witness(ck, inp):
    rep = colorlab.check_k_dependence(colorlab.recursion_measure(3), k=1, nmax=8)
    w = rep.witness
    ck.expect("q=3 is not 1-dependent", not rep.holds and w is not None)
    ck.expect("witness 2/15 != 1/9", w.joint == Fraction(2, 15) and w.product == Fraction(1, 9),
              f"{w.joint} vs {w.product}")
    ck.outputs.append((w.window, w.set_a, w.set_b, w.assignment, rep.pairs_checked))


def color_pushforward(ck, inp):
    pf = colorlab.EliminateFoursMeasure()
    rep = colorlab.check_k_dependence(pf, k=3, nmax=5)
    ck.expect("pushforward is 3-dependent to nmax=5", rep.holds)
    for n in range(1, 6):
        scaled, denom = pf.scaled_window(n)
        ck.expect(f"pushforward mass one n={n}", sum(scaled.values()) == denom)
    ck.outputs.append(rep.pairs_checked)


def color_sampling(ck, inp):
    words = colorlab.sample_windows(colorlab.recursion_measure(4), SAMPLE_LEN, SAMPLE_COUNT,
                                    inp["sample_seed"])
    ok = len(words) == SAMPLE_COUNT and all(
        len(w) == SAMPLE_LEN and colorlab.is_proper(w) and set(w) <= {1, 2, 3, 4} for w in words)
    ck.expect(f"samples are proper length-{SAMPLE_LEN} words", ok)
    ck.outputs.append(words)


def color_memo_entries() -> int:
    """Words memoized by the shared recursion measures (the empty word is
    their base case, not a memo entry) plus entries of the descent-law cache."""
    tables = sum(len(getattr(colorlab.recursion_measure(q), "table", ((),))) - 1
                 for q in (3, 4, 5))
    cache_info = getattr(colorlab.descent_set_probability, "cache_info", None)
    return tables + (cache_info().currsize if cache_info else 0)


# --- gap-spectra -------------------------------------------------------------

# fixed skeletons; only their weights come from the seed
SKELETONS_6 = [
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],                               # path
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],                       # cycle
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],                               # star
    [(i, j) for i in range(6) for j in range(i + 1, 6)],                    # complete
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],               # two triangles
    [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 5), (2, 5)],
]
HUB_SKELETONS = [
    (3, [(0, 1), (1, 2)]),
    (3, [(0, 1), (1, 2), (0, 2)]),
    (4, [(0, 1), (0, 2), (0, 3)]),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]),
    (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]),
]
# subset-size profile per hypergraph is fixed; only the rates are seeded
HYPER_SUBSETS = [
    (4, [(0, 1), (1, 2, 3), (0, 2, 3)]),
    (5, [(0, 1), (1, 2, 3), (2, 3, 4), (0, 1, 2, 3, 4)]),
    (5, [(0, 4), (0, 1, 2), (2, 3, 4), (1, 3)]),
    (6, [(0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 3, 5)]),
    (6, [(0, 1), (1, 2, 3, 4), (3, 4, 5), (0, 5)]),
]
SKELETONS_7 = [
    [(i, i + 1) for i in range(6)] + [(0, 6)],                              # cycle
    [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 5), (5, 6)],
]


WEIGHT_DRAWS_6 = 2     # seeded weightings per n=6 skeleton
WEIGHT_DRAWS_7 = 1


def gap_inputs(rng):
    return {
        "classes": [g for n in (2, 3, 4, 5) for g in gaplab.connected_graph_representatives(n)],
        "weighted6": [_weighted(6, e, rng) for e in SKELETONS_6 for _ in range(WEIGHT_DRAWS_6)],
        "hubs": [_weighted(n, e, rng) for n, e in HUB_SKELETONS],
        "hypers": [gaplab.HyperWeights(n, {frozenset(s): 1.0 - rng.random() for s in subsets})
                   for n, subsets in HYPER_SUBSETS],
        "weighted7": [_weighted(7, e, rng) for e in SKELETONS_7 for _ in range(WEIGHT_DRAWS_7)],
    }


def _check_report(ck, label, report):
    ok = report.identity_ok and report.exclusion_constant and report.contraction_ok
    ck.expect(f"gap identity {label}", ok, "; ".join(report.flags))
    ck.outputs.append((report.lambda_rw, report.lambda_ip, tuple(report.exclusion_gaps)))


def gap_reports(ck, inp):
    for idx, g in enumerate(inp["classes"] + inp["weighted6"]):
        _check_report(ck, f"n={g.n} #{idx}", gaplab.gap_report(g))


def gap_hub_forms(ck, inp):
    for g in inp["hubs"]:
        for hub in range(g.n):
            low, high = gaplab.extreme_eigenvalues(gaplab.octopus_form(g, hub).matrix)
            norm = max(abs(low), abs(high))
            ck.expect(f"hub form PSD n={g.n} hub={hub}", low >= -1e-9 * norm, f"{low} vs {norm}")
            ck.outputs.append(low)


def gap_pairs_shuffle(ck, inp):
    for g in inp["hubs"]:
        pairs = gaplab.HyperWeights(g.n, {frozenset({i, j}): w for i, j, w in g.edges()})
        shuffle = gaplab.alpha_shuffle_generator(pairs).dense()
        interchange = gaplab.interchange_generator(g).dense()
        err = float(np.abs(shuffle - 0.5 * interchange).max())
        ck.expect(f"pairs-only shuffle is half the interchange n={g.n}", err <= 1e-12, f"{err}")
        ck.outputs.append(err)


def gap_shuffle_comparison(ck, inp):
    for h in inp["hypers"]:
        out = gaplab.shuffle_gap_comparison(h)
        # the walk is a projection of the shuffle, so its gap bounds the
        # shuffle gap from above; their equality is the reported conjecture
        lam_s, lam_w = out["lambdaShuffle"], out["lambdaShuffleRW"]
        ck.expect(f"shuffle gap <= walk gap n={h.n}",
                  lam_s is not None and 0 < lam_s <= lam_w * (1 + gaplab.DEFAULT_RTOL),
                  f"{lam_s} vs {lam_w}")
        ck.outputs.append((lam_s, lam_w, out["shuffleIdentityOk"]))


def gap_large(ck, inp):
    # n=7 needs allow_large for as long as gap_report keeps a separate sparse path
    large = {"allow_large": True} if "allow_large" in inspect.signature(
        gaplab.gap_report).parameters else {}
    for idx, g in enumerate(inp["weighted7"]):
        _check_report(ck, f"n=7 #{idx}", gaplab.gap_report(g, **large))


# --- sim-many-trials -----------------------------------------------------------

DUALITY_TRIALS = 1500
DEATH_TRIALS = 1500
CONSENSUS_TRIALS = 150


def many_inputs(rng):
    return {
        "duality_graph": gaplab.cycle_graph(10),
        "death_cfg": ipslab.ContactConfig(0.0, length=11),
        "voter_cfg": ipslab.VoterConfig(gaplab.cycle_graph(20), rho=0.5),
        "seeds": _seeds(rng, 3),
    }


def many_duality(ck, inp):
    rep = ipslab.duality_check(inp["duality_graph"], (0, 1), t=2.0, rho=0.5,
                               trials=DUALITY_TRIALS, seed=inp["seeds"][0])
    ck.expect("duality |z| within the frozen bound", abs(rep.z_score) <= ipslab.DUALITY_Z_BOUND,
              f"z={rep.z_score}")
    ck.outputs.append(rep)


def many_death(ck, inp):
    est = ipslab.estimate_survival(inp["death_cfg"], 10.0, DEATH_TRIALS, seed=inp["seeds"][1])
    ck.expect("pure-death survival < 0.01", est.fraction < 0.01, f"{est.fraction}")
    ck.outputs.append(est)


def many_consensus(ck, inp):
    est = ipslab.consensus_rate(inp["voter_cfg"], 1e4, CONSENSUS_TRIALS, seed=inp["seeds"][2])
    ck.expect("consensus rate above the frozen floor", est.rate >= ipslab.CONSENSUS_RATE_FLOOR,
              f"{est.rate}")
    ck.outputs.append((est.rate, est.mean_time))


# --- sim-long-trajectories -----------------------------------------------------

LONG_L = 400
SUPER_TRIALS, SUPER_TMAX = 4, 60.0
THRESH_TRIALS, THRESH_TMAX = 3, 60.0
EDGE_TRIALS, EDGE_TMAX, EDGE_DEPTH = 10, 50.0, 100


def long_inputs(rng):
    return {
        "super_cfg": ipslab.ContactConfig(2.0, length=LONG_L),
        "thresh_cfg": ipslab.threshold_config(1.0, length=LONG_L),
        "full": tuple(range(1, LONG_L + 1)),
        "super_seeds": _seeds(rng, SUPER_TRIALS),
        "thresh_seeds": _seeds(rng, THRESH_TRIALS),
        "edge_seed": int(rng.integers(0, 2**63)),
    }


def _survival_from_full(ck, cfg, seeds, t_max, inp) -> float:
    runs = [ipslab.simulate_contact(cfg, inp["full"], t_max, seed=s) for s in seeds]
    ck.outputs.append([(r.n_events, r.final_occupied) for r in runs])
    return sum(r.alive_at_tmax for r in runs) / len(runs)


def long_supercritical(ck, inp):
    frac = _survival_from_full(ck, inp["super_cfg"], inp["super_seeds"], SUPER_TMAX, inp)
    ck.expect("rate-2 survival above the frozen floor",
              frac >= ipslab.SURVIVAL_FLOOR_SUPERCRITICAL, f"{frac}")


def long_threshold(ck, inp):
    frac = _survival_from_full(ck, inp["thresh_cfg"], inp["thresh_seeds"], THRESH_TMAX, inp)
    ck.expect("threshold rate-1 survival > 0", frac > 0, f"{frac}")


def long_edge_speed(ck, inp):
    est = ipslab.right_edge_speed(2.0, EDGE_TMAX, EDGE_TRIALS, inp["edge_seed"],
                                  left_depth=EDGE_DEPTH)
    ck.expect("rate-2 edge speed positive", est.slope > 0 and est.excluded_trials == 0,
              f"slope {est.slope}, excluded {est.excluded_trials}")
    ck.outputs.append(est.trial_slopes)


WORKLOADS = {
    "color-exact": (color_inputs, [
        ("equivalence", color_equivalence),
        ("normalizers", color_normalizers),
        ("cli-check-dep", color_cli_checkdep),
        ("witness", color_witness),
        ("pushforward", color_pushforward),
        ("sampling", color_sampling),
    ]),
    "gap-spectra": (gap_inputs, [
        ("reports", gap_reports),
        ("hub-forms", gap_hub_forms),
        ("pairs-shuffle", gap_pairs_shuffle),
        ("shuffle-comparison", gap_shuffle_comparison),
        ("sparse-n7", gap_large),
    ]),
    "sim-many-trials": (many_inputs, [
        ("duality", many_duality),
        ("pure-death", many_death),
        ("consensus", many_consensus),
    ]),
    "sim-long-trajectories": (long_inputs, [
        ("supercritical", long_supercritical),
        ("threshold", long_threshold),
        ("edge-speed", long_edge_speed),
    ]),
}


# --- ipslab probes: traced runs only, outside the timed jobs -------------------

FIRST_DRAWS = 256
VOTER_PROBE_TRIALS = 40
SPEEDUP_TRIALS = 2000


def _first_draw_us(ck, rng) -> float:
    """Median cost of the first uniform a fresh per-trial stream hands out."""
    seed = int(rng.integers(0, 2**63))
    costs = []
    for trial in range(FIRST_DRAWS):
        buf = ipslab.UniformBuffer(ipslab.trial_generator(seed, 0, trial))
        start = time.perf_counter()
        buf.next()
        costs.append(time.perf_counter() - start)
    return statistics.median(costs) * 1e6


def _voter_events_per_s(ck, rng) -> float:
    cfg = ipslab.VoterConfig(gaplab.cycle_graph(20), rho=0.5)
    events = 0
    start = time.perf_counter()
    for seed in _seeds(rng, VOTER_PROBE_TRIALS):
        events += ipslab.simulate_voter(cfg, 1e4, seed=seed).n_events
    return events / (time.perf_counter() - start)


def _duality_speedup_w2(ck, rng) -> float:
    """Duality at 2 workers vs 1; informational, and the reports must agree."""
    seed = int(rng.integers(0, 2**63))
    elapsed, reports = [], []
    for workers in (1, 2):
        start = time.perf_counter()
        reports.append(ipslab.duality_check(gaplab.cycle_graph(10), (0, 1), 2.0, 0.5,
                                            SPEEDUP_TRIALS, seed, workers=workers))
        elapsed.append(time.perf_counter() - start)
    ck.expect("duality report independent of workers", reports[0] == reports[1])
    return elapsed[0] / elapsed[1]


PROBES = {
    "sim-many-trials": [("ipslab.rng.first_draw_us", _first_draw_us),
                        ("ipslab.voter.events_per_s", _voter_events_per_s),
                        ("ipslab.duality.speedup_w2", _duality_speedup_w2)],
    "sim-long-trajectories": [("ipslab.rng.first_draw_us", _first_draw_us)],
}


def run_probes(workload: str, rng, ck: Checks) -> dict[str, float]:
    out = {}
    for metric, probe in PROBES.get(workload, []):
        ck.run(f"probe {metric}",
               lambda c, r, m=metric, p=probe: out.__setitem__(m, p(c, r)), rng)
    return out
