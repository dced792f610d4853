"""stochlab benchmark: fixed-work verification workloads, timed to a checked result.

    python3 perfbench/run.py --workload color-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; stochlab is imported from ``src/``.
Each repetition of a workload is a fresh interpreter (``rep.py``), so memos
and caches start cold as they do for a command-line user.  Repetitions run
one after another until ``--seconds`` have passed (at least five), and
the end-to-end metrics are their medians.  With ``--trace 1`` the run
mixes an untraced repetition with traced ones and reports per-layer
metrics instead.  The last line of stdout is the result object; the line
before it holds provenance and per-repetition detail.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_UNITS  # noqa: E402

WORKLOADS = ("color-exact", "gap-spectra", "sim-many-trials", "sim-long-trajectories")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
BLAS_THREADS = "1"
MIN_REPS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# work counts that no seed may change, and the one that may move a little
FIXED_COUNTS = ("colorlab.dependence.pairs", "colorlab.memo_entries", "gaplab.states", "gaplab.nnz")
EVENTS = "ipslab.contact.events"
EVENTS_SEED_TOLERANCE = 0.05


class RepFailed(RuntimeError):
    """A repetition crashed or overran; no measurement can be reported."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_rep(workload: str, seed: int, traced: bool, probes: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--probes", str(int(probes))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{workload} seed {seed} did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep.pop("ready") - spawned
    rep.update(seed=seed, traced=traced)
    return rep


def consistency_checks(reps: list[dict], seed: int, trace: bool) -> list[tuple[str, bool]]:
    """Determinism across repetitions, and fixed work across seeds."""
    checks = []
    for s in sorted({r["seed"] for r in reps}):
        same = [r for r in reps if r["seed"] == s]
        for r in same[1:]:
            checks.append((f"seed {s}: seeded outputs repeat bit for bit",
                           r["digest"] == same[0]["digest"]))
        traced = [r["layers"] for r in same if r["traced"]]
        for layers in traced[1:]:
            for key in FIXED_COUNTS + (EVENTS,):
                checks.append((f"seed {s}: {key} repeats", layers[key] == traced[0][key]))
    if trace:
        a, b = (next(r["layers"] for r in reps if r["traced"] and r["seed"] == s)
                for s in (seed, seed + 1))
        for key in FIXED_COUNTS:
            checks.append((f"{key} is the same for seeds {seed} and {seed + 1}", a[key] == b[key]))
        spread = abs(a[EVENTS] - b[EVENTS])
        checks.append((f"{EVENTS} within {EVENTS_SEED_TOLERANCE:.0%} across seeds",
                       spread <= EVENTS_SEED_TOLERANCE * max(a[EVENTS], b[EVENTS])))
    return checks


def end_to_end_metrics(reps: list[dict]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in reps) for name in END_TO_END_UNITS}


def layer_metrics(reps: list[dict], seed: int) -> dict[str, float]:
    traced = [r for r in reps if r["traced"] and r["seed"] == seed]
    untraced = [r for r in reps if not r["traced"] and r["seed"] == seed]
    out = {}
    for name in LAYER_UNITS:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        out[name] = statistics.median(values) if values else 0.0
    out["trace_overhead"] = (statistics.median(r["wall_s"] for r in traced)
                             / statistics.median(r["wall_s"] for r in untraced) - 1)
    return out


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_in_child": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "argv": sys.argv,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "stochlab" / "__init__.py").is_file():
        print(f"error: no stochlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    if args.trace:
        # untraced and traced at one seed for the overhead and the bit-for-bit
        # comparison, a second traced run for repeated counts, a second seed
        # for the fixed-work check
        plan = [(args.seed, False, False), (args.seed, True, True),
                (args.seed, True, False), (args.seed + 1, True, False)]
    else:
        plan = [(args.seed, False, False)]
    reps: list[dict] = []
    try:
        while len(reps) < MIN_REPS or time.monotonic() - started < args.seconds:
            for seed, traced, probes in plan:
                reps.append(run_rep(args.workload, seed, traced, probes, deadline))
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = consistency_checks(reps, args.seed, bool(args.trace))
    failures = [f for r in reps for f in r["failures"]] + [name for name, ok in checks if not ok]
    attempted = sum(r["attempted"] for r in reps) + len(checks)
    if args.trace:
        values, units = layer_metrics(reps, args.seed), LAYER_UNITS
    else:
        values, units = end_to_end_metrics(reps), END_TO_END_UNITS
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    detail = {
        "provenance": provenance(args),
        "reps": [{k: r[k] for k in ("seed", "traced", "wall_s", "setup_s", "peak_rss_mib",
                                    "attempted", "digest")} for r in reps],
        "failures": failures,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
