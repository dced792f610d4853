"""One repetition of a workload in a fresh interpreter.

Run by ``run.py``; prints one JSON line.  Set-up ends when stochlab, its
three labs and the workload's inputs are ready; ``ready`` is read on the
system-wide monotonic clock so the parent can subtract its spawn time.
``wall_s`` runs from the first lab call to the last check.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stochlab  # noqa: E402
import workloads  # noqa: E402  (imports cli, colorlab, gaplab and ipslab)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(stochlab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"stochlab was imported from {stochlab.__file__}, not from {ROOT / 'src'}")

    build, jobs = workloads.WORKLOADS[args.workload]
    inputs = build(np.random.default_rng(args.seed))
    ready = time.monotonic()

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    ck = workloads.Checks()
    start = time.perf_counter()
    for name, job in jobs:
        ck.run(name, job, inputs)
    wall = time.perf_counter() - start

    layers = None
    if rec is not None:
        layers = tracing.layer_metrics(rec, workloads.color_memo_entries())
        rec.dump(ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.json")
        if args.probes:
            # after the metrics and the dump: probe calls are not workload spans
            probe_rng = np.random.default_rng([args.seed, 1])
            layers.update(workloads.run_probes(args.workload, probe_rng, ck))
    out = {
        "ready": ready,
        "wall_s": wall,
        "attempted": ck.attempted,
        "failures": ck.failures,
        "digest": hashlib.sha256(repr(ck.outputs).encode()).hexdigest(),
        "layers": layers,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
