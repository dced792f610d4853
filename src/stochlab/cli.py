"""Command-line interface: exact coloring queries, gap reports, simulators.

Subcommands are grouped as ``color``, ``gap``, and ``sim``.  Every run
prints its primary result to stdout (a rational, sampled words, or a JSON
report) and can write the full JSON report with ``--out``.  Exit codes:
0 success, 1 a ``--expect`` assertion failed, 2 argument or input errors.

Words on the command line are digit strings ("1213"); wildcard positions
are dots ("1.3").  Rationals print as "p/q" in lowest terms.  Seeds fully
determine stochastic output: the stream of one trial is
``Generator(Philox(SeedSequence((seed, *lane, trial))))``; estimators derive
a chunk's keys in bulk and reseat one Philox per chunk, with the same values
at any worker count, and ``--trials`` is capped at 2**32 (one 32-bit entropy
word per trial index).  Random-number blocks grow from 64 to 8192 uniforms
without changing the values drawn.  ``--config`` files key values by flag name,
with ``_`` for inner dashes (``lambda``, ``edge_speed = true``, ``left_depth``).
``sim contact`` and ``sim duality`` take ``--parallel`` (or
the LIGGETT_LAB_THREADS environment variable; either must be >= 1) and
split trials across at most one process per CPU and per chunk of trials,
without changing the reported numbers, because the reduction replays
results in trial order.  No other subcommand accepts ``--parallel``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import colorlab, gaplab, ipslab
from .gaplab import CapacityError, GraphFormatError, ReducibilityError


# --- small helpers ----------------------------------------------------------

def parse_word(text: str, q: int) -> tuple[int, ...]:
    letters = []
    for ch in text:
        if not ch.isdigit() or ch == "0":
            raise ValueError(f"words are digit strings over 1..{q}, got {text!r}")
        letters.append(int(ch))
    for a in letters:
        if a > q:
            raise ValueError(f"letter {a} outside 1..{q} in {text!r}")
    return tuple(letters)


def parse_pattern(text: str, q: int) -> tuple[int | None, ...]:
    out: list[int | None] = []
    for ch in text:
        if ch == ".":
            out.append(None)
        elif ch.isdigit() and ch != "0" and int(ch) <= q:
            out.append(int(ch))
        else:
            raise ValueError(f"patterns use digits 1..{q} and '.', got {text!r}")
    return tuple(out)


def format_word(letters) -> str:
    return "".join(str(a) for a in letters)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()  # numpy scalars
        except Exception:
            return value
    return value


def _flatten(prefix: str, value, out: dict[str, str]):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            text = json.dumps(_jsonable(value), separators=(",", ":"))
        else:
            text = str(value)
        out[prefix] = text


def resolve_workers(args) -> int:
    if args.parallel is not None:
        if args.parallel < 1:
            raise ValueError(f"--parallel must be >= 1, got {args.parallel}")
        return args.parallel
    env = os.environ.get("LIGGETT_LAB_THREADS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"LIGGETT_LAB_THREADS must be an integer, got {env!r}")
    if workers < 1:
        raise ValueError(f"LIGGETT_LAB_THREADS must be >= 1, got {env!r}")
    return workers


def _apply_config_file(args):
    """key=value files supply defaults for flags the user left unset."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            attr = "lam" if key == "lambda" else key.replace("-", "_")  # --lambda sets lam
            if not hasattr(args, attr):
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            if getattr(args, attr) is None:
                kind = _CONFIG_TYPES.get(attr, str)
                try:
                    setattr(args, attr, kind(value))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} must be {kind.__name__}, "
                                     f"got {value!r}") from None


def boolean(text: str) -> bool:
    """A config-file truth value: true/false, yes/no, on/off or 1/0."""
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


_CONFIG_TYPES = {
    "lam": float, "L": int, "tmax": float, "trials": int, "seed": int,
    "rho": float, "t": float, "mode": str, "graph": str, "set": str,
    "parallel": int, "edge_speed": boolean, "left_depth": int,
}


def physical_memory_bytes() -> int:
    """Installed memory, the bound on the tables ``color`` commands build."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _recursion_measure(q: int, length: int, flag: str):
    """The shared recursion measure, once its memo through ``length`` is
    known to fit in physical memory (exit 2 naming ``flag`` otherwise)."""
    have = physical_memory_bytes()
    if not colorlab.memo_fits(q, length, have):
        raise ValueError(f"{flag}: length {length} at --q {q} needs a recursion memo larger "
                         f"than the {have / 2**30:.1f} GiB of physical memory")
    return colorlab.recursion_measure(q)


# --- color subcommands -------------------------------------------------------

def cmd_color_prob(args):
    word = parse_word(args.word, args.q)
    if args.source == "formula":
        value = colorlab.formula_cylinder_probability(word)
    else:
        value = _recursion_measure(args.q, len(word), "--word").prob(word)
    return {"value": str(value)}, str(value)


def cmd_color_checkdep(args):
    measure = colorlab.recursion_measure(args.q)
    have = physical_memory_bytes()
    # (q+1)**nmax >= 2**nmax: a huge nmax is refused before the power is formed
    if (args.nmax >= have.bit_length()
            or colorlab.dependence.marginal_table_bytes(args.q, args.nmax) > have):
        raise ValueError(f"--nmax {args.nmax} is too large at --q {args.q}: its marginal "
                         f"tables need more than the {have / 2**30:.1f} GiB of physical memory")
    report = colorlab.check_k_dependence(measure, args.k, args.nmax)
    payload = report.to_dict()
    return payload, json.dumps(_jsonable(payload), indent=2)


def cmd_color_marginal(args):
    pattern = parse_pattern(args.pattern, args.q)
    value = colorlab.marginalize(_recursion_measure(args.q, len(pattern), "--pattern"), pattern)
    return {"value": str(value)}, str(value)


def cmd_color_sample(args):
    words = colorlab.sample_windows(
        _recursion_measure(args.q, args.n, "--n"), args.n, args.count, args.seed
    )
    text = "\n".join(format_word(w) for w in words)
    return {"words": [format_word(w) for w in words], "seed": args.seed}, text


def cmd_color_pushforward(args):
    dist = colorlab.eliminate_fours_pushforward(args.n)
    payload = {
        "distribution": {format_word(w): str(p) for w, p in sorted(dist.items())},
        "mass": str(sum(dist.values())),
    }
    return payload, json.dumps(_jsonable(payload), indent=2)


# --- gap subcommands ---------------------------------------------------------

def cmd_gap_report(args):
    net = gaplab.parse_graph_file(args.graph)
    hyper = net.hyper if (args.shuffle and net.hyper.rates) else None
    report = gaplab.gap_report(net.graph, hyper=hyper, tol_zero=args.tol_zero,
                               rtol=args.rtol)
    payload = report.to_dict()
    return payload, json.dumps(_jsonable(payload), indent=2)


def cmd_gap_reduce(args):
    net = gaplab.parse_graph_file(args.graph)
    reduced = gaplab.reduce_vertex(net.graph, args.vertex)
    text = gaplab.format_network(reduced)
    payload = {
        "n": reduced.n,
        "edges": [[i, j, w] for i, j, w in reduced.edges()],
        "network": text,
    }
    return payload, text.rstrip("\n")


def cmd_gap_octopus(args):
    net = gaplab.parse_graph_file(args.graph)
    low, high = gaplab.octopus_extremes(net.graph, args.vertex)
    norm = max(abs(low), abs(high))
    payload = {
        "vertex": args.vertex,
        "minEigenvalue": low,
        "norm": norm,
        "psd": bool(low >= -1e-9 * norm),
    }
    return payload, json.dumps(_jsonable(payload), indent=2)


def cmd_gap_shuffle(args):
    net = gaplab.parse_graph_file(args.graph)
    if not net.hyper.rates:
        raise ValueError(f"{args.graph} has no 'h' records; the shuffle needs subset rates")
    payload = gaplab.shuffle_gap_comparison(net.hyper, tol_zero=args.tol_zero,
                                            rtol=args.rtol)
    return payload, json.dumps(_jsonable(payload), indent=2)


# --- sim subcommands ---------------------------------------------------------

def _require(args, names):
    """Every named option is given, a float one is finite, and --trials is in
    1..2**32 (one 32-bit entropy word per trial index)."""
    for name in names:
        value = getattr(args, name)
        flag = "--lambda" if name == "lam" else f"--{name.replace('_', '-')}"
        if value is None:
            raise ValueError(f"missing required option {flag}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
        if name == "trials" and not 1 <= value <= ipslab.MAX_TRIALS:
            raise ValueError(f"{flag} must be in 1..2**32, got {value}")


def cmd_sim_contact(args):
    _apply_config_file(args)
    args.edge_speed = bool(args.edge_speed)
    if args.left_depth is None:
        args.left_depth = ipslab.DEFAULT_LEFT_DEPTH
    _require(args, ["lam", "tmax", "trials", "seed"])
    workers = resolve_workers(args)
    if args.edge_speed:
        if args.left_depth < 0:
            raise ValueError(f"--left-depth must be >= 0, got {args.left_depth}")
        est = ipslab.right_edge_speed(args.lam, args.tmax, args.trials, args.seed,
                                      left_depth=args.left_depth)
        if args.csv:
            _write_csv(args.csv, ("trial", "t", "right_edge"), est.stats.right_edge_samples)
        return est.to_dict(), json.dumps(_jsonable(est.to_dict()), indent=2)
    _require(args, ["L"])
    if args.mode == "threshold":
        cfg = ipslab.threshold_config(args.lam, args.L)
    else:
        cfg = ipslab.ContactConfig(args.lam, args.L)
    est = ipslab.estimate_survival(cfg, args.tmax, args.trials, args.seed, workers=workers)
    if args.csv:
        out = ipslab.simulate_contact(cfg, ipslab.center_seed(cfg), args.tmax,
                                      args.seed, record_dt=args.tmax / 100)
        _write_csv(args.csv, ("t", "right_edge"),
                   [(t, "" if e is None else e) for t, e in out.right_edge_path])
    return est.to_dict(), json.dumps(_jsonable(est.to_dict()), indent=2)


def cmd_sim_voter(args):
    _apply_config_file(args)
    _require(args, ["graph", "rho", "tmax", "trials", "seed"])
    net = gaplab.parse_graph_file(args.graph)
    cfg = ipslab.VoterConfig(net.graph, rho=args.rho)
    est = ipslab.consensus_rate(cfg, args.tmax, args.trials, args.seed)
    if args.csv:
        out = ipslab.simulate_voter(cfg, args.tmax, args.seed, record_dt=args.tmax / 100)
        _write_csv(args.csv, ("t", "ones_fraction"), out.ones_path)
    return est.to_dict(), json.dumps(_jsonable(est.to_dict()), indent=2)


def cmd_sim_duality(args):
    _apply_config_file(args)
    _require(args, ["graph", "set", "t", "rho", "trials", "seed"])
    net = gaplab.parse_graph_file(args.graph)
    target = tuple(int(s) for s in args.set.split(",") if s != "")
    workers = resolve_workers(args)
    rep = ipslab.duality_check(net.graph, target, args.t, args.rho, args.trials,
                               args.seed, workers=workers)
    return rep.to_dict(), json.dumps(_jsonable(rep.to_dict()), indent=2)


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochlab",
        description="exact coloring measures, spectral-gap identities, and particle-system simulation",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def common(sub):
        sub.add_argument("--out", help="write the full JSON report to this file")
        sub.add_argument("--expect", action="append", default=[],
                         metavar="KEY=VALUE", help="assert a report field (exit 1 on mismatch)")

    def parallel(sub):
        sub.add_argument("--parallel", type=int, default=None,
                         help="worker processes (default: LIGGETT_LAB_THREADS or 1)")

    color = parser_group(top, "color", "exact coloring measure queries")

    p = color.add_parser("prob", help="cylinder probability of a word")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--word", required=True)
    p.add_argument("--source", choices=["recursion", "formula"], default="recursion")
    common(p)
    p.set_defaults(handler=cmd_color_prob, op="color.prob")

    p = color.add_parser("check-dep", help="exhaustive k-dependence check")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_color_checkdep, op="color.check-dep")

    p = color.add_parser("marginal", help="marginal probability of a dotted pattern")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--pattern", required=True)
    common(p)
    p.set_defaults(handler=cmd_color_marginal, op="color.marginal")

    p = color.add_parser("sample", help="draw words from the window law")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    common(p)
    p.set_defaults(handler=cmd_color_sample, op="color.sample")

    p = color.add_parser("pushforward", help="three-color image of the 4-color measure")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_color_pushforward, op="color.pushforward")

    gap = parser_group(top, "gap", "generator spectra on weighted graphs")

    p = gap.add_parser("report", help="walk, interchange, and exclusion gaps")
    p.add_argument("--graph", required=True)
    p.add_argument("--shuffle", action="store_true", help="include the subset-shuffle comparison")
    p.add_argument("--tol-zero", type=float, default=gaplab.DEFAULT_TOL_ZERO)
    p.add_argument("--rtol", type=float, default=gaplab.DEFAULT_RTOL)
    common(p)
    p.set_defaults(handler=cmd_gap_report, op="gap.report")

    p = gap.add_parser("reduce", help="remove one vertex, redistributing conductances")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_gap_reduce, op="gap.reduce")

    p = gap.add_parser("octopus", help="eigen-bounds of the hub comparison form")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_gap_octopus, op="gap.octopus")

    p = gap.add_parser("shuffle", help="subset-shuffle gap vs its single-particle walk")
    p.add_argument("--graph", required=True)
    p.add_argument("--tol-zero", type=float, default=gaplab.DEFAULT_TOL_ZERO)
    p.add_argument("--rtol", type=float, default=gaplab.DEFAULT_RTOL)
    common(p)
    p.set_defaults(handler=cmd_gap_shuffle, op="gap.shuffle")

    sim = parser_group(top, "sim", "continuous-time Monte Carlo")

    p = sim.add_parser("contact", help="contact process survival or edge speed")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--L", type=int, help="interval length (survival mode)")
    p.add_argument("--tmax", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["standard", "threshold"], default=None)
    p.add_argument("--edge-speed", action="store_true", default=None,
                   help="half-line start; fit the right-edge speed instead")
    p.add_argument("--left-depth", type=int, default=None,
                   help=f"--edge-speed start depth (default {ipslab.DEFAULT_LEFT_DEPTH})")
    p.add_argument("--csv", help="write a trajectory CSV here")
    p.add_argument("--config", help="key=value file with defaults")
    common(p)
    parallel(p)
    p.set_defaults(handler=cmd_sim_contact, op="sim.contact")

    p = sim.add_parser("voter", help="voter model consensus statistics")
    p.add_argument("--graph")
    p.add_argument("--rho", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--csv", help="write a trajectory CSV here")
    p.add_argument("--config", help="key=value file with defaults")
    common(p)
    p.set_defaults(handler=cmd_sim_voter, op="sim.voter")

    p = sim.add_parser("duality", help="voter vs coalescing-walk two-sample check")
    p.add_argument("--graph")
    p.add_argument("--set", help="comma-separated target vertices, e.g. 0,1")
    p.add_argument("--t", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="key=value file with defaults")
    common(p)
    parallel(p)
    p.set_defaults(handler=cmd_sim_duality, op="sim.duality")

    return parser


def parser_group(top, name, help_text):
    sub = top.add_parser(name, help=help_text)
    return sub.add_subparsers(dest="command", required=True)


def _inputs_dict(args) -> dict:
    skip = {"handler", "op", "group", "command", "out", "expect"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value
    return out


def parse_and_dispatch(argv) -> tuple[int, dict | None]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None

    started = time.perf_counter()
    try:
        payload, text = args.handler(args)
    except (ValueError, CapacityError, GraphFormatError, ReducibilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None

    report = {"op": args.op, "inputs": _inputs_dict(args)}
    report.update(payload)
    report["elapsed_ms"] = (time.perf_counter() - started) * 1e3
    report = _jsonable(report)

    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    flat: dict[str, str] = {}
    _flatten("", report, flat)
    failed = []
    for expectation in args.expect:
        if "=" not in expectation:
            print(f"error: --expect needs KEY=VALUE, got {expectation!r}", file=sys.stderr)
            return 2, report
        key, want = expectation.split("=", 1)
        got = flat.get(key)
        if got != want:
            failed.append(f"expected {key}={want!r}, report has {got!r}")
    if failed:
        for line in failed:
            print(f"check failed: {line}", file=sys.stderr)
        return 1, report
    return 0, report


def main(argv=None):
    code, _ = parse_and_dispatch(sys.argv[1:] if argv is None else argv)
    sys.exit(code)


if __name__ == "__main__":
    main()
