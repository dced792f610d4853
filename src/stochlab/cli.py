"""Command-line interface: exact coloring queries, gap reports, simulators.

Subcommands are grouped as ``color``, ``gap``, and ``sim``.  Every run
prints its primary result to stdout (a rational, sampled words, the reduced
network, or a JSON report) and can write the full JSON report with ``--out``.
Reports are strict JSON: a value with no JSON number, such as the standard
error of a single fitted slope, is ``null``.  Exit codes: 0 success, 1 a
``--expect`` assertion failed, 2 argument or input errors, 3 an internal
or numerical failure (any other exception, such as
``NormalizerMismatchError`` or ``MemoryError``, reported as one line
``internal error: <Type>: <message>`` on stderr with no traceback), 141
(128 + SIGPIPE) when the reader closes stdout before the output is written.

Each option is declared once, as an ``_Opt`` in ``_COMMANDS``: flag,
converter, default and domain.  The parser, the ``--config`` loader and one
check after merging all read it, so a config value is converted and checked
like the same flag, and an out-of-domain value exits 2 naming the flag
before any work starts.  So does an option the run would not read (``--L``
with ``--edge-speed``), so a report's ``inputs`` lists only options the run
read.  A ``--config`` file (``sim`` commands) holds
``key = value`` lines for options the command line left unset, keyed by the
flag name with ``_`` for inner dashes (``lambda``, ``edge_speed = true``)
or by the attribute name (``lam``).

Words are digit strings ("1213"); wildcard positions are dots ("1.3").
Rationals print as "p/q" in lowest terms.  Seeds fully determine stochastic
output (``ipslab.rng`` defines the per-trial streams), and ``--trials`` is
capped at 2**32, one 32-bit entropy word per trial index.  ``sim contact``
survival runs and ``sim duality`` take ``--parallel`` (>= 1, default 1) and split trials
across at most one process per CPU and per chunk of trials; the reduction
replays results in trial order, so the reported numbers do not change.
gaplab's zero threshold and identity tolerance are fixed
(``gaplab.DEFAULT_TOL_ZERO``, ``gaplab.DEFAULT_RTOL``), so no option can
loosen a verdict; the gap reports carry them as ``tolZero`` and ``rtol``.
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
from .memory import physical_memory_bytes


# --- small helpers ----------------------------------------------------------

def _letters(q: int) -> set[str]:
    """The digits a word over 1..q may use."""
    return set("123456789"[:max(q, 0)])


def parse_word(text: str, q: int) -> tuple[int, ...]:
    if not set(text) <= _letters(q):
        raise ValueError(f"words are digit strings over 1..{q}, got {text!r}")
    return tuple(map(int, text))


def parse_pattern(text: str, q: int) -> tuple[int | None, ...]:
    if not set(text) <= _letters(q) | {"."}:
        raise ValueError(f"patterns use digits 1..{q} and '.', got {text!r}")
    return tuple(None if ch == "." else int(ch) for ch in text)


def format_word(letters) -> str:
    names = {a: str(a) for a in set(letters)}  # one string per color, not per letter
    return "".join(map(names.__getitem__, letters))


def _dumps(value) -> str:
    """The one report writer: strict JSON, Fractions as "p/q", numpy scalars
    as Python numbers."""
    return json.dumps(value, indent=2, allow_nan=False,
                      default=lambda v: str(v) if isinstance(v, Fraction) else v.item())


def _flatten(prefix: str, value, out: dict[str, str]):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, list):
            text = json.dumps(value, separators=(",", ":"))
        else:
            text = str(value)
        out[prefix] = text


def boolean(text: str) -> bool:
    """A config-file truth value: true/false, yes/no, on/off or 1/0."""
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


def _recursion_measure(q: int, length: int, flag: str):
    """The shared recursion measure, once its memo through ``length`` is
    known to fit in physical memory (exit 2 naming ``flag`` otherwise)."""
    have = physical_memory_bytes()
    if not colorlab.memo_fits(q, length, have):
        raise ValueError(f"{flag}: length {length} at --q {q} needs a recursion memo larger "
                         f"than the {have / 2**30:.1f} GiB of physical memory")
    return colorlab.recursion_measure(q)


def _vertices(text: str) -> tuple[int, ...]:
    """A --set value such as "0,2"; empty items are skipped."""
    return tuple(int(s) for s in text.split(",") if s != "")


def _in_graph(graph, vertices, name: str):
    """Exit-2 check of vertices against the graph the handler just parsed."""
    for v in vertices:
        if v >= graph.n:
            raise ValueError(f"{name} {v} outside 0..{graph.n - 1}")


def _hub_degree(graph, v: int) -> int:
    """The degree of --vertex, after exit-2 checks that it is in the graph and not isolated."""
    _in_graph(graph, (v,), "--vertex")
    if not (degree := int((graph.weights[v] > 0).sum())):
        raise ValueError(f"--vertex {v} is isolated")
    return degree


# --- color subcommands -------------------------------------------------------
# A handler returns (payload, text): text is what stdout shows, or None when
# stdout shows the payload as JSON.

def cmd_color_prob(args):
    word = parse_word(args.word, args.q)
    if args.source == "formula":
        have = physical_memory_bytes()
        if colorlab.measure.formula_table_bytes(word) > have:
            raise ValueError(f"--word: the formula's Dyck-word table for this word is larger "
                             f"than the {have / 2**30:.1f} GiB of physical memory")
        measure = colorlab.CylinderMeasure(args.q, "formula")
    else:
        measure = _recursion_measure(args.q, len(word), "--word")
    value = measure.prob(word)
    return {"value": str(value)}, str(value)


def cmd_color_checkdep(args):
    measure = colorlab.recursion_measure(args.q)
    have = physical_memory_bytes()
    # (q+1)**nmax >= 2**nmax: a huge nmax is refused before the power is formed
    if (args.nmax >= have.bit_length()
            or colorlab.dependence.check_bytes(args.q, args.k, args.nmax) > have):
        raise ValueError(f"--nmax {args.nmax} is too large at --q {args.q}: its marginal "
                         f"tables and windows need more than the {have / 2**30:.1f} GiB "
                         "of physical memory")
    return colorlab.check_k_dependence(measure, args.k, args.nmax).to_dict(), None


def cmd_color_marginal(args):
    pattern = parse_pattern(args.pattern, args.q)
    value = colorlab.marginalize(_recursion_measure(args.q, len(pattern), "--pattern"), pattern)
    return {"value": str(value)}, str(value)


def cmd_color_sample(args):
    have = physical_memory_bytes()
    # tracemalloc peaks at about 27 bytes per letter for one long word (the
    # insertion list, its tuple and its string), and at up to 90 per word plus
    # 14 per letter over many words (tuples, strings and the report)
    if (16 * args.count + 64) * (args.n + 16) > have:
        raise ValueError(f"--n: length {args.n} for --count {args.count} words needs more "
                         f"than the {have / 2**30:.1f} GiB of physical memory")
    words = colorlab.sample_windows(colorlab.recursion_measure(args.q), args.n, args.count,
                                    args.seed)
    lines = [format_word(w) for w in words]
    return {"words": lines, "seed": args.seed}, "\n".join(lines)


def cmd_color_pushforward(args):
    have = physical_memory_bytes()
    # the int64 source window of length n+2 and the image index of each of its
    # proper words: 17-21 bytes per source entry at peak (n = 7..9), charged 24
    if args.n + 2 >= have.bit_length() or 24 * 4 ** (args.n + 2) > have:
        raise ValueError(f"--n: length {args.n} needs a length-{args.n + 2} source window "
                         f"larger than the {have / 2**30:.1f} GiB of physical memory")
    dist = colorlab.EliminateFoursMeasure().window(args.n)
    return {
        "distribution": {format_word(w): str(p) for w, p in sorted(dist.items())},
        "mass": str(sum(dist.values())),
    }, None


# --- gap subcommands ---------------------------------------------------------

def cmd_gap_report(args):
    net = gaplab.parse_graph_file(args.graph)
    if args.shuffle and not net.hyper.rates:
        raise ValueError(f"--shuffle: {args.graph} has no 'h' records; the shuffle needs "
                         "subset rates")
    report = gaplab.gap_report(net.graph, hyper=net.hyper if args.shuffle else None)
    return report.to_dict(), None


def cmd_gap_reduce(args):
    net = gaplab.parse_graph_file(args.graph)
    _hub_degree(net.graph, args.vertex)
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
    degree, cap = _hub_degree(net.graph, args.vertex), gaplab.irreps.MAX_VERTICES
    if degree + 1 > cap:  # the hub form is solved on the star {vertex} u N(vertex)
        raise CapacityError(f"--vertex {args.vertex} has degree {degree}: its star of "
                            f"{degree + 1} vertices exceeds the irrep blocks' 2 to {cap} vertices")
    low, high = gaplab.octopus_extremes(net.graph, args.vertex)
    norm = max(abs(low), abs(high))
    return {
        "vertex": args.vertex,
        "minEigenvalue": low,
        "norm": norm,
        "psd": bool(low >= -1e-9 * norm),
    }, None


def cmd_gap_shuffle(args):
    net = gaplab.parse_graph_file(args.graph)
    if not net.hyper.rates:
        raise ValueError(f"{args.graph} has no 'h' records; the shuffle needs subset rates")
    return {**gaplab.shuffle_gap_comparison(net.hyper), "tolZero": gaplab.DEFAULT_TOL_ZERO,
            "rtol": gaplab.DEFAULT_RTOL}, None


# --- sim subcommands ---------------------------------------------------------

def cmd_sim_contact(args):
    if args.edge_speed:
        ipslab.contact.check_sparse_span(ipslab.ContactConfig(args.lam),
                                         range(-args.left_depth, 1), args.tmax, "--tmax")
        est = ipslab.right_edge_speed(args.lam, args.tmax, args.trials, args.seed,
                                      left_depth=args.left_depth)
        if args.csv:
            _write_csv(args.csv, ("trial", "t", "right_edge"), est.stats.right_edge_samples)
        return est.to_dict(), None
    make = ipslab.threshold_config if args.mode == "threshold" else ipslab.ContactConfig
    cfg = make(args.lam, args.L)
    ipslab.contact.check_sparse_span(cfg, ipslab.center_seed(cfg), args.tmax, "--tmax")
    est = ipslab.estimate_survival(cfg, args.tmax, args.trials, args.seed,
                                   workers=args.parallel or 1)
    if args.csv:
        out = ipslab.simulate_contact(cfg, ipslab.center_seed(cfg), args.tmax,
                                      args.seed, record_dt=args.tmax / 100)
        _write_csv(args.csv, ("t", "right_edge"),
                   [(t, "" if e is None else e) for t, e in out.right_edge_path])
    return est.to_dict(), None


def cmd_sim_voter(args):
    net = gaplab.parse_graph_file(args.graph)
    cfg = ipslab.VoterConfig(net.graph, rho=args.rho)
    est = ipslab.consensus_rate(cfg, args.tmax, args.trials, args.seed)
    if args.csv:
        out = ipslab.simulate_voter(cfg, args.tmax, args.seed, record_dt=args.tmax / 100)
        _write_csv(args.csv, ("t", "ones_fraction"), out.ones_path)
    return est.to_dict(), None


def cmd_sim_duality(args):
    net = gaplab.parse_graph_file(args.graph)
    target = _vertices(args.set)
    _in_graph(net.graph, target, "--set vertex")
    rep = ipslab.duality_check(net.graph, target, args.t, args.rho, args.trials,
                               args.seed, workers=args.parallel or 1)
    return rep.to_dict(), None


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


# --- option declarations -------------------------------------------------------

class _Opt:
    """One option: ``kind`` converts its text (from argv or a config line;
    ``boolean`` makes a switch), ``check(value, args)`` returns None inside
    its domain and otherwise what the value "must be", and ``when(args)``
    says whether the command uses it (an unused option is neither required
    nor checked, and is refused if set)."""

    def __init__(self, flag, kind, check, *, default=None, required=False, when=None,
                 dest=None, action=None, help=None):
        self.flag, self.kind, self.check, self.default = flag, kind, check, default
        self.required, self.when, self.action, self.help = required, when, action, help
        self.dest = dest or flag[2:].replace("-", "_")


def _rule(ok, text):
    """The values with ok(value, args); ``text`` is formatted with the options."""
    return lambda value, args: None if ok(value, args) else "must be " + text.format(**vars(args))


def _number(ok, text):
    """Finite numbers with ok(value)."""
    def check(value, args):
        if value != value or abs(value) == math.inf:
            return "must be finite"
        return None if ok(value) else "must be " + text
    return check


def _at_least(lo):
    return _number(lambda v: v >= lo, f">= {lo}")


def _one_of(*choices):
    return _rule(lambda v, a: v in choices, "one of " + ", ".join(choices))


def _vertex_set(text, args) -> bool:
    try:
        return min(_vertices(text), default=-1) >= 0
    except ValueError:
        return False


_ANY = _rule(lambda v, a: True, "")
_READ = _rule(lambda p, a: os.path.exists(p) and not os.path.isdir(p), "an existing file")
_WRITE = _rule(lambda p, a: not os.path.isdir(p)
               and os.path.isdir(os.path.dirname(os.path.abspath(p))),
               "a file in an existing directory")
_Q = _Opt("--q", int, _at_least(2), default=4)
_DIGITS = _rule(lambda w, a: set(w) <= _letters(a.q), "digits 1..{q}")
# the formula is the q=4 construction, asserted on proper words only
_FORMULA_WORD = _rule(lambda w, a: set(w) <= _letters(4) and colorlab.is_proper(w),
                      "a proper word over digits 1..4 with --source formula")
_FORMULA_Q = _rule(lambda q, a: q == 4, "4 with --source formula")
_GRAPH = _Opt("--graph", str, _READ, required=True)
_VERTEX = _Opt("--vertex", int, _at_least(0), required=True)
_TRIALS = _Opt("--trials", int, _number(lambda n: 1 <= n <= ipslab.MAX_TRIALS, "in 1..2**32"),
               required=True)
_SEED = _Opt("--seed", int, _number(lambda s: 0 <= s < 2**64, "in 0..2**64-1"), required=True)
_RHO = _Opt("--rho", float, _number(lambda r: 0 <= r <= 1, "in 0..1"), required=True)
_CSV = _Opt("--csv", str, _WRITE, help="write a trajectory CSV here")
_CONFIG = _Opt("--config", str, _READ, help="key=value file with defaults")
_PARALLEL = _Opt("--parallel", int, _at_least(1), help="worker processes (default 1)")
# the two sides of sim contact's --edge-speed, the one switch a `when` reads
_SURVIVAL, _EDGE = (lambda a: not a.edge_speed), (lambda a: a.edge_speed)
_COMMON = (_Opt("--out", str, _WRITE, help="write the full JSON report to this file"),
           _Opt("--expect", str, _rule(lambda v, a: all("=" in e for e in v), "KEY=VALUE"),
                default=(), action="append",
                help="assert a report field KEY=VALUE (exit 1 on mismatch)"))

_GROUPS = {"color": "exact coloring measure queries",
           "gap": "generator spectra on weighted graphs",
           "sim": "continuous-time Monte Carlo"}

# op -> (handler, help, options); the _COMMON options follow every command's own
_COMMANDS = {
    "color.prob": (cmd_color_prob, "cylinder probability of a word", (
        _Opt("--q", int, lambda q, a: (_FORMULA_Q if a.source == "formula" else
                                       _Q.check)(q, a), default=4),
        _Opt("--word", str, lambda w, a: (_FORMULA_WORD if a.source == "formula" else
                                          _DIGITS)(w, a), required=True),
        _Opt("--source", str, _one_of("recursion", "formula"), default="recursion",
             help="recursion (default) or formula"))),
    "color.check-dep": (cmd_color_checkdep, "exhaustive k-dependence check", (
        _Q, _Opt("--k", int, _at_least(0), required=True),
        _Opt("--nmax", int, _rule(lambda n, a: n >= a.k + 2, ">= --k + 2"), required=True))),
    "color.marginal": (cmd_color_marginal, "marginal probability of a dotted pattern", (
        _Q, _Opt("--pattern", str, _rule(lambda p, a: set(p) <= _letters(a.q) | {"."},
                                         "digits 1..{q} and '.'"), required=True))),
    "color.sample": (cmd_color_sample, "draw words from the window law", (
        # a printed word is one digit per letter, so a color past 9 could not be read back
        _Opt("--q", int, _number(lambda q: 2 <= q <= 9, "in 2..9 (one digit per color)"),
             default=4),
        _Opt("--n", int, _at_least(0), required=True), _SEED,
        _Opt("--count", int, _at_least(0), default=1))),
    "color.pushforward": (cmd_color_pushforward, "three-color image of the 4-color measure", (
        _Opt("--n", int, _at_least(0), required=True),)),
    "gap.report": (cmd_gap_report, "walk, interchange, and exclusion gaps", (
        _GRAPH, _Opt("--shuffle", boolean, _ANY, default=False,
                     help="include the subset-shuffle comparison"))),
    "gap.reduce": (cmd_gap_reduce, "remove one vertex, redistributing conductances",
                   (_GRAPH, _VERTEX)),
    "gap.octopus": (cmd_gap_octopus, "eigen-bounds of the hub comparison form",
                    (_GRAPH, _VERTEX)),
    "gap.shuffle": (cmd_gap_shuffle, "subset-shuffle gap vs its single-particle walk",
                    (_GRAPH,)),
    "sim.contact": (cmd_sim_contact, "contact process survival or edge speed", (
        _Opt("--lambda", float, _at_least(0), dest="lam", required=True),
        _Opt("--L", int, _at_least(1), when=_SURVIVAL,
             help="interval length (survival mode; default: the sparse line)"),
        _Opt("--tmax", float, _number(lambda t: t > 0, "> 0"), required=True),
        _TRIALS, _SEED,
        _Opt("--mode", str, _one_of("standard", "threshold"), when=_SURVIVAL,
             help="standard (default) or threshold"),
        _Opt("--edge-speed", boolean, _ANY, default=False,
             help="half-line start; fit the right-edge speed instead"),
        _Opt("--left-depth", int, _at_least(0), default=ipslab.DEFAULT_LEFT_DEPTH,
             when=_EDGE,
             help=f"--edge-speed start depth (default {ipslab.DEFAULT_LEFT_DEPTH})"),
        _CSV, _CONFIG, _Opt("--parallel", int, _at_least(1), when=_SURVIVAL,
                            help="worker processes (default 1; survival only)"))),
    "sim.voter": (cmd_sim_voter, "voter model consensus statistics", (
        _GRAPH, _RHO, _Opt("--tmax", float, _at_least(0), required=True), _TRIALS, _SEED,
        _CSV, _CONFIG)),
    "sim.duality": (cmd_sim_duality, "voter vs coalescing-walk two-sample check", (
        _GRAPH, _Opt("--set", str, _rule(_vertex_set, "comma-separated vertices >= 0"),
                     required=True, help="comma-separated target vertices, e.g. 0,1"),
        _Opt("--t", float, _at_least(0), required=True), _RHO, _TRIALS, _SEED,
        _CONFIG, _PARALLEL)),
}


def _options(op: str) -> tuple[_Opt, ...]:
    return _COMMANDS[op][2] + _COMMON


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochlab",
        description="exact coloring measures, spectral-gap identities, and particle-system simulation",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {name: top.add_parser(name, help=text).add_subparsers(dest="command", required=True)
              for name, text in _GROUPS.items()}
    for op, (_, help_text, _) in _COMMANDS.items():
        group, command = op.split(".")
        p = groups[group].add_parser(command, help=help_text)
        for opt in _options(op):
            how = {"action": "store_true"} if opt.kind is boolean else {
                "type": opt.kind, "action": opt.action}
            p.add_argument(opt.flag, dest=opt.dest, default=None, help=opt.help, **how)
        p.set_defaults(op=op)
    return parser


def _complain(opt: _Opt, args):
    value = getattr(args, opt.dest)
    complaint = opt.check(value, args)
    if complaint:
        raise ValueError(f"{opt.flag} {complaint}, got {value!r}")


def _apply_config_file(args, opts):
    """key=value lines fill the options the command line left unset."""
    keys = {}
    for opt in opts:
        if opt.flag not in ("--config", "--expect"):
            keys[opt.dest] = keys[opt.flag[2:].replace("-", "_")] = opt
    path = args.config
    seen = {}  # option dest -> line that set it
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            opt = keys.get(key.replace("-", "_"))
            if opt is None:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            if opt.dest in seen:
                raise ValueError(f"{path}:{lineno}: {key} was already set on line "
                                 f"{seen[opt.dest]}")
            seen[opt.dest] = lineno
            if getattr(args, opt.dest) is None:
                try:
                    setattr(args, opt.dest, opt.kind(value))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} must be {opt.kind.__name__}, "
                                     f"got {value!r}") from None


def _settle(args):
    """Merge the --config file, fill defaults, then check, in declaration
    order, that each option the command uses is given and in its domain.
    An option the command does not use is refused if it was set, and is
    otherwise left unset, so the report's inputs omit it."""
    opts = _options(args.op)
    if getattr(args, "config", None) is not None:
        _complain(_CONFIG, args)
        _apply_config_file(args, opts)
    given = {opt.dest for opt in opts if getattr(args, opt.dest) is not None}
    for opt in opts:
        if getattr(args, opt.dest) is None:
            setattr(args, opt.dest, opt.default)
    unused = [opt for opt in opts if opt.when is not None and not opt.when(args)]
    for opt in opts:
        if opt in unused:
            setattr(args, opt.dest, None)
        elif getattr(args, opt.dest) is None:
            if opt.required:
                raise ValueError(f"missing required option {opt.flag}")
        else:
            _complain(opt, args)
    for opt in unused:
        if opt.dest in given:  # every `when` is a side of --edge-speed
            side = "with" if args.edge_speed else "without"
            raise ValueError(f"{opt.flag} is not read {side} --edge-speed")


def _inputs_dict(args) -> dict:
    skip = {"op", "group", "command", "out", "expect"}
    return {key: value for key, value in sorted(vars(args).items())
            if key not in skip and value is not None}


def parse_and_dispatch(argv) -> tuple[int, dict | None]:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None

    started = time.perf_counter()
    try:
        _settle(args)
        payload, text = _COMMANDS[args.op][0](args)
        report = {"op": args.op, "inputs": _inputs_dict(args), **payload,
                  "elapsed_ms": (time.perf_counter() - started) * 1e3}
        body = _dumps(report)
        if text is None:
            text = _dumps(payload)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
    except (ValueError, CapacityError, GraphFormatError, ReducibilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except Exception as exc:  # a failure inside the labs, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3, None

    try:
        print(text, flush=True)
        code = 0
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        code = 141  # 128 + SIGPIPE, the status of a process the signal killed
    report = json.loads(body)
    flat: dict[str, str] = {}
    _flatten("", report, flat)
    failed = [f"expected {key}={want!r}, report has {flat.get(key)!r}"
              for key, _, want in (e.partition("=") for e in args.expect) if flat.get(key) != want]
    for line in failed:
        print(f"check failed: {line}", file=sys.stderr)
    return (1 if failed else code), report


def main(argv=None):
    code, _ = parse_and_dispatch(sys.argv[1:] if argv is None else argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's buffer still holds output for a closed reader: point it at
        # devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
