"""Spans recorded around stochlab's public entry points, from outside.

Nothing inside ``src/`` is instrumented.  ``install`` replaces each listed
public function or method, in every ``stochlab`` module that holds a
reference to it, by a wrapper that records one span per call: its name,
start, end and the span that was open when it began.  Spans stay in
memory and are turned into per-layer metrics once, when the run ends.

Self time of a span is its duration minus the time its direct child spans
cover; calls run on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import scipy.sparse as sp


class Recorder:
    """In-memory span list plus work counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording a span per call; ``name`` may be a function of
        (args, result) so one entry point can feed two layers."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(("", 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                label = name(args, result) if callable(name) else name
                self.spans[idx] = (label, start, end, parent)
                self.calls[label] += 1
                if on_result is not None and result is not None:
                    on_result(self.counts, args, kwargs, result)

        return traced

    def dump(self, path: Path) -> None:
        """Write every span once, as [name, start, end, parent index] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))

    def times(self) -> tuple[defaultdict[str, float], defaultdict[str, float]]:
        """(inclusive, self) seconds per span name, 0 for names never seen.
        Inclusive time skips spans nested inside a span of the same name, so
        nothing counts twice."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for idx, (label, start, end, parent) in enumerate(self.spans):
            own[label] += (end - start) - child_time[idx]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != label:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[label] += end - start
        return inclusive, own


def _replace_everywhere(original, replacement) -> int:
    """Point every stochlab module attribute bound to ``original`` at
    ``replacement``; modules that did ``from .x import f`` hold their own
    reference, so patching only the defining module would miss calls."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "stochlab" or mod_name.startswith("stochlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def _patch_function(rec, module, attr, name, on_result=None):
    original = getattr(module, attr)
    if _replace_everywhere(original, rec.wrap(original, name, on_result)) == 0:
        raise RuntimeError(f"could not wrap {module.__name__}.{attr}")


def _patch_method(rec, cls, attr, name, on_result=None):
    setattr(cls, attr, rec.wrap(getattr(cls, attr), name, on_result))


def _is_sparse(op) -> bool:
    return sp.issparse(getattr(op, "matrix", op))


def _count_operator(counts, args, kwargs, op):
    counts["gaplab.states"] += op.matrix.shape[0]
    counts["gaplab.nnz"] += op.matrix.nnz if sp.issparse(op.matrix) else int((op.matrix != 0).sum())


def install(rec: Recorder) -> None:
    """Wrap the public entry points of colorlab, gaplab, ipslab and cli."""
    from stochlab import cli, colorlab, gaplab, ipslab

    measure = colorlab.CylinderMeasure
    _patch_method(rec, measure, "prob",
                  lambda args, _: f"colorlab.{args[0].source}")
    _patch_method(rec, measure, "normalizer", "colorlab.normalizer")
    _patch_method(rec, measure, "scaled_window", "colorlab.window")
    _patch_method(rec, colorlab.EliminateFoursMeasure, "scaled_window", "colorlab.pushforward")
    _patch_function(rec, colorlab, "check_k_dependence", "colorlab.dependence",
                    lambda c, a, k, r: c.update({"colorlab.dependence.pairs": r.pairs_checked}))
    _patch_function(rec, colorlab, "sample_windows", "colorlab.sampling",
                    lambda c, a, k, r: c.update({"colorlab.sampling.words": len(r)}))

    def build_name(args, op):
        return "gaplab.build.sparse" if op is not None and _is_sparse(op) else "gaplab.build.dense"

    def eig_name(args, _):
        return "gaplab.eig.lanczos" if _is_sparse(args[0]) else "gaplab.eig.dense"

    for attr in ("interchange_generator", "exclusion_generator", "rw_generator",
                 "alpha_shuffle_generator", "octopus_form"):
        _patch_function(rec, gaplab, attr, build_name, _count_operator)
    for attr in ("spectral_gap", "extreme_eigenvalues"):
        _patch_function(rec, gaplab, attr, eig_name)
    _patch_function(rec, gaplab, "gap_report", "gaplab.report")
    _patch_function(rec, gaplab, "shuffle_gap_comparison", "gaplab.shuffle")

    _patch_function(rec, ipslab, "simulate_contact", "ipslab.contact",
                    lambda c, a, k, r: c.update({"ipslab.contact.events": r.n_events}))
    trials = _trials_counter
    _patch_function(rec, ipslab, "estimate_survival", "ipslab.survival",
                    trials("ipslab.survival.trials", ipslab.estimate_survival))
    _patch_function(rec, ipslab, "duality_check", "ipslab.duality",
                    trials("ipslab.duality.trials", ipslab.duality_check))
    _patch_function(rec, ipslab, "consensus_rate", "ipslab.consensus",
                    trials("ipslab.consensus.trials", ipslab.consensus_rate))
    _patch_function(rec, ipslab, "right_edge_speed", "ipslab.edge_speed",
                    trials("ipslab.edge_speed.trials", ipslab.right_edge_speed))

    _patch_function(rec, cli, "parse_and_dispatch", "cli")


def _trials_counter(key, fn):
    signature = inspect.signature(fn)

    def count(counts, args, kwargs, result):
        counts[key] += signature.bind(*args, **kwargs).arguments["trials"]

    return count


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(rec: Recorder, memo_entries: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; 0 marks a layer the workload
    does not exercise."""
    incl, own = rec.times()
    c = rec.counts
    return {
        "colorlab.recursion.s": own["colorlab.recursion"],
        "colorlab.recursion.words_per_s": _rate(rec.calls["colorlab.recursion"],
                                                own["colorlab.recursion"]),
        "colorlab.formula.s": own["colorlab.formula"],
        "colorlab.formula.words_per_s": _rate(rec.calls["colorlab.formula"],
                                              own["colorlab.formula"]),
        "colorlab.normalizer.s": incl["colorlab.normalizer"],
        "colorlab.dependence.s": own["colorlab.dependence"],
        "colorlab.dependence.pairs": c["colorlab.dependence.pairs"],
        "colorlab.dependence.pairs_per_s": _rate(c["colorlab.dependence.pairs"],
                                                 own["colorlab.dependence"]),
        "colorlab.pushforward.s": own["colorlab.pushforward"],
        "colorlab.sampling.words_per_s": _rate(c["colorlab.sampling.words"],
                                               incl["colorlab.sampling"]),
        "colorlab.memo_entries": memo_entries,
        "gaplab.build.dense_s": incl["gaplab.build.dense"],
        "gaplab.build.sparse_s": incl["gaplab.build.sparse"],
        "gaplab.eig.dense_s": incl["gaplab.eig.dense"],
        "gaplab.eig.lanczos_s": incl["gaplab.eig.lanczos"],
        "gaplab.states": c["gaplab.states"],
        "gaplab.nnz": c["gaplab.nnz"],
        "gaplab.shuffle.s": incl["gaplab.shuffle"],
        "gaplab.report.graphs_per_s": _rate(rec.calls["gaplab.report"], incl["gaplab.report"]),
        "ipslab.contact.events_per_s": _rate(c["ipslab.contact.events"],
                                             incl["ipslab.contact"]),
        "ipslab.contact.events": c["ipslab.contact.events"],
        "ipslab.survival.trials_per_s": _rate(c["ipslab.survival.trials"],
                                              incl["ipslab.survival"]),
        "ipslab.duality.trials_per_s": _rate(c["ipslab.duality.trials"],
                                             incl["ipslab.duality"]),
        "ipslab.consensus.trials_per_s": _rate(c["ipslab.consensus.trials"],
                                               incl["ipslab.consensus"]),
        "ipslab.edge_speed.trials_per_s": _rate(c["ipslab.edge_speed.trials"],
                                                incl["ipslab.edge_speed"]),
        "cli.self_s": own["cli"],
    }


# every per-layer metric a traced run reports, with its unit; the ipslab
# probes and trace_overhead are filled in by the caller
LAYER_UNITS = {
    "colorlab.recursion.s": "s",
    "colorlab.recursion.words_per_s": "words/s",
    "colorlab.formula.s": "s",
    "colorlab.formula.words_per_s": "words/s",
    "colorlab.normalizer.s": "s",
    "colorlab.dependence.s": "s",
    "colorlab.dependence.pairs": "count",
    "colorlab.dependence.pairs_per_s": "pairs/s",
    "colorlab.pushforward.s": "s",
    "colorlab.sampling.words_per_s": "words/s",
    "colorlab.memo_entries": "count",
    "gaplab.build.dense_s": "s",
    "gaplab.build.sparse_s": "s",
    "gaplab.eig.dense_s": "s",
    "gaplab.eig.lanczos_s": "s",
    "gaplab.states": "count",
    "gaplab.nnz": "count",
    "gaplab.shuffle.s": "s",
    "gaplab.report.graphs_per_s": "graphs/s",
    "ipslab.rng.first_draw_us": "us",
    "ipslab.contact.events_per_s": "events/s",
    "ipslab.contact.events": "count",
    "ipslab.voter.events_per_s": "events/s",
    "ipslab.survival.trials_per_s": "trials/s",
    "ipslab.duality.trials_per_s": "trials/s",
    "ipslab.consensus.trials_per_s": "trials/s",
    "ipslab.edge_speed.trials_per_s": "trials/s",
    "ipslab.duality.speedup_w2": "ratio",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}
