"""Layer spans around raidrsim's public functions, installed from outside.

`install()` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent) and the work counts taken at the
same boundary.  Spans stay in memory; `layer_metrics` turns one run's spans
and counts into the benchmark's per-layer metrics.  Nothing under `src/`
is changed: a function imported by name into another module is patched
wherever the same object is bound.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter

import numpy as np

MODULES = ("rng", "bloom", "retention", "profiler", "raidr", "simulate", "experiment", "overhead", "cli")
ROOT_SPAN = "cli.main"


def _rows_stepped(tracer, args, result):
    gt = args[0]
    # has_vrt is fixed per ground truth; counting it every window would dominate the span
    n = tracer.memo.get(gt)
    if n is None:
        n = tracer.memo[gt] = int(np.count_nonzero(gt.has_vrt))
    tracer.counts["retention.vrt_row_steps"] += n


def _probed(tracer, args, result):
    tracer.counts["bloom.keys_probed"] += int(result.size)
    tracer.counts["bloom.keys_claimed"] += int(np.count_nonzero(result))


def _filter_bytes(tracer, args, result):
    tracer.counts["bloom.filter_bytes"] += sum(f.words.nbytes for f in result.filters)


def _count(metric, size_of):
    def counter(tracer, args, result):
        tracer.counts[metric] += size_of(args, result)
    return counter


# (span name, module, attribute or Class.method, counter run after the call)
TARGETS = (
    (ROOT_SPAN, "cli", "main", None),
    ("cli.sweep_point", "cli", "_sweep_point", _count("cli.sweep_points", lambda a, r: 1)),
    ("cli.write_bins_csv", "cli", "write_bins_csv", None),
    ("cli.write_text", "cli", "_write_text", None),
    ("experiment.spec_from_flat", "experiment", "spec_from_flat", None),
    ("overhead.throughput_loss", "overhead", "throughput_loss", None),
    ("overhead.refresh_energy_fraction", "overhead", "refresh_energy_fraction", None),
    ("retention.generate_ground_truth", "retention", "generate_ground_truth",
     _count("retention.rows_generated", lambda a, r: r.num_rows)),
    ("retention.step_vrt", "retention", "RetentionGroundTruth.step_vrt", _rows_stepped),
    ("retention.retention_now", "retention", "RetentionGroundTruth.retention_now", None),
    ("profiler.profile", "profiler", "profile", _count("profiler.rows_profiled", lambda a, r: r.num_rows)),
    ("raidr.build_bins", "raidr", "build_bins", _filter_bytes),
    ("raidr.query_many", "raidr", "BinSet.query_many", _count("raidr.rows_queried", lambda a, r: r.size)),
    ("raidr.measured_filter_fprs", "raidr", "measured_filter_fprs", None),
    ("bloom.insert_many", "bloom", "BloomFilter.insert_many",
     _count("bloom.keys_inserted", lambda a, r: int(np.size(a[1])))),
    ("bloom.contains_many", "bloom", "BloomFilter.contains_many", _probed),
    ("rng.hash_words_vec", "rng", "hash_words_vec", _count("rng.elements_hashed", lambda a, r: r.size)),
    ("simulate.init", "simulate", "RefreshSimulation.__init__", None),
    ("simulate.run", "simulate", "RefreshSimulation.run", None),
)

# metric -> (unit, better, kind, span names).  Kinds: "total" sums the spans'
# inclusive time, "self" their self time, "module" the self time of every span
# of that module; "count" reads the counter of the metric's own name; "derived"
# is computed below from the spans and counts, "run" by the runner from the run.
LAYER_METRICS = {
    "bloom.contains_many_s": ("s", "lower", "total", ("bloom.contains_many",)),
    "bloom.keys_probed": ("count", "lower", "count", ()),
    "bloom.claim_ratio": ("ratio", "higher", "derived", ()),
    "bloom.insert_many_s": ("s", "lower", "total", ("bloom.insert_many",)),
    "bloom.keys_inserted": ("count", "lower", "count", ()),
    "bloom.filter_bytes": ("bytes", "lower", "count", ()),
    "raidr.query_many_s": ("s", "lower", "total", ("raidr.query_many",)),
    "raidr.rows_queried": ("count", "lower", "count", ()),
    "raidr.measured_filter_fprs_s": ("s", "lower", "total", ("raidr.measured_filter_fprs",)),
    "raidr.build_bins_s": ("s", "lower", "total", ("raidr.build_bins",)),
    "rng.hash_words_vec_s": ("s", "lower", "self", ("rng.hash_words_vec",)),
    "rng.elements_hashed": ("count", "lower", "count", ()),
    "retention.step_vrt_s": ("s", "lower", "total", ("retention.step_vrt",)),
    "retention.vrt_row_steps": ("count", "lower", "count", ()),
    "retention.retention_now_s": ("s", "lower", "total", ("retention.retention_now",)),
    "retention.generate_ground_truth_s": ("s", "lower", "total", ("retention.generate_ground_truth",)),
    "retention.rows_generated": ("count", "lower", "count", ()),
    "simulate.run_s": ("s", "lower", "total", ("simulate.run",)),
    "simulate.init_self_s": ("s", "lower", "self", ("simulate.init",)),
    "profiler.profile_s": ("s", "lower", "total", ("profiler.profile",)),
    "profiler.rows_profiled": ("count", "lower", "count", ()),
    "cli.write_artifacts_s": ("s", "lower", "self", ("cli.write_bins_csv", "cli.write_text")),
    "cli.sweep_points": ("count", "lower", "count", ()),
    "experiment.spec_from_flat_s": ("s", "lower", "total", ("experiment.spec_from_flat",)),
    "overhead.eval_s": ("s", "lower", "total",
                        ("overhead.throughput_loss", "overhead.refresh_energy_fraction")),
    **{f"{m}.self_s": ("s", "lower", "module", (m,)) for m in MODULES},
    "trace.accounted_share": ("ratio", "higher", "derived", ()),
    "cli.artifact_bytes": ("bytes", "lower", "run", ()),
    "trace.wall_s": ("s", "lower", "run", ()),
    "trace.untraced_wall_s": ("s", "lower", "run", ()),
    "trace.overhead_s": ("s", "lower", "run", ()),
}


class Tracer:
    """Spans as [name, start, end, parent index] plus counts, all in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # keyed weakly, so a freed ground truth's count is never reused for a new one
        self.memo = weakref.WeakKeyDictionary()
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced


def install() -> tuple[Tracer, list[str]]:
    """Wrap every target; returns the tracer and the targets not found."""
    tracer = Tracer()
    missing = []
    for name, module_name, attr, counter in TARGETS:
        try:
            owner = importlib.import_module(f"raidrsim.{module_name}")
        except ImportError:
            missing.append(name)
            continue
        loaded = [m for n, m in sys.modules.items() if n == "raidrsim" or n.startswith("raidrsim.")]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, fn_name, None)
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, counter)
        if cls_path:
            setattr(owner, fn_name, wrapped)
            continue
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return tracer, missing


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, all but the "run" kind.

    wall_s is that run's traced wall time.
    """
    total, own, module_self = Counter(), Counter(), Counter()
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        module_self[name.split(".", 1)[0]] += self_s
    by_kind = {"total": total, "self": own, "module": module_self}
    metrics = {}
    for metric, (_, _, kind, names) in LAYER_METRICS.items():
        if kind in by_kind:
            metrics[metric] = sum(by_kind[kind][n] for n in names)
        elif kind == "count":
            metrics[metric] = counts.get(metric, 0)
    probed = counts.get("bloom.keys_probed", 0)
    metrics["bloom.claim_ratio"] = counts.get("bloom.keys_claimed", 0) / probed if probed else 0.0
    inside = sum(own[n] for n in own if n != ROOT_SPAN)
    metrics["trace.accounted_share"] = inside / wall_s if wall_s > 0 else 0.0
    return metrics
