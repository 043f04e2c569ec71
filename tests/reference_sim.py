"""Independent brute-force step-through simulator used as a test oracle.

Walks every (row, window) pair with plain Python state, re-deriving the
refresh decision, elapsed time, running-minimum retention, each VRT row's
toggle state and each row's queried bin directly from their definitions.

It shares two things with the engine:
- The build pass: generate_rows, profile_rows and the BinAccumulator, applied to
  the whole device as one block, and SparseRows.dense, the one expansion
  of the pass's sparse ground truth and profile to every row's value,
  which `raidrsim profile` uses too.  generate_rows draws a block's VRT
  rows and profile_rows runs its profiling campaign from the block's rows
  alone, so one block of the device is the engine's blocks joined.  The
  engine runs the same pass block by block and never expands it: it
  profiles plain rows exactly only up to their bin and counts their
  static failures per bin, so this oracle's exact profile and per-row
  loops check those shortcuts.  The tests check the blocks against this
  one-block build, generation and the profiling campaign against their
  scalar streams, and the filters against the scalar probe sequence here;
  a second copy of the pass would only repeat those checks.
- rng.hash_words, the scalar splitmix64 stream, which the vectorised hash
  is tested against.

Everything after the build is written from scratch, and so are the two
draws the oracle owns: uniform01, the scalar uniform of a hash, and
draw_vrt_rows, the VRT rows drawn afresh from their stream by
`uniform01 < affected_fraction`.  The oracle steps those rows
(vrt_rows_of), not the record's toggles flags.  Each row's base retention
comes from the expanded record, SparseRows.dense.  The toggle steps by the
scalar rule next_low on uniform01.  The bins are queried through the
scalar probe sequence of probes().  A row's low retention is taken as
RetentionGroundTruth.min_possible takes it, (base x dpd) x low_factor.
The schedule, elapsed times, failures and profiled refreshes are plain
loops, so the vectorised engine has something honest to disagree with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from raidrsim import rng
from raidrsim.profiler import profile_rows
from raidrsim.raidr import BinAccumulator
from raidrsim.retention import SparseRows, generate_rows


# -- the build pass shared with the engine, over the whole device -----------


def ground_truth(device, dist, vrt, dpd, seed):
    """The ground truth of the whole device, generated as one row range."""
    return generate_rows(device, dist, vrt, dpd, seed, 0, device.num_rows)


def vrt_rows_of(gt):
    """The device indices of gt's toggling rows, drawn afresh from their stream."""
    return draw_vrt_rows(gt.vrt, gt.seed, gt.start, gt.start + gt.num_rows)


def profile(gt, cfg):
    """The guard-divided profile of gt, exact at every row, one value per row."""
    return profile_rows(gt, cfg).dense()


def bin_blocks(blocks, bin_cfg, base_ms, bloom_budget=1e-3, seed=0):
    """The bins of SparseRows blocks that cover a device in row order, each added to one BinAccumulator."""
    binned = BinAccumulator(bin_cfg, base_ms)
    for block in blocks:
        binned.add(block)
    return binned.finish(bloom_budget, seed)


def build_bins(measured, bin_cfg, base_ms, bloom_budget=1e-3, seed=0):
    """The bins of a whole profile, one value per row, binned as one block in which every row has its own value."""
    n = np.size(measured)
    return bin_blocks([SparseRows(0, n, math.inf, np.arange(n), measured)], bin_cfg, base_ms, bloom_budget, seed)


# -- scalar definitions ------------------------------------------------------


def uniform01(*words: int) -> float:
    """The uniform in [0, 1) keyed by words: the top 53 bits of their hash, scaled by 2**-53."""
    return (rng.hash_words(*words) >> 11) * 2.0**-53


def draw_vrt_rows(vrt, seed: int, start: int, stop: int) -> np.ndarray:
    """Device indices of the rows in [start, stop) that carry a retention toggle, ascending.

    With VRT enabled, row r toggles iff its uniform on (seed, TAG_VRT_FLAG,
    r) is below affected_fraction, compared as floats.
    """
    if not vrt.enabled:
        return np.zeros(0, dtype=np.int64)
    u = rng.uniform01_vec(seed, rng.TAG_VRT_FLAG, np.arange(start, stop, dtype=np.uint64))
    return start + np.flatnonzero(u < vrt.affected_fraction)


def probes(params, key: int) -> list[int]:
    """The bit positions of key in a filter of params: probe i is hash_words(seed, i + 1, key) mod m."""
    return [rng.hash_words(params.seed, i + 1, key) % params.m for i in range(params.k)]


def contains(filt, key: int) -> bool:
    """Whether every probe of key finds its bit set; bit p is bit p % 64 of word p // 64."""
    return all(int(filt.words[p // 64]) >> (p % 64) & 1 for p in probes(filt.params, key))


def query(bins, row: int) -> int:
    """The first filter that contains row, shortest interval first; the default bin if none."""
    return next((b for b, filt in enumerate(bins.filters) if contains(filt, row)), bins.default_bin)


def next_low(low: bool, u: float, vrt) -> bool:
    """The toggle after a step whose uniform is u.

    It leaves its state iff u is below that state's exit probability:
    p_low_to_high when low, p_high_to_low when high.
    """
    return low != (u < (vrt.p_low_to_high if low else vrt.p_high_to_low))


# -- the step-through simulation ---------------------------------------------


@dataclass
class ReferenceResult:
    refreshes_issued: int
    retention_failures: int
    unsafe_rows: int
    fpr_extra_refreshes: int
    unsafe_set: frozenset[int]  # the rows that failed at least once
    row_mult: tuple[int, ...]  # each row's queried multiplier


def parts_of(spec):
    """The spec as the positional parts of run_reference and simulate.run.

    perfbench's oracle cross-check passes these parts, in this order, to both.
    """
    return (spec.sim, spec.device, spec.dist, spec.vrt, spec.dpd, spec.profiler, spec.bins,
            spec.bloom_budget)


def counters(result):
    """The four counts that a SimReport and a ReferenceResult share."""
    return result.refreshes_issued, result.retention_failures, result.unsafe_rows, result.fpr_extra_refreshes


def run_reference(sim_cfg, device, dist, vrt, dpd, profiler_cfg, bin_cfg, bloom_budget=1e-3):
    seed = sim_cfg.seed
    gt = ground_truth(device, dist, vrt, dpd, seed)
    sparse = profile_rows(gt, profiler_cfg)
    base_ms = device.trefw_ms
    bins = bin_blocks([sparse], bin_cfg, base_ms, bloom_budget, seed=rng.hash_words(seed, rng.TAG_FILTER_SEED))
    prof = sparse.dense()

    n = device.num_rows
    horizon = sim_cfg.horizon_windows
    mults = bins.multipliers
    # bins are immutable once built, so the per-row query is hoisted
    row_mult = [mults[query(bins, r)] for r in range(n)]
    prof_mult = [mults[int(bin_cfg.classify(float(m)))] for m in prof]
    # a row's retention at its worst data pattern, and while its toggle is low
    dpd_factor = dpd.worst_pattern_factor if dpd.enabled else 1.0
    high_ms = [float(b) * dpd_factor for b in gt.base.dense()]
    low = {int(r): False for r in vrt_rows_of(gt)}  # toggle state, fresh (high) at window 0

    issued = 0
    failures = 0
    unsafe = set()
    last = [0] * n
    runmin = [float("inf")] * n
    profiled_refreshes = 0

    for w in range(horizon):
        if w > 0:
            for r in low:
                low[r] = next_low(low[r], uniform01(seed, rng.TAG_VRT_STEP, r, w), vrt)
        for r in range(n):
            if w % row_mult[r] == 0:
                issued += 1
                last[r] = w
                runmin[r] = float("inf")
            if w % prof_mult[r] == 0:
                profiled_refreshes += 1
            true_ret = high_ms[r] * vrt.low_factor if low.get(r) else high_ms[r]
            if true_ret < runmin[r]:
                runmin[r] = true_ret
            elapsed_ms = (w - last[r] + 1) * base_ms
            if elapsed_ms > runmin[r]:
                failures += 1
                unsafe.add(r)

    return ReferenceResult(
        refreshes_issued=issued,
        retention_failures=failures,
        unsafe_rows=len(unsafe),
        fpr_extra_refreshes=issued - profiled_refreshes,
        unsafe_set=frozenset(unsafe),
        row_mult=tuple(row_mult),
    )


# -- profile against truth ---------------------------------------------------


@dataclass(frozen=True)
class MisclassificationReport:
    """Row counts by how the profiled bin compares to the true-minimum bin."""

    unsafe: int
    wasteful: int
    exact: int

    @property
    def total(self) -> int:
        return self.unsafe + self.wasteful + self.exact


def misclassification_report(measured_ms: np.ndarray, gt, bin_cfg) -> MisclassificationReport:
    """Compare the bins of the profile measured_ms with the bins true minima would pick.

    Unsafe rows were assigned a longer refresh interval than their true
    minimum supports; wasteful rows a shorter one.  Retentions below
    device.trefw_ms clamp to the shortest bin here (bin_blocks refuses
    them instead).
    """
    if measured_ms.size != gt.num_rows:
        raise ValueError("profile and ground truth cover different row counts")
    intervals = np.asarray(bin_cfg.intervals_ms(gt.device.trefw_ms))
    prof_iv = intervals[bin_cfg.classify(measured_ms)]
    true_iv = intervals[bin_cfg.classify(gt.min_possible().dense())]
    unsafe = int(np.count_nonzero(prof_iv > true_iv))
    wasteful = int(np.count_nonzero(prof_iv < true_iv))
    exact = int(np.count_nonzero(prof_iv == true_iv))
    return MisclassificationReport(unsafe=unsafe, wasteful=wasteful, exact=exact)
