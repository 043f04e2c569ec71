"""Independent brute-force step-through simulator used as a test oracle.

Walks every (row, window) pair with plain Python state, re-deriving the
refresh decision, elapsed time, and running-minimum retention directly
from their definitions.  Shares only the primitive layers with the engine
(hash streams, Bloom membership, profiling), which are pinned by their own
tests; the scheduling, counting, and failure logic here is written from
scratch so the vectorized engine has something honest to disagree with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from raidrsim import rng
from raidrsim.profiler import profile
from raidrsim.raidr import build_bins
from raidrsim.retention import generate_ground_truth


@dataclass
class ReferenceResult:
    refreshes_issued: int
    retention_failures: int
    unsafe_rows: int
    fpr_extra_refreshes: int


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
    gt = generate_ground_truth(device, dist, vrt, dpd, seed)
    prof = profile(gt, profiler_cfg, rng.hash_words(seed, rng.TAG_PROFILER_SEED))
    base_ms = device.trefw_ms
    bins = build_bins(prof, bin_cfg, base_ms, bloom_budget, seed=rng.hash_words(seed, rng.TAG_FILTER_SEED))

    n = device.num_rows
    horizon = sim_cfg.horizon_windows
    mults = bins.multipliers
    # bins are immutable once built, so the per-row query is hoisted; a
    # separate test pins query stability across repeated calls
    row_mult = [mults[bins.query(r)] for r in range(n)]
    prof_mult = [mults[int(bin_cfg.classify(float(m)))] for m in prof]

    issued = 0
    failures = 0
    unsafe = set()
    last = [0] * n
    runmin = [float("inf")] * n
    profiled_refreshes = 0

    for w in range(horizon):
        if w > 0:
            gt.step_vrt(w)
        for r in range(n):
            if w % row_mult[r] == 0:
                issued += 1
                last[r] = w
                runmin[r] = float("inf")
            if w % prof_mult[r] == 0:
                profiled_refreshes += 1
            true_ret = gt.true_min_retention(r, w)
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
    )
