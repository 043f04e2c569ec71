"""Simulated retention-time profiling.

Oracle mode reports each row's true minimum retention over all data
patterns and toggle states.  Measured mode only observes what a finite
campaign can see: the patterns it happened to test and the toggle states
the row actually occupied at the sampled windows, which is exactly how
rows with a dormant low-retention state slip through.  A guard band
divides the measured value before binning to absorb such misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .retention import RetentionGroundTruth, vrt_step

MODE_ORACLE = "oracle"
MODE_MEASURED = "measured"


@dataclass(frozen=True)
class ProfilerConfig:
    mode: str = MODE_ORACLE
    patterns_tested: int = 8
    rounds: int = 1
    guard_band_factor: float = 1.0
    profiling_window_span: int = 1

    def __post_init__(self):
        if self.mode not in (MODE_ORACLE, MODE_MEASURED):
            raise ValueError(f"unknown profiler mode {self.mode!r}")
        if self.patterns_tested < 1:
            raise ValueError("patterns_tested must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.guard_band_factor < 1.0:
            raise ValueError("guard_band_factor must be >= 1")
        if self.profiling_window_span < 1:
            raise ValueError("profiling_window_span must be >= 1")


@dataclass
class RetentionProfile:
    """Per-row measured retention, already guard-divided."""

    measured_retention_ms: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.measured_retention_ms.shape[0])


def _round_windows(span: int, rounds: int) -> np.ndarray:
    """Window indices of the profiling passes, spread uniformly over the span."""
    return np.unique((np.arange(rounds, dtype=np.int64) * span) // rounds)


def _vrt_low_seen(gt: RetentionGroundTruth, cfg: ProfilerConfig) -> np.ndarray:
    """Whether each affected row occupied its low state at any sampled pass.

    The campaign has its own window timeline starting from the fresh (high)
    state; transitions reuse the per-row physical streams under a dedicated
    purpose tag.
    """
    idx = gt.vrt_rows
    seen = np.zeros(gt.num_rows, dtype=bool)
    if idx.size == 0:
        return seen
    sample_at = set(int(w) for w in _round_windows(cfg.profiling_window_span, cfg.rounds))
    low = np.zeros(idx.size, dtype=bool)
    seen_idx = np.zeros(idx.size, dtype=bool)
    prefix = rng.hash_words_vec(gt.seed, rng.TAG_PROFILE_VRT_STEP, idx)
    # window 0 is the fresh state: never low, nothing to record there
    for w in range(1, cfg.profiling_window_span):
        low = vrt_step(low, rng.extend_hash_vec(prefix, w), gt.vrt)
        if w in sample_at:
            seen_idx |= low
    seen[idx] = seen_idx
    return seen


def profile(gt: RetentionGroundTruth, cfg: ProfilerConfig, seed: int) -> RetentionProfile:
    """Produce a per-row retention profile from the ground truth.

    Oracle mode ignores the campaign parameters (patterns, rounds, span);
    measured mode validates patterns_tested against the pattern universe.
    """
    n = gt.num_rows
    if cfg.mode == MODE_ORACLE:
        measured = gt.min_possible_retention().copy()
    else:
        if cfg.patterns_tested > gt.dpd.num_patterns:
            raise ValueError(
                f"patterns_tested {cfg.patterns_tested} exceeds num_patterns {gt.dpd.num_patterns}"
            )
        measured = gt.base_retention_ms.copy()
        if gt.dpd.enabled:
            rows = np.arange(n, dtype=np.uint64)
            # membership of the row's worst pattern in a uniform distinct
            # sample of patterns_tested patterns: exact marginal s/N
            p_cover = cfg.patterns_tested / gt.dpd.num_patterns
            covered = rng.uniform01_vec(seed, rng.TAG_PROFILE_PATTERNS, rows) < p_cover
            measured = np.where(covered, measured * gt.dpd.worst_pattern_factor, measured)
        if gt.vrt.enabled:
            low_seen = _vrt_low_seen(gt, cfg)
            measured = np.where(low_seen, measured * gt.vrt.low_factor, measured)
    measured = measured / cfg.guard_band_factor
    return RetentionProfile(measured)


@dataclass(frozen=True)
class MisclassificationReport:
    """Row counts by how the profiled bin compares to the true-minimum bin."""

    unsafe: int
    wasteful: int
    exact: int

    @property
    def total(self) -> int:
        return self.unsafe + self.wasteful + self.exact


def misclassification_report(
    profile: RetentionProfile, gt: RetentionGroundTruth, bin_cfg
) -> MisclassificationReport:
    """Compare profiled bins with the bins true minima would pick.

    Unsafe rows were assigned a longer refresh interval than their true
    minimum supports; wasteful rows a shorter one.  Retentions below the
    base interval clamp to the shortest bin here (the builder refuses
    them instead).
    """
    if profile.num_rows != gt.num_rows:
        raise ValueError("profile and ground truth cover different row counts")
    intervals = np.asarray(bin_cfg.all_intervals_ms)
    prof_iv = intervals[bin_cfg.classify(profile.measured_retention_ms)]
    true_iv = intervals[bin_cfg.classify(gt.min_possible_retention())]
    unsafe = int(np.count_nonzero(prof_iv > true_iv))
    wasteful = int(np.count_nonzero(prof_iv < true_iv))
    exact = int(np.count_nonzero(prof_iv == true_iv))
    return MisclassificationReport(unsafe=unsafe, wasteful=wasteful, exact=exact)
