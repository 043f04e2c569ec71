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
from .retention import RetentionGroundTruth, SparseRows, VrtModel, vrt_tiles

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


def _round_windows(span: int, rounds: int) -> np.ndarray:
    """Window indices of the profiling passes, spread uniformly over the span."""
    return np.unique((np.arange(rounds, dtype=np.int64) * span) // rounds)


def vrt_low_seen(seed: int, vrt: VrtModel, rows: np.ndarray, cfg: ProfilerConfig) -> np.ndarray:
    """Whether each affected row of `rows` occupied its low state at any sampled pass.

    The campaign has its own window timeline starting from the fresh (high)
    state; transitions reuse the per-row physical streams under a dedicated
    purpose tag.  It walks every row of `rows` together with vrt_tiles,
    over windows 1 to the last sampled one.  Every row's steps are its
    own, so the rows stepped together and the tiling change no result:
    a subset of the rows gets the answers it gets among all of them.
    """
    sample_at = _round_windows(cfg.profiling_window_span, cfg.rounds)
    last = int(sample_at[-1])
    sampled = np.zeros(last + 1, dtype=bool)
    sampled[sample_at] = True
    seen = np.zeros(rows.size, dtype=bool)
    prefix = rng.hash_words_vec(seed, rng.TAG_PROFILE_VRT_STEP, rows)
    # window 0 is the fresh state: never low, nothing to record there; no
    # window past the last sampled one is read
    for windows, lows in vrt_tiles(prefix, np.zeros_like(seen), vrt, 1, last + 1):
        seen |= lows[sampled[windows]].any(axis=0)
    return seen


def profile_rows(gt: RetentionGroundTruth, cfg: ProfilerConfig, bins=None) -> SparseRows:
    """Guard-divided measured retention of each row of gt, a range of the device, as sparse rows.

    It reads only gt's own rows.  Measured mode runs gt's own campaign
    (vrt_low_seen) on its toggling rows, and keys the pattern draws by the
    profiler seed derived from gt.seed.  Oracle mode ignores the campaign
    parameters (patterns, rounds, span).  cfg.patterns_tested is at most
    gt.dpd.num_patterns, as ExperimentSpec checks.

    Every row of gt.base.at holds its own value.  The plain rows share
    one, except in measured mode with DPD, where a plain row whose worst
    pattern was tested holds the covered value instead of the missed one.
    Coverage is drawn at every plain row unless bins, a BinConfig, is
    given and both values fall in the same bin at or above the base period
    device.trefw_ms: then every plain row holds the missed value, and the
    profile bins every row as the exact one does.

    A toggling row holds its value times vrt.low_factor where the campaign
    saw its low state.  Without bins, the campaign walks every toggling
    row.  Given bins, it walks only those whose two possible values, with
    and without the low state, fall in different bins, or whose low value
    is under the base period; every other toggling row holds its high
    value.  Binning reads a value only through its bin and whether it is
    under the base period (and, for such rows, the value itself), so the
    profile still bins every row, and rejects the same rows, as the exact
    one does.
    """
    guard = cfg.guard_band_factor
    if cfg.mode == MODE_ORACLE:
        true_min = gt.min_possible()
        return SparseRows(gt.start, gt.num_rows, true_min.plain / guard, true_min.at, true_min.values / guard)
    at, measured = gt.base.at, gt.base.values
    toggling = np.flatnonzero(gt.toggles)  # their positions in at
    plain = gt.base.plain
    if gt.dpd.enabled:
        # membership of the row's worst pattern in a uniform distinct
        # sample of patterns_tested patterns: exact marginal s/N
        f = gt.dpd.worst_pattern_factor
        p_cover = cfg.patterns_tested / gt.dpd.num_patterns
        seed = rng.hash_words(gt.seed, rng.TAG_PROFILER_SEED)
        missed, covered = plain / guard, (plain * f) / guard
        if bins is None or bins.classify(missed) != bins.classify(covered) or covered < gt.device.trefw_ms:
            rows = np.arange(gt.start, gt.start + gt.num_rows, dtype=np.uint64)
            every_row = rng.bernoulli_vec(p_cover, seed, rng.TAG_PROFILE_PATTERNS, rows)
            held = every_row.copy()
            held[at] = True
            at = np.flatnonzero(held)
            own = np.searchsorted(at, gt.base.at)
            measured = np.full(at.size, plain)
            measured[own] = gt.base.values
            toggling = own[toggling]
            covered_at = every_row[at]
        else:
            keys = (at + gt.start).astype(np.uint64)
            covered_at = rng.bernoulli_vec(p_cover, seed, rng.TAG_PROFILE_PATTERNS, keys)
        measured = np.where(covered_at, measured * f, measured)
    else:
        measured = measured.copy()
    rows = gt.base.at[gt.toggles]
    if bins is not None:
        # each toggling row's two possible values, by the float operations
        # of the return below
        high = measured[toggling]
        unseen, seen = high / guard, (high * gt.vrt.low_factor) / guard
        asked = (bins.classify(unseen) != bins.classify(seen)) | (seen < gt.device.trefw_ms)
        toggling, rows = toggling[asked], rows[asked]
    low_seen = vrt_low_seen(gt.seed, gt.vrt, rows + gt.start, cfg)
    i = toggling[low_seen]
    measured[i] = measured[i] * gt.vrt.low_factor
    return SparseRows(gt.start, gt.num_rows, plain / guard, at, measured / guard)
