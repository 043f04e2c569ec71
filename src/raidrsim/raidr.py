"""Multi-rate refresh controller: retention bins in Bloom filters.

Rows whose profiled retention falls below the last threshold are inserted
into exactly one filter; everything else lives in the implicit default bin
at the longest interval.  Queries walk the filters shortest-interval
first, so a false positive can only demote a row to a faster refresh rate,
never a slower one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .bloom import BloomFilter, BloomParams, plan_params


class UnbinnableRowError(RuntimeError):
    """A row's profiled retention is below device.trefw_ms: no bin can protect it."""

    def __init__(self, row: int, measured_ms: float, base_ms: float, count: int):
        self.row = row
        self.measured_ms = measured_ms
        self.base_ms = base_ms
        self.count = count
        super().__init__(
            f"{count} row(s) with profiled retention under device.trefw_ms {base_ms} ms "
            f"(first: row {row} at {measured_ms} ms) cannot be refreshed fast enough"
        )

    def __reduce__(self):
        # rebuilt from its fields, so it crosses a process pool intact
        return type(self), (self.row, self.measured_ms, self.base_ms, self.count)


@dataclass(frozen=True)
class BinConfig:
    """Retention thresholds of the bins.

    The base refresh period is the device's tREFW (device.trefw_ms), which
    every method that needs it takes as base_ms.  Bin i covers
    [thresholds[i-1], thresholds[i]) with refresh interval equal to the
    lower edge (the base period for bin 0).  Rows at or above the last
    threshold take the default interval, which equals that threshold.
    Every interval must be a whole multiple of the base so the modular
    schedule stays exact.
    """

    thresholds_ms: tuple[float, ...] = (128.0, 256.0)

    def __post_init__(self):
        object.__setattr__(self, "thresholds_ms", tuple(float(t) for t in self.thresholds_ms))
        prev = 0.0
        for t in self.thresholds_ms:
            if t <= prev:
                raise ValueError(f"thresholds_ms must be strictly increasing, got {self.thresholds_ms}")
            prev = t

    @property
    def num_filter_bins(self) -> int:
        return len(self.thresholds_ms)

    def intervals_ms(self, base_ms: float) -> tuple[float, ...]:
        """Refresh interval per bin, default bin last."""
        return (float(base_ms),) + self.thresholds_ms

    def multipliers(self, base_ms: float) -> tuple[int, ...]:
        """Each bin's interval in base periods; ValueError unless each is a positive whole multiple."""
        mults = []
        for iv in self.intervals_ms(base_ms):
            m = round(iv / base_ms)
            if m < 1 or m * base_ms != iv:
                raise ValueError(f"interval {iv} ms is not a positive integer multiple of base {base_ms} ms")
            mults.append(m)
        return tuple(mults)

    def classify(self, measured_ms):
        """Bin index per retention value; the default bin is index num_filter_bins.

        Values below the base period, device.trefw_ms, clamp into bin 0;
        builders that must reject such rows check for them separately.
        """
        arr = np.asarray(measured_ms, dtype=np.float64)
        idx = np.searchsorted(np.asarray(self.thresholds_ms), arr, side="right")
        if np.isscalar(measured_ms):
            return int(idx)
        return idx


@dataclass
class BinSet:
    """One Bloom filter per non-default bin, shortest interval first."""

    bin_cfg: BinConfig
    base_ms: float  # the base refresh period, device.trefw_ms
    filters: list[BloomFilter]
    counts: tuple[int, ...]  # rows inserted per bin, default bin last

    @property
    def intervals_ms(self) -> tuple[float, ...]:
        return self.bin_cfg.intervals_ms(self.base_ms)

    @property
    def multipliers(self) -> tuple[int, ...]:
        return self.bin_cfg.multipliers(self.base_ms)

    @property
    def default_bin(self) -> int:
        return len(self.filters)

    @property
    def total_filter_bits(self) -> int:
        return sum(f.params.m for f in self.filters)

    def query(self, row: int) -> int:
        """First filter claiming the row, shortest interval first; default if none."""
        for b, filt in enumerate(self.filters):
            if filt.contains(row):
                return b
        return self.default_bin

    def claims(self, rows: np.ndarray) -> list[np.ndarray]:
        """Each filter's membership mask over `rows`, shortest interval first."""
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        return [filt.contains_many(rows) for filt in self.filters]

    def first_claims(self, claims: list[np.ndarray], shape) -> np.ndarray:
        """Bin per row from claims(): the first claiming filter, default if none.

        The bins are in the smallest unsigned type that holds the default bin.
        """
        out = np.full(shape, self.default_bin, dtype=np.min_scalar_type(self.default_bin))
        for b in range(len(claims) - 1, -1, -1):
            out[claims[b]] = b
        return out


def build_bins(
    measured_ms: np.ndarray,
    bin_cfg: BinConfig,
    base_ms: float,
    bloom_budget: float | BloomParams = 1e-3,
    seed: int = 0,
) -> BinSet:
    """Insert each row into the filter of the bin holding its profiled retention.

    measured_ms is the guard-divided profile of every row, and base_ms the
    base refresh period.  bloom_budget is either a per-bin target
    false-positive rate (filters are sized for the actual bin populations)
    or explicit BloomParams shared by all bins.  This is bin_blocks over
    the profile as one block.
    """
    return bin_blocks([(0, measured_ms)], bin_cfg, base_ms, bloom_budget, seed)


def bin_blocks(blocks, bin_cfg: BinConfig, base_ms: float, bloom_budget, seed: int) -> BinSet:
    """build_bins over (first row, measured retention) blocks that cover the device in row order.

    The filters are sized from the bin counts of the whole device, so each
    filter bin's member rows are kept, per block as offsets from its first
    row in the smallest unsigned type that holds them, until the last block
    is in; then each filter gets its rows one block at a time.  The rows of
    the default bin are only counted.  Beyond the filter bins' rows, memory
    is bounded by the largest block.
    """
    bin_cfg.multipliers(base_ms)  # rejects a threshold that is not a whole multiple of the base
    nbins = bin_cfg.num_filter_bins
    counts = np.zeros(nbins + 1, dtype=np.int64)
    members = []  # (first row, each filter bin's member offsets) per block
    first_below, n_below = None, 0
    for start, measured in blocks:
        below = np.flatnonzero(measured < base_ms)
        if below.size and first_below is None:
            first_below = (start + int(below[0]), float(measured[below[0]]))
        n_below += below.size
        idx = bin_cfg.classify(measured)
        counts += np.bincount(idx, minlength=nbins + 1)
        binned = np.flatnonzero(idx < nbins)
        binned_idx = idx[binned]
        binned = binned.astype(np.min_scalar_type(max(measured.size - 1, 0)))
        members.append((start, [binned[binned_idx == b] for b in range(nbins)]))
    if n_below:
        raise UnbinnableRowError(
            row=first_below[0],
            measured_ms=first_below[1],
            base_ms=base_ms,
            count=n_below,
        )

    filters = []
    for b in range(nbins):
        if isinstance(bloom_budget, BloomParams):
            params = bloom_budget
        else:
            params = plan_params(
                float(bloom_budget),
                max(1, int(counts[b])),
                seed=rng.hash_words(seed, rng.TAG_FILTER_SEED, b),
            )
        filters.append(BloomFilter(params))
    for start, offsets in members:
        for filt, rows in zip(filters, offsets):
            filt.insert_many(rows.astype(np.uint64) + np.uint64(start))
    return BinSet(bin_cfg=bin_cfg, base_ms=base_ms, filters=filters, counts=tuple(int(c) for c in counts))


def refreshes_in_horizon(horizon_windows: int, multiplier):
    """Number of windows w in [0, horizon) with w % multiplier == 0 (ceil division)."""
    return -(-horizon_windows // multiplier)

