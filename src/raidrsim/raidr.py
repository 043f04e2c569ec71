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
from .retention import RowBuffer, locate_rows, union_rows


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

    def claims(self, rows: np.ndarray) -> list[np.ndarray]:
        """Each filter's claimed offsets into `rows`, ascending, shortest interval first."""
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        return [filt.claimed(rows) for filt in self.filters]

    def first_claims(self, claims: list[np.ndarray], at: np.ndarray) -> np.ndarray:
        """Bin of each of the offsets `at` from claims(): the first claiming filter, default if none.

        The bins are in the smallest unsigned type that holds the default bin.
        """
        out = np.full(np.shape(at), self.default_bin, dtype=np.min_scalar_type(self.default_bin))
        for b in range(len(claims) - 1, -1, -1):
            out[locate_rows(claims[b], at)[1]] = b
        return out

    def queried(self, claims: list[np.ndarray], num_rows: int) -> np.ndarray:
        """Rows queried to each bin, default last, of the num_rows keys that claims() took.

        A filter's rows are its claims that no earlier filter made; the
        default bin's are the rest.
        """
        out = np.zeros(len(claims) + 1, dtype=np.int64)
        taken = np.zeros(0, dtype=np.intp)
        for b, claimed in enumerate(claims):
            out[b] = claimed.size - np.count_nonzero(locate_rows(taken, claimed)[1])
            taken = union_rows(taken, claimed)
        out[-1] = num_rows - taken.size
        return out


def bin_blocks(blocks, bin_cfg: BinConfig, base_ms: float, bloom_budget, seed: int) -> BinSet:
    """Bins of a profile given as SparseRows blocks that cover the device in row order.

    Each row goes into the filter of the bin holding its guard-divided
    measured retention; base_ms is the base refresh period.  bloom_budget
    is either a per-bin target false-positive rate (filters are sized for
    the actual bin populations) or explicit BloomParams shared by all
    bins.  A whole profile is one block.

    A block's plain value is classified once and its plain rows counted
    in its bin.  The filters are sized from the bin counts of the whole
    device, so each filter bin's member rows are kept, in one RowBuffer
    per bin in the smallest unsigned type that holds them, until the last
    block is in; then each filter gets its rows, as many at a time as the
    largest block holds.  The rows of the default bin are only counted.
    Beyond the filter bins' rows, memory is bounded by the largest block.
    """
    bin_cfg.multipliers(base_ms)  # rejects a threshold that is not a whole multiple of the base
    nbins = bin_cfg.num_filter_bins
    counts = np.zeros(nbins + 1, dtype=np.int64)
    members = [RowBuffer() for _ in range(nbins)]
    block_rows = 1
    first_below, n_below = None, 0
    for block in blocks:
        below = np.flatnonzero(block.values < base_ms)
        first = [(int(block.at[below[0]]), float(block.values[below[0]]))] if below.size else []
        n_below += below.size
        if block.num_plain and block.plain < base_ms:
            first.append((block.first_plain(), float(block.plain)))
            n_below += block.num_plain
        if first and first_below is None:
            offset, value = min(first)
            first_below = (block.start + offset, value)
        idx = bin_cfg.classify(block.values)
        counts += np.bincount(idx, minlength=nbins + 1)
        plain_bin = bin_cfg.classify(block.plain)
        counts[plain_bin] += block.num_plain
        block_rows = max(block_rows, block.num_rows)
        row_type = np.min_scalar_type(block.start + block.num_rows - 1)
        for b, rows in enumerate(members):
            offsets = block.at[idx == b]
            if b == plain_bin and block.num_plain:
                offsets = union_rows(offsets, block.plain_rows())
            rows.extend((offsets + block.start).astype(row_type))
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
    for filt, rows in zip(filters, members):
        rows = rows.array()
        for lo in range(0, rows.size, block_rows):
            filt.insert_many(rows[lo:lo + block_rows])
    return BinSet(bin_cfg=bin_cfg, base_ms=base_ms, filters=filters, counts=tuple(int(c) for c in counts))


def refreshes_in_horizon(horizon_windows: int, multiplier):
    """Number of windows w in [0, horizon) with w % multiplier == 0 (ceil division)."""
    return -(-horizon_windows // multiplier)

