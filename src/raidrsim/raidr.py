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
from .retention import SparseRows


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
        """Each filter's claimed offsets into `rows`, an integer array, ascending, shortest interval first.

        A bin that received no row has a filter with no bit set, which
        claims nothing, so it is not queried and hashes nothing.
        """
        return [filt.claimed(rows) if n else np.empty(0, dtype=np.intp)
                for filt, n in zip(self.filters, self.counts[:-1])]

    def first_claims(self, claims: list[np.ndarray], num_rows: int) -> np.ndarray:
        """The bin map of the num_rows keys that claims() took: each key's first claiming filter, default if none.

        Claims are written from the last filter to the first, so the shortest
        interval wins, in the smallest unsigned type that holds the default bin.
        """
        out = np.full(num_rows, self.default_bin, dtype=np.min_scalar_type(self.default_bin))
        for b in range(len(claims) - 1, -1, -1):
            out[claims[b]] = b
        return out


def pack_members(members: np.ndarray, num_rows: int) -> tuple[bool, np.ndarray]:
    """(bitmap, data): a block's members in the smaller of two forms.

    members are offsets below num_rows, ascending and distinct, or a bool
    mask of the block's num_rows rows.  data holds the offsets in the
    smallest unsigned type that holds num_rows - 1, or, where that takes
    more bytes, np.packbits of the member mask, num_rows / 8 bytes; bitmap
    tells which.  member_rows inverts it.
    """
    offset_type = np.min_scalar_type(num_rows - 1)
    is_mask = members.dtype == bool
    count = np.count_nonzero(members) if is_mask else members.size
    if count * offset_type.itemsize <= -(-num_rows // 8):
        return False, (np.flatnonzero(members) if is_mask else members).astype(offset_type)
    if not is_mask:
        mask = np.zeros(num_rows, dtype=bool)
        mask[members] = True
        members = mask
    return True, np.packbits(members)


def member_rows(start: int, num_rows: int, bitmap: bool, data: np.ndarray) -> np.ndarray:
    """The device indices, as uint64, of the block of rows [start, start + num_rows) that pack_members packed."""
    offsets = np.flatnonzero(np.unpackbits(data, count=num_rows)) if bitmap else data
    rows = offsets.astype(np.uint64)
    rows += np.uint64(start)
    return rows


def _batches(arrays, size: int):
    """The concatenation of arrays, cut into pieces of size elements, the last one shorter.

    A bin with few rows per block then still reaches its filter in few
    insert_many calls.
    """
    pending, held = [], 0
    for a in arrays:
        pending.append(a)
        held += a.size
        if held >= size:
            joined = np.concatenate(pending)
            cut = held - held % size
            for lo in range(0, cut, size):
                yield joined[lo:lo + size]
            pending, held = [joined[cut:]], held - cut
    if held:
        yield np.concatenate(pending)


class BinAccumulator:
    """Bins of a profile fed as SparseRows blocks that cover the device in row order: add() each, then finish().

    Each row goes into the filter of the bin holding its guard-divided
    measured retention; base_ms is the base refresh period.  A whole
    profile is one block.  Accumulators of several profiles advance in
    lockstep, a block each, where their profiles share a walk over one
    ground truth.

    A block's plain value is classified once and its plain rows counted
    in its bin.  The filters are sized from the bin counts of the whole
    device, so each filter bin keeps its member rows of each block until
    the last block is in, in the smaller of two forms (pack_members):
    block-relative offsets where the bin has few rows in the block, else
    a bitmap of the block, one bit per row.  Then finish gives each filter
    its rows, decoded block by block and inserted at most a quarter of the
    largest block at a time; a Bloom filter's bits do not depend on the
    order of its inserts.  The rows of the default bin are only counted.
    Beyond the filter bins' members, at most a bit per row and bin,
    memory is bounded by the largest block.
    """

    def __init__(self, bin_cfg: BinConfig, base_ms: float):
        bin_cfg.multipliers(base_ms)  # rejects a threshold that is not a whole multiple of the base
        self.bin_cfg = bin_cfg
        self.base_ms = base_ms
        self.counts = np.zeros(bin_cfg.num_filter_bins + 1, dtype=np.int64)
        # per filter bin, (start, num_rows, bitmap, data) of each block
        self.members = [[] for _ in range(bin_cfg.num_filter_bins)]
        self.block_rows = 1
        self.first_below, self.n_below = None, 0

    def add(self, block: SparseRows) -> None:
        """Count the block's rows in their bins and keep each filter bin's members of it."""
        bin_cfg, base_ms = self.bin_cfg, self.base_ms
        below = np.flatnonzero(block.values < base_ms)
        first = [(int(block.at[below[0]]), float(block.values[below[0]]))] if below.size else []
        self.n_below += below.size
        if block.num_plain and block.plain < base_ms:
            first.append((block.first_plain(), float(block.plain)))
            self.n_below += block.num_plain
        if first and self.first_below is None:
            offset, value = min(first)
            self.first_below = (block.start + offset, value)
        idx = bin_cfg.classify(block.values)
        self.counts += np.bincount(idx, minlength=self.counts.size)
        plain_bin = bin_cfg.classify(block.plain)
        self.counts[plain_bin] += block.num_plain
        self.block_rows = max(self.block_rows, block.num_rows)
        for b, held in enumerate(self.members):
            if b == plain_bin:  # every row but the own rows of other bins
                in_bin = np.ones(block.num_rows, dtype=bool)
                in_bin[block.at[idx != b]] = False
            else:
                in_bin = block.at[idx == b]
            held.append((block.start, block.num_rows, *pack_members(in_bin, block.num_rows)))

    def finish(self, bloom_budget, seed: int) -> BinSet:
        """The bins of every block added: UnbinnableRowError if a row is under base_ms.

        bloom_budget is either a per-bin target false-positive rate (filters
        are sized for the actual bin populations) or explicit BloomParams
        shared by all bins.
        """
        if self.n_below:
            raise UnbinnableRowError(
                row=self.first_below[0],
                measured_ms=self.first_below[1],
                base_ms=self.base_ms,
                count=self.n_below,
            )
        filters = []
        for b, count in enumerate(self.counts[:-1]):
            if isinstance(bloom_budget, BloomParams):
                params = bloom_budget
            else:
                params = plan_params(
                    float(bloom_budget),
                    max(1, int(count)),
                    seed=rng.hash_words(seed, rng.TAG_FILTER_SEED, b),
                )
            filters.append(BloomFilter(params))
        batch = max(1, self.block_rows // 4)
        members, self.members = self.members, []  # freed once inserted, before the caller's pass 2
        for filt, held in zip(filters, members):
            for rows in _batches((member_rows(*packed) for packed in held), batch):
                filt.insert_many(rows)
        return BinSet(bin_cfg=self.bin_cfg, base_ms=self.base_ms, filters=filters,
                      counts=tuple(int(c) for c in self.counts))


def refreshes_in_horizon(horizon_windows: int, multiplier):
    """Number of windows w in [0, horizon) with w % multiplier == 0 (ceil division)."""
    return -(-horizon_windows // multiplier)

