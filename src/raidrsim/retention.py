"""Ground-truth model of per-row retention behavior.

Rows carry a base retention time drawn from a configurable tail
distribution, an optional worst-case data-pattern multiplier, and an
optional two-state retention toggle stepped once per refresh window.
Retention is modeled per row (the minimum over its cells); the binning
controller never needs finer grain.

All sampling goes through counter-based streams keyed by
(seed, purpose, row [, window]), so regeneration is order-independent and
bit-identical across runs, and any range of rows can be generated alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng

DEFAULT_TRFC_TABLE_NS = {1.0: 110.0, 2.0: 160.0, 4.0: 260.0, 8.0: 350.0}

DIST_TWO_POPULATION = "two-population"
DIST_LOGNORMAL_TAIL = "lognormal-tail"


def _default_trfc_table() -> dict[float, float]:
    return dict(DEFAULT_TRFC_TABLE_NS)


@dataclass(frozen=True)
class DeviceConfig:
    """Chip geometry and refresh timing.

    trefw_ms is the base refresh period: the retention bins refresh at
    whole multiples of it, and bin 0 at trefw_ms itself.  trfc_table_ns
    maps density in Gbit to the per-command refresh latency.
    """

    density_bits: int = 8_192_000_000
    row_size_bits: int = 8192
    trefw_ms: float = 64.0
    refresh_cmds_per_window: int = 8192
    trfc_table_ns: dict[float, float] = field(default_factory=_default_trfc_table)

    def __post_init__(self):
        if self.density_bits < 1 or self.row_size_bits < 1:
            raise ValueError("density_bits and row_size_bits must be positive")
        if self.density_bits % self.row_size_bits:
            raise ValueError(
                f"density_bits {self.density_bits} not divisible by row_size_bits {self.row_size_bits}"
            )
        if self.trefw_ms <= 0:
            raise ValueError("trefw_ms must be positive")
        if self.refresh_cmds_per_window < 1:
            raise ValueError("refresh_cmds_per_window must be positive")
        if not self.trfc_table_ns:
            raise ValueError("trfc_table_ns must not be empty")
        last = 0.0
        for d in sorted(self.trfc_table_ns):
            v = self.trfc_table_ns[d]
            if d <= 0 or v <= 0:
                raise ValueError("trfc_table_ns entries must be positive")
            if v < last:
                raise ValueError("trfc_table_ns must be non-decreasing in density")
            last = v

    @property
    def num_rows(self) -> int:
        return self.density_bits // self.row_size_bits

    @property
    def density_gbit(self) -> float:
        return self.density_bits / 2**30

    @classmethod
    def from_rows(cls, num_rows: int, row_size_bits: int = 8192, **kw) -> "DeviceConfig":
        return cls(density_bits=num_rows * row_size_bits, row_size_bits=row_size_bits, **kw)


@dataclass(frozen=True)
class RetentionDistribution:
    """Tail distribution of per-row base retention.

    A weak_fraction of rows draws from a law supported on
    [floor_ms, weak_high_ms); the rest sit at strong_value_ms.  The
    lognormal-tail kind clips the lognormal draw into the same support.
    """

    kind: str = DIST_TWO_POPULATION
    weak_fraction: float = 1e-3
    floor_ms: float = 64.0
    weak_high_ms: float = 256.0
    strong_value_ms: float = 2560.0
    lognormal_median_ms: float = 110.0
    lognormal_sigma: float = 0.4

    def __post_init__(self):
        if self.kind not in (DIST_TWO_POPULATION, DIST_LOGNORMAL_TAIL):
            raise ValueError(f"unknown retention distribution kind {self.kind!r}")
        if not 0.0 <= self.weak_fraction <= 1.0:
            raise ValueError("weak_fraction must be in [0, 1]")
        if self.floor_ms <= 0:
            raise ValueError("floor_ms must be positive")
        if self.weak_high_ms <= self.floor_ms:
            raise ValueError("weak_high_ms must exceed floor_ms")
        if self.strong_value_ms < self.weak_high_ms:
            raise ValueError("strong_value_ms must be >= weak_high_ms")
        if self.lognormal_median_ms <= 0 or self.lognormal_sigma <= 0:
            raise ValueError("lognormal parameters must be positive")


@dataclass(frozen=True)
class VrtModel:
    """Two-state retention toggle, stepped once per refresh window."""

    enabled: bool = False
    affected_fraction: float = 0.01
    low_factor: float = 0.5
    p_high_to_low: float = 0.1
    p_low_to_high: float = 0.1

    def __post_init__(self):
        for name in ("affected_fraction", "p_high_to_low", "p_low_to_high"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.low_factor <= 1.0:
            raise ValueError("low_factor must be in (0, 1]")


@dataclass(frozen=True)
class DpdModel:
    """Worst-case data-pattern multiplier; one worst pattern per row."""

    enabled: bool = False
    num_patterns: int = 8
    worst_pattern_factor: float = 0.5

    def __post_init__(self):
        if self.num_patterns < 1:
            raise ValueError("num_patterns must be >= 1")
        if not 0.0 < self.worst_pattern_factor <= 1.0:
            raise ValueError("worst_pattern_factor must be in (0, 1]")


def vrt_walk(low: np.ndarray, h: np.ndarray, vrt: VrtModel) -> np.ndarray:
    """The toggle states after each of len(h) consecutive steps from the states low.

    h is a (windows, rows) array of step hashes, one window per line; the
    result has its shape, and its line t is the state after step t.  A low
    row stays low unless uniform01_of(h) < p_low_to_high; a high row drops
    low iff uniform01_of(h) < p_high_to_low, both compared on h >> 11 (see
    rng.uniform_threshold).  With stay and drop those two tests, the next
    state is `drop ^ (low & (stay ^ drop))`: stay for a low row, drop for a
    high one.  So each window costs two in-place bool operations on one line.
    This is the engine's and the profiling campaign's one toggle kernel.
    """
    k = h >> np.uint64(11)
    out = k >= rng.uniform_threshold(vrt.p_low_to_high)  # stay
    drop = k < rng.uniform_threshold(vrt.p_high_to_low)
    out ^= drop
    prev = low
    for line, line_drop in zip(out, drop):
        line &= prev
        line ^= line_drop
        prev = line
    return out


# (window, row) pairs per tile of vrt_tiles; a tile's uint64 temporaries,
# 256 KB each, stay in L2 cache
TILE_PAIRS = 1 << 15


def vrt_tiles(prefix: np.ndarray, low: np.ndarray, vrt: VrtModel, start: int, stop: int):
    """Yield (windows, lows), tile by tile over the windows [start, stop): the toggle of prefix's rows from low.

    prefix holds each row's step-stream hash and low its state before window
    start; low is never written.  A tile holds at most TILE_PAIRS (window,
    row) pairs and at least one window, in one hash call and one vrt_walk;
    line t of lows is the state at windows[t].  Window 0 is the fresh state
    and takes no step.  No rows yield no tile.
    """
    if prefix.size == 0:
        return
    tile = max(1, TILE_PAIRS // prefix.size)
    for w0 in range(start, stop, tile):
        windows = np.arange(w0, min(w0 + tile, stop))
        stepped = windows[windows > 0]
        lows = vrt_walk(low, rng.extend_hash_vec(prefix, stepped[:, None]), vrt)
        if stepped.size < windows.size:
            lows = np.concatenate([low[None], lows])
        low = lows[-1]
        yield windows, lows


class RowBuffer:
    """An append-only array that doubles its capacity as it grows.

    The build pass keeps a few rows of each block of temporaries: the
    state rows, their jmin and the high retentions of the VRT rows that can
    fail.  One buffer per kind, instead of one small array per block, keeps
    those rows from splitting the heap between the blocks' freed pages.  It
    holds up to twice its rows, so it is not used for the filter bins'
    members, which can be most of the device (raidr.BinAccumulator keeps
    them per block, at most a bit per row).  Values are stored in the dtype
    the buffer is built with.
    """

    def __init__(self, dtype):
        self._data = np.zeros(0, dtype=dtype)
        self.size = 0

    def extend(self, values: np.ndarray) -> None:
        end = self.size + values.size
        if end > self._data.size:
            data = np.empty(max(end, 2 * self._data.size), dtype=self._data.dtype)
            data[:self.size] = self._data[:self.size]
            self._data = data
        self._data[self.size:end] = values
        self.size = end

    def array(self) -> np.ndarray:
        return self._data[:self.size]


@dataclass(frozen=True, eq=False)
class SparseRows:
    """One value per row of [start, start + num_rows): plain at every row but the offsets `at`.

    at holds offsets from start, ascending and distinct, and values their
    own values.  Few rows of a device differ from a plain row (one that is
    neither weak nor toggles), so the engine's build pass carries a block
    of rows in this form; dense() is the one expansion to every row's
    value, which `raidrsim profile` and the reference oracle use.
    """

    start: int
    num_rows: int
    plain: float
    at: np.ndarray
    values: np.ndarray

    @property
    def num_plain(self) -> int:
        return self.num_rows - self.at.size

    def dense(self) -> np.ndarray:
        out = np.full(self.num_rows, self.plain)
        out[self.at] = self.values
        return out

    def first_plain(self) -> int:
        """The offset of the first plain row; at.size if there is none."""
        # at[i] >= i, and at[i] > i first where row i is plain
        gaps = np.flatnonzero(self.at != np.arange(self.at.size))
        return int(gaps[0]) if gaps.size else self.at.size


@dataclass(frozen=True, eq=False)
class RetentionGroundTruth:
    """True retention of the rows [base.start, base.start + base.num_rows) of seed's device: an immutable record.

    Every stream is keyed by row index, so the ground truth of a row range
    equals the same rows of the whole device's, and the engine generates
    the device one range at a time.  It is sparse: base.at holds the own
    rows, each weak or toggling row, with its base retention (the plain
    value, strong_value_ms, for a toggling row that is not weak), and
    toggles, aligned with base.at, marks the toggling ones.  A plain row
    has the true retention strong_value_ms times the DPD factor.  The
    toggle's state is not part of the record: whoever steps it (the
    engine, the profiling campaign) holds its own, drawn with vrt_walk.
    """

    device: DeviceConfig
    vrt: VrtModel
    dpd: DpdModel
    seed: int
    base: SparseRows
    toggles: np.ndarray

    @property
    def start(self) -> int:
        return self.base.start

    @property
    def num_rows(self) -> int:
        return self.base.num_rows

    @property
    def vrt_retention_high(self) -> np.ndarray:
        """Each toggling row's retention in its high state, in row order, by min_possible's float operations."""
        return self.base.values[self.toggles] * self._dpd_factor()

    def _dpd_factor(self) -> float:
        return self.dpd.worst_pattern_factor if self.dpd.enabled else 1.0

    def min_possible(self) -> SparseRows:
        """Per-row minimum over all patterns and toggle states (what a perfect profiler sees)."""
        f = self._dpd_factor()
        values = self.base.values * f
        values[self.toggles] *= self.vrt.low_factor
        return SparseRows(self.start, self.num_rows, self.base.plain * f, self.base.at, values)


def generate_rows(
    device: DeviceConfig,
    dist: RetentionDistribution,
    vrt: VrtModel,
    dpd: DpdModel,
    seed: int,
    start: int,
    stop: int,
) -> RetentionGroundTruth:
    """Ground truth of the rows [start, stop) of seed's device, drawn from those rows' streams alone.

    Weak rows, and with VRT enabled toggling rows, are selected by
    independent per-row Bernoulli draws, so each count is binomial around
    its fraction times num_rows.  The tail law is drawn at the weak rows
    alone; each draw is a function of its row.  The weak and toggling rows
    are the record's own rows, decided here once; every other row's base
    is strong_value_ms, held once.  dist.floor_ms is at least
    device.trefw_ms, as ExperimentSpec checks.
    """
    rows = np.arange(start, stop, dtype=np.uint64)
    weak = rng.bernoulli_vec(dist.weak_fraction, seed, rng.TAG_WEAK_SELECT, rows)
    if dist.kind == DIST_TWO_POPULATION:
        u = rng.uniform01_vec(seed, rng.TAG_BASE_RETENTION, rows[weak])
        draw = dist.floor_ms + u * (dist.weak_high_ms - dist.floor_ms)
    else:
        z = rng.standard_normal_vec(seed, rng.TAG_BASE_RETENTION, rows[weak])
        draw = dist.lognormal_median_ms * np.exp(dist.lognormal_sigma * z)
        # clip into the supported band; mass piles at the edges by design
        draw = np.clip(draw, dist.floor_ms, np.nextafter(dist.weak_high_ms, 0.0))
    toggle = np.zeros(rows.size, dtype=bool)
    own = weak
    if vrt.enabled:
        toggle = rng.bernoulli_vec(vrt.affected_fraction, seed, rng.TAG_VRT_FLAG, rows)
        own = weak | toggle
    at = np.flatnonzero(own)
    values = np.full(at.size, float(dist.strong_value_ms))
    # the weak rows are own rows, and both run in row order
    values[weak[at]] = draw
    base = SparseRows(start, rows.size, float(dist.strong_value_ms), at, values)
    return RetentionGroundTruth(device, vrt, dpd, seed, base, toggle[at])
