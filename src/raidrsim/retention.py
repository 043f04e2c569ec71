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

import math
from dataclasses import dataclass, field
from functools import cached_property

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


def _stay_drop(h: np.ndarray, vrt: VrtModel) -> tuple[np.ndarray, np.ndarray]:
    """Whether a low row stays low, and whether a high row drops low, on the step hashes h.

    A low row stays low unless uniform01_of(h) < p_low_to_high; a high row
    drops low iff uniform01_of(h) < p_high_to_low.  The uniform is
    (h >> 11) * 2**-53, so `u < p` is exactly `h >> 11 < ceil(p * 2**53)`;
    p * 2**53 is itself exact for p in [0, 1], a power-of-two scaling.
    """
    k = h >> np.uint64(11)
    stay = k >= np.uint64(math.ceil(vrt.p_low_to_high * 2.0**53))
    drop = k < np.uint64(math.ceil(vrt.p_high_to_low * 2.0**53))
    return stay, drop


def vrt_step(low: np.ndarray, h: np.ndarray, vrt: VrtModel) -> np.ndarray:
    """One transition of the retention toggle, drawn from the step hashes h (see _stay_drop).

    RetentionGroundTruth.step_vrt takes one step at a time with it; the
    engine and the profiling campaign step whole tiles through vrt_walk,
    so the two paths check each other.
    """
    stay, drop = _stay_drop(h, vrt)
    return (low & stay) | (drop & ~low)


def vrt_walk(low: np.ndarray, h: np.ndarray, vrt: VrtModel) -> np.ndarray:
    """The toggle states after each of len(h) consecutive steps from the states low.

    h is a (windows, rows) array of step hashes, one window per line; the
    result has its shape, and its line t is vrt_step applied t + 1 times.
    With stay and drop as in vrt_step, the next state is
    `drop ^ (low & (stay ^ drop))`: stay for a low row, drop for a high
    one.  So each window costs two in-place bool operations on one line.
    """
    out, drop = _stay_drop(h, vrt)
    out ^= drop
    prev = low
    for line, line_drop in zip(out, drop):
        line &= prev
        line ^= line_drop
        prev = line
    return out


class RetentionGroundTruth:
    """True retention state of the rows [start, start + num_rows), regenerable from config + seed.

    Every stream is keyed by row index, so the ground truth of a row range
    equals the same rows of the whole device's, and the engine generates
    the device one range at a time.  Row arguments and vrt_rows are device
    row indices; base_retention_ms and has_vrt are indexed from start.

    Mutable only through step_vrt, which a standalone caller such as the
    reference oracle uses to walk the toggle chain; the engine keeps its
    own toggle state and never mutates the ground truth.  The toggle state
    is held for the affected rows only (vrt_rows_low, aligned with
    vrt_rows), so a step costs time in the number of affected rows.
    """

    def __init__(self, device, vrt, dpd, seed, base_retention_ms, vrt_rows, start=0):
        self.device = device
        self.vrt = vrt
        self.dpd = dpd
        self.seed = seed
        self.start = start
        self.base_retention_ms = base_retention_ms
        self.vrt_rows = vrt_rows
        self.has_vrt = np.zeros(base_retention_ms.size, dtype=bool)
        self.has_vrt[vrt_rows - start] = True
        self.current_window = 0
        self.vrt_rows_low = np.zeros(vrt_rows.size, dtype=bool)
        # each affected row's retention in its high and low state, by the
        # same float operations as min_possible_retention
        self.vrt_retention_high = base_retention_ms[vrt_rows - start] * self._dpd_factor()
        self.vrt_retention_low = self.vrt_retention_high * vrt.low_factor

    @property
    def num_rows(self) -> int:
        return self.base_retention_ms.size

    @property
    def rows(self) -> np.ndarray:
        """The device row indices covered, as uint64 stream keys."""
        return np.arange(self.start, self.start + self.num_rows, dtype=np.uint64)

    @cached_property
    def vrt_step_prefix(self) -> np.ndarray:
        """Hash of (seed, TAG_VRT_STEP, row) per affected row: the window-independent prefix of its steps."""
        return rng.hash_words_vec(self.seed, rng.TAG_VRT_STEP, self.vrt_rows)

    def _dpd_factor(self) -> float:
        return self.dpd.worst_pattern_factor if self.dpd.enabled else 1.0

    def step_vrt(self, window: int) -> "RetentionGroundTruth":
        """Advance the retention toggle of affected rows into `window`.

        Must be called once per window in increasing order.
        """
        if window != self.current_window + 1:
            raise ValueError(
                f"step_vrt windows must be consecutive; at {self.current_window}, got {window}"
            )
        if self.vrt_rows.size:
            h = rng.extend_hash_vec(self.vrt_step_prefix, window)
            self.vrt_rows_low = vrt_step(self.vrt_rows_low, h, self.vrt)
        self.current_window = window
        return self

    def true_min_retention(self, row: int, window: int) -> float:
        """Worst-case retention of `row` during `window` (ms)."""
        if not self.start <= row < self.start + self.num_rows:
            raise IndexError(f"row {row} out of range [{self.start}, {self.start + self.num_rows})")
        if window != self.current_window:
            raise ValueError(
                f"ground truth is at window {self.current_window}, not {window}; call step_vrt in order"
            )
        factor = self._dpd_factor()
        i = row - self.start
        if self.has_vrt[i] and self.vrt_rows_low[np.searchsorted(self.vrt_rows, row)]:
            factor *= self.vrt.low_factor
        return float(self.base_retention_ms[i]) * factor

    def min_possible_retention(self) -> np.ndarray:
        """Per-row minimum over all patterns and toggle states (what a perfect profiler sees)."""
        out = self.base_retention_ms * self._dpd_factor()
        if self.vrt.enabled:
            out = np.where(self.has_vrt, out * self.vrt.low_factor, out)
        return out


def draw_vrt_rows(vrt: VrtModel, seed: int, start: int, stop: int) -> np.ndarray:
    """Device indices of the rows in [start, stop) that carry a retention toggle, ascending."""
    if not vrt.enabled:
        return np.zeros(0, dtype=np.int64)
    rows = np.arange(start, stop, dtype=np.uint64)
    return start + np.flatnonzero(rng.uniform01_vec(seed, rng.TAG_VRT_FLAG, rows) < vrt.affected_fraction)


def generate_rows(
    device: DeviceConfig,
    dist: RetentionDistribution,
    vrt: VrtModel,
    dpd: DpdModel,
    seed: int,
    start: int,
    stop: int,
    vrt_rows: np.ndarray,
) -> RetentionGroundTruth:
    """Ground truth of the rows [start, stop), whose toggling rows are vrt_rows (see draw_vrt_rows).

    Weak rows are selected by independent per-row Bernoulli draws, so the
    weak count is binomial around weak_fraction * num_rows.  The tail law
    is drawn at the weak rows alone; each draw is a function of its row.
    """
    if dist.floor_ms < device.trefw_ms:
        raise ValueError(
            f"floor_ms {dist.floor_ms} below trefw_ms {device.trefw_ms}: rows would be "
            "unrefreshable at the base rate"
        )
    rows = np.arange(start, stop, dtype=np.uint64)
    weak = np.flatnonzero(rng.uniform01_vec(seed, rng.TAG_WEAK_SELECT, rows) < dist.weak_fraction)
    base = np.full(rows.size, float(dist.strong_value_ms))
    if weak.size:
        at = rows[weak]
        if dist.kind == DIST_TWO_POPULATION:
            u = rng.uniform01_vec(seed, rng.TAG_BASE_RETENTION, at)
            draw = dist.floor_ms + u * (dist.weak_high_ms - dist.floor_ms)
        else:
            z = rng.standard_normal_vec(seed, rng.TAG_BASE_RETENTION, at)
            draw = dist.lognormal_median_ms * np.exp(dist.lognormal_sigma * z)
            # clip into the supported band; mass piles at the edges by design
            draw = np.clip(draw, dist.floor_ms, np.nextafter(dist.weak_high_ms, 0.0))
        base[weak] = draw
    return RetentionGroundTruth(device, vrt, dpd, seed, base, vrt_rows, start)


def generate_ground_truth(
    device: DeviceConfig,
    dist: RetentionDistribution,
    vrt: VrtModel,
    dpd: DpdModel,
    seed: int,
) -> RetentionGroundTruth:
    """Sample per-row retention attributes of the whole device, deterministically in all inputs."""
    n = device.num_rows
    return generate_rows(device, dist, vrt, dpd, seed, 0, n, draw_vrt_rows(vrt, seed, 0, n))
