"""Closed-loop refresh simulation over discrete base windows.

The pipeline is: generate ground truth, profile it, build the Bloom bins,
then walk the horizon.  Bin membership is immutable after build, so
per-row refresh counts follow exactly from the modular schedule; rows
whose retention never changes get their failure counts in closed form,
while rows with an active retention toggle are stepped through every
window.
Both paths are validated to match a brute-force step-through row by row.

The engine is built in two passes over blocks of _CHUNK_ROWS rows, so its
memory is set by one block, not by the device.  Both passes are sparse: they
touch a row's own data only where it differs from a plain row, one that is
neither weak nor VRT.  All plain rows share one true retention,
strong_value_ms times the DPD factor, and one profiled value, or two in
measured mode with DPD (whether the campaign tested the worst pattern).
Pass 1 generates and profiles one block at a time, from its rows alone, as
SparseRows: the block's own rows, its weak and VRT rows, which
generate_rows draws once, and the plain value; profile_rows runs the
block's own profiling campaign.  Each
plain value is classified once and its rows counted in its bin; a plain
row's pattern coverage is drawn only where it changes the row's bin or
takes it under the base period, and the campaign walks only the VRT rows
whose low state would do either.  Of each block the
engine keeps each filter bin's member rows, as offsets or a bitmap of the
block, whichever is smaller (raidr.pack_members), and, in one growing
buffer per kind, one set of state rows with their jmin, the windows past a
refresh at which a row without VRT starts to fail: the weak rows without
VRT that can fail, and the VRT rows that can fail in some bin, with
their high retention, at a jmin past every multiplier.  The bin counts
then size the filters.  Pass 2 gives everything fixed per row once
the bins exist (refresh counts, the closed-form failures
and each filter's claim count): it queries each filter once per row into a
bin map per block, the first claiming filter of each row, which gives the
rows queried to each bin and the bins of the state rows.  The plain rows
share one jmin, so their static failures are counted per bin.  Pass 2 never
reads the profile: a Bloom filter has no false negatives, so the bin counts
turn the claim counts into the per-filter FPRs and fix the refreshes the
profiled schedule would issue.

Failure accounting is conservative: a row fails a window when the time
since its last refresh exceeds the smallest true retention it held at any
point in that gap.  A VRT row only ever holds two retentions, so its
running minimum is a flag, "low state seen since the last refresh".  A
VRT row whose longest refresh gap, m * trefw_ms, is at most its low
retention never fails in either state, and no result reads its toggle.
So the engine holds VRT state only for the rows that can fail, and
steps only those, over retention.vrt_tiles' tiles of windows, as the
campaign does.  A tile is one hash call and a few numpy calls; only the
toggle walk and the "seen" scan take a call per window, four in-place
bool operations on one line of the tile.

A checkpoint (version 4) is a `<4sI32s` header (magic `RSIM`, version,
SHA-256 of the payload) and a payload of plain data: the length-prefixed
canonical config text, the window and the VRT failure count, then three
flags per VRT row that can fail, one byte each: low, seen and unsafe.
Restore parses the config, rebuilds the engine from it and checks the
flags against that engine's rows and refresh schedule.  It never
executes code from the blob.
"""

from __future__ import annotations

import ctypes
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .bloom import BloomParams
from .experiment import ExperimentSpec, config_sha256, config_text, parse_config_text, sha256, spec_from_flat
from .profiler import MODE_ORACLE, profile_rows
from .raidr import BinSet, bin_blocks, refreshes_in_horizon
from .retention import RowBuffer, generate_rows, vrt_tiles

_CHECKPOINT_MAGIC = b"RSIM"
_CHECKPOINT_VERSION = 4
_CHECKPOINT_HEADER = struct.Struct("<4sI32s")
_CHECKPOINT_COUNTS = struct.Struct("<QQ")  # window, VRT failures so far
# the flags of the VRT rows that can fail, in payload order, one u1 byte
# (0 or 1) per row each
_CHECKPOINT_ARRAYS = ("vrt_low", "seen", "unsafe")

# rows per block of the engine's passes over the device; bounds their
# temporaries, at most 8 B per row of the block each (512 KB), independently
# of num_rows.  keep_block_pages has malloc reuse them from block to block
_CHUNK_ROWS = 1 << 16

# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_block_pages() -> None:
    """Have glibc's malloc keep the pages of freed block temporaries for the next block.

    By default glibc maps a large array afresh and returns a freed heap top
    to the kernel, so every block faults its pages in again.  Both
    thresholds are set above the largest block temporary, 8 * _CHUNK_ROWS
    bytes: the mmap threshold at four times that (2 MB), the trim threshold
    at sixteen times (8 MB).  Setting the trim threshold alone turns off
    glibc's dynamic mmap threshold, and every block temporary is then
    mapped afresh.  A no-op where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    block_bytes = 8 * _CHUNK_ROWS
    mallopt(_M_MMAP_THRESHOLD, 4 * block_bytes)
    mallopt(_M_TRIM_THRESHOLD, 16 * block_bytes)


class CheckpointError(RuntimeError):
    """Checkpoint blob failed version or integrity validation."""


@dataclass
class SimReport:
    scenario: str
    seed: int
    num_rows: int
    horizon_windows: int
    refreshes_issued: int
    refreshes_baseline_equiv: int
    savings_fraction: float
    retention_failures: int
    unsafe_rows: int
    fpr_extra_refreshes: int
    bin_counts: tuple[int, ...]
    bin_intervals_ms: tuple[float, ...]
    total_filter_bits: int
    wall_time_s: float
    config: dict[str, str] = field(default_factory=dict)

    def to_text(self) -> str:
        """Flat key-value rendering; wall time is excluded so reruns match byte for byte."""
        lines = [f"config.{k} = {self.config[k]}" for k in sorted(self.config)]
        lines.append(f"config_sha256 = {config_sha256(self.config)}")
        metrics = {
            "scenario": self.scenario,
            "seed": self.seed,
            "num_rows": self.num_rows,
            "horizon_windows": self.horizon_windows,
            "refreshes_issued": self.refreshes_issued,
            "refreshes_baseline_equiv": self.refreshes_baseline_equiv,
            "refreshes_skipped": self.refreshes_baseline_equiv - self.refreshes_issued,
            "savings_fraction": repr(self.savings_fraction),
            "retention_failures": self.retention_failures,
            "unsafe_rows": self.unsafe_rows,
            "fpr_extra_refreshes": self.fpr_extra_refreshes,
            "bin_counts": ",".join(str(c) for c in self.bin_counts),
            "bin_intervals_ms": ",".join(repr(v) for v in self.bin_intervals_ms),
            "total_filter_bits": self.total_filter_bits,
        }
        lines.extend(f"{k} = {metrics[k]}" for k in sorted(metrics))
        return "\n".join(lines) + "\n"


def profiled_blocks(spec: ExperimentSpec, bins=None):
    """Yield (ground truth, measured retention) of each block of _CHUNK_ROWS rows, in row order, as sparse rows.

    Every stream is keyed by row, so each block equals the same rows of
    the device generated and profiled as one block, which is how the
    reference oracle builds it.  Each block draws its own VRT rows and
    runs its own profiling campaign over them.  bins is profile_rows':
    given a BinConfig, the profile is exact up to each row's bin, and the
    campaign walks only the VRT rows whose bin, or whether they fall under
    the base period, depends on it.
    """
    n = spec.device.num_rows
    for lo in range(0, n, _CHUNK_ROWS):
        gt = generate_rows(spec.device, spec.dist, spec.vrt, spec.dpd, spec.seed, lo, min(lo + _CHUNK_ROWS, n))
        yield gt, profile_rows(gt, spec.profiler, bins)


def _first_failing_window(retention_ms, trefw_ms: float):
    """The smallest j >= 1 with j * trefw_ms > retention_ms, by _advance's float test, elementwise.

    A row whose retention never toggles fails at j windows past its last
    refresh from then on.  The floored quotient retention_ms / trefw_ms can
    round to either side of a whole number, so it is corrected by one step
    each way against the product itself, which makes it exact.
    """
    j = np.floor(retention_ms / trefw_ms) + 1
    j -= (j - 1) * trefw_ms > retention_ms
    j += j * trefw_ms <= retention_ms
    return j


def _static_failures(horizon: int, m, j):
    """Failures over the horizon of a row refreshed every m windows whose retention runs out j windows past a refresh.

    Window w is (w % m) + 1 windows past the row's last refresh, so of
    every m windows the last m - j + 1 fail; none if j > m.
    """
    return np.where(j <= m, (horizon // m) * (m - j + 1) + np.maximum(0, horizon % m - j + 1), 0)


class RefreshSimulation:
    """One deterministic simulation run; step, checkpoint, resume, report."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.device = spec.device
        self.horizon = spec.sim.horizon_windows

        t0 = time.perf_counter()
        # a row whose retention never toggles fails in every window at least
        # jmin windows past its last refresh, so only rows with jmin <= m can
        # fail at all; jmin_cap is one past the largest multiplier.  The
        # plain rows share one jmin, so jmin is kept per row only for the
        # state rows: the near rows, weak rows without VRT that can fail,
        # and the VRT rows.  A VRT row fails only past its low retention,
        # taken as min_possible takes it, and its time since a refresh peaks
        # at m * trefw_ms, computed as _advance computes it.  So a VRT row
        # whose low retention the longest gap of every bin does not exceed
        # never fails, and then no plain row fails either, as a plain row's
        # retention is at least the VRT row's: it counts as a plain row.  The
        # other VRT rows, exactly the state rows at jmin_cap, keep their high
        # retention
        trefw_ms = self.device.trefw_ms
        jmin_cap = max(spec.bins.multipliers(trefw_ms)) + 1
        longest_gap_ms = (jmin_cap - 1) * trefw_ms
        row_type = np.min_scalar_type(self.device.num_rows - 1)
        jmin_type = np.min_scalar_type(jmin_cap)
        state_rows, state_jmin = RowBuffer(row_type), RowBuffer(jmin_type)
        vrt_high_ms = RowBuffer(np.float64)
        plain_jmin = jmin_cap

        def binned_blocks():
            # pass 1: of each block, only its state rows with their jmin and
            # the high retentions of its VRT rows that can fail outlive it,
            # besides the filter bins' rows that bin_blocks keeps
            nonlocal plain_jmin
            for gt, measured in profiled_blocks(spec, spec.bins):
                true_min = gt.min_possible()
                plain_jmin = int(_first_failing_window(true_min.plain, trefw_ms))
                jmin = _first_failing_window(true_min.values, trefw_ms)
                high_ms = gt.vrt_retention_high
                can_fail = longest_gap_ms > high_ms * spec.vrt.low_factor
                jmin[gt.toggles] = jmin_cap
                # a weak row's base is below strong_value_ms, so its jmin is
                # at most plain_jmin, and where plain rows can fail every
                # weak row is near
                keep = jmin < jmin_cap
                keep[gt.toggles] = can_fail
                state_rows.extend((true_min.at[keep] + gt.start).astype(row_type))
                state_jmin.extend(jmin[keep].astype(jmin_type))
                vrt_high_ms.extend(high_ms[can_fail])
                yield measured

        self.bins: BinSet = bin_blocks(
            binned_blocks(), spec.bins, trefw_ms, spec.bloom_budget,
            seed=rng.hash_words(spec.seed, rng.TAG_FILTER_SEED),
        )
        self._scan_rows(state_rows.array(), state_jmin.array(), vrt_high_ms.array(), jmin_cap, plain_jmin)
        # the toggle state of the VRT rows that can fail, and whether each
        # held its low state at any window since its last refresh: its
        # running minimum retention is then the low one
        n_fail = self._v_key.size
        self._v_low = np.zeros(n_fail, dtype=bool)
        self._v_seen = np.zeros(n_fail, dtype=bool)
        self._v_unsafe = np.zeros(n_fail, dtype=bool)
        self._v_failures = 0

        self._window = 0
        self._wall = time.perf_counter() - t0

    def _scan_rows(self, state_rows: np.ndarray, state_jmin: np.ndarray, vrt_high_ms: np.ndarray,
                   jmin_cap: int, plain_jmin: int) -> None:
        """Sum every per-row quantity the built bins fix, in one blocked pass.

        Each filter meets each row once and returns the offsets it claims in
        the block, which give its claim count; the claims make a bin map per
        block (BinSet.first_claims).  A filter's claims that the map gives its
        own bin are the rows queried to it; the default bin gets the rest.
        Refreshes are tallied per queried bin: the rows each bin answers,
        times that bin's refreshes in the horizon.  Each filter holds exactly
        its bin's profiled rows and has no false negatives, so bins.counts
        gives the false positives and the profiled schedule's refreshes.  The
        state rows (device indices, ascending, with their jmin) gather their
        bins from the map.  Their static failures follow from their queried
        multiplier and jmin, none from jmin_cap up, where the VRT rows are.  The
        plain rows share plain_jmin, so theirs are counted per bin, from the
        rows queried to it that are not state rows.  Where plain rows can
        fail, every weak row is near, so those are exactly the plain rows;
        where they cannot, no bin's multiplier reaches plain_jmin.  The VRT
        rows at jmin_cap, with their high retentions vrt_high_ms in row
        order, are kept for stepping where their queried multiplier lets
        them fail, block by block.  Every stream is keyed by row index, so
        the blocking is exact.
        """
        horizon = self.horizon
        bins = self.bins
        mult_table = np.asarray(bins.multipliers, dtype=np.int64)
        queried = np.zeros(mult_table.size, dtype=np.int64)
        state_queried = np.zeros(mult_table.size, dtype=np.int64)
        static_failures = static_unsafe = 0
        claimed = [0] * len(bins.filters)
        trefw_ms, low_factor = self.device.trefw_ms, self.spec.vrt.low_factor
        v_rows, v_mults, v_high_ms = RowBuffer(state_rows.dtype), RowBuffer(np.int64), RowBuffer(np.float64)
        v_lo = 0
        n = self.device.num_rows
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n)
            claims = bins.claims(np.arange(lo, hi, dtype=np.uint64))
            bin_of = bins.first_claims(claims, hi - lo)
            for b, rows in enumerate(claims):
                claimed[b] += rows.size
                queried[b] += np.count_nonzero(bin_of[rows] == b)

            a, b = np.searchsorted(state_rows, (lo, hi))
            q = bin_of[state_rows[a:b] - lo]
            jmin = state_jmin[a:b].astype(np.int64)
            state_queried += np.bincount(q, minlength=mult_table.size)
            fails = _static_failures(horizon, mult_table[q], jmin)
            static_failures += int(fails.sum())
            static_unsafe += int(np.count_nonzero(fails))

            vrt = jmin == jmin_cap
            mults = mult_table[q[vrt]]
            high_ms = vrt_high_ms[v_lo:v_lo + mults.size]
            v_lo += mults.size
            # pass 1's test, at the row's own multiplier
            can_fail = mults * trefw_ms > high_ms * low_factor
            v_rows.extend(state_rows[a:b][vrt][can_fail])
            v_mults.extend(mults[can_fail])
            v_high_ms.extend(high_ms[can_fail])

        queried[-1] = n - queried[:-1].sum()
        plain_queried = queried - state_queried
        fails = _static_failures(horizon, mult_table, plain_jmin)
        self._static_failures = static_failures + int(plain_queried @ fails)
        self._static_unsafe = static_unsafe + int(plain_queried[fails > 0].sum())

        counts = bins.counts
        issued = sum(int(c) * refreshes_in_horizon(horizon, m) for c, m in zip(queried, bins.multipliers))
        self.refreshes_issued = issued
        profiled_issued = sum(c * refreshes_in_horizon(horizon, m) for c, m in zip(counts, bins.multipliers))
        self.fpr_extra_refreshes = issued - profiled_issued
        # a filter's FPR is its claims beyond its own rows over the rows
        # profiled outside it; on Python ints the quotient is correctly rounded
        self.filter_fprs = [(k - c) / (n - c) if n > c else 0.0 for k, c in zip(claimed, counts)]
        # only the VRT rows that can fail are stepped, so the inputs of a
        # step are gathered once: their distinct multipliers and each row's
        # index into them, their step-stream prefixes and both retentions
        self._v_mults, self._v_key = np.unique(v_mults.array(), return_inverse=True)
        self._v_prefix = rng.hash_words_vec(self.spec.seed, rng.TAG_VRT_STEP, v_rows.array())
        self._v_high_ms = v_high_ms.array()
        self._v_low_ms = self._v_high_ms * low_factor

    # -- stepping ----------------------------------------------------------

    def _advance(self, end: int) -> None:
        """Step the rows that can fail from the current window up to `end`, counting their failures.

        vrt_tiles walks the toggle in tiles of windows; a tile's phases,
        elapsed times and refresh masks are 2-D arrays, and only the "seen"
        flag is carried line by line.
        """
        low, seen, unsafe = self._v_low, self._v_seen, self._v_unsafe
        for windows, lows in vrt_tiles(self._v_prefix, low, self.spec.vrt, self._window, end):
            # per multiplier: refreshed in each window, and the time since
            # the last refresh.  np.take gathers the rows' columns in C
            # order, so that each window's line is contiguous
            phase = windows[:, None] % self._v_mults
            elapsed_ms = np.take((phase + 1) * self.device.trefw_ms, self._v_key, axis=1)
            # in place, line t of `failed` goes from "not refreshed in
            # window t" to "low state held at some window since the last
            # refresh": the running minimum is then the low retention
            failed = np.take(phase != 0, self._v_key, axis=1)
            for line, line_low in zip(failed, lows):
                line &= seen
                line |= line_low
                seen = line
            # seen is a line of `failed`, which the tests below overwrite
            low, seen = lows[-1], seen.copy()
            # the low retention is never above the high one
            failed &= elapsed_ms > self._v_low_ms
            failed |= elapsed_ms > self._v_high_ms
            self._v_failures += int(np.count_nonzero(failed))
            unsafe |= failed.any(axis=0)
        self._v_low, self._v_seen, self._v_unsafe = low, seen, unsafe
        self._window = max(self._window, end)

    def run(self, stop_after_window: int | None = None) -> SimReport | None:
        """Advance to the horizon (or to stop_after_window); report when complete."""
        horizon = self.horizon
        end = horizon if stop_after_window is None else min(stop_after_window, horizon)
        t0 = time.perf_counter()
        self._advance(end)
        self._wall += time.perf_counter() - t0
        if self._window == horizon:
            return self.report()
        return None

    def report(self) -> SimReport:
        if self._window != self.horizon:
            raise RuntimeError(
                f"simulation at window {self._window} of {self.horizon}; run() it first"
            )
        baseline = self.device.num_rows * self.horizon
        return SimReport(
            scenario=self.spec.scenario,
            seed=self.spec.seed,
            num_rows=self.device.num_rows,
            horizon_windows=self.horizon,
            refreshes_issued=self.refreshes_issued,
            refreshes_baseline_equiv=baseline,
            savings_fraction=1.0 - self.refreshes_issued / baseline,
            retention_failures=self._static_failures + self._v_failures,
            unsafe_rows=self._static_unsafe + int(np.count_nonzero(self._v_unsafe)),
            fpr_extra_refreshes=self.fpr_extra_refreshes,
            bin_counts=self.bins.counts,
            bin_intervals_ms=self.bins.intervals_ms,
            total_filter_bits=self.bins.total_filter_bits,
            wall_time_s=self._wall,
            config=self.spec.to_flat(),
        )

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> bytes:
        """Snapshot at the current window boundary; resume reproduces the run exactly."""
        text = config_text(self.spec.to_flat()).encode()
        payload = b"".join([
            struct.pack("<Q", len(text)),
            text,
            _CHECKPOINT_COUNTS.pack(self._window, self._v_failures),
            *(flags.astype(np.uint8).tobytes() for flags in (self._v_low, self._v_seen, self._v_unsafe)),
        ])
        header = _CHECKPOINT_HEADER.pack(
            _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, sha256(payload).digest()
        )
        return header + payload

    @classmethod
    def restore(cls, blob: bytes) -> "RefreshSimulation":
        """Rebuild a run from checkpoint() bytes; nothing in the blob is executed."""
        if len(blob) < _CHECKPOINT_HEADER.size:
            raise CheckpointError("checkpoint truncated")
        magic, version, digest = _CHECKPOINT_HEADER.unpack_from(blob)
        if magic != _CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        if version != _CHECKPOINT_VERSION:
            raise CheckpointError(f"checkpoint version {version} unsupported")
        payload = memoryview(blob)[_CHECKPOINT_HEADER.size:]
        if sha256(payload).digest() != digest:
            raise CheckpointError("checkpoint integrity check failed")

        if len(payload) < 8:
            raise CheckpointError("checkpoint config block truncated")
        (text_len,) = struct.unpack_from("<Q", payload)
        pos = 8 + text_len
        if len(payload) < pos + _CHECKPOINT_COUNTS.size:
            raise CheckpointError("checkpoint config block truncated")
        try:
            text = bytes(payload[8:pos]).decode()
            spec = spec_from_flat(parse_config_text(text))
        except ValueError as exc:  # ConfigError and UnicodeDecodeError included
            raise CheckpointError(f"checkpoint config rejected: {exc}") from exc
        if config_text(spec.to_flat()) != text:
            raise CheckpointError("checkpoint config is not in canonical form")
        window, v_failures = _CHECKPOINT_COUNTS.unpack_from(payload, pos)
        pos += _CHECKPOINT_COUNTS.size
        if window > spec.sim.horizon_windows:
            raise CheckpointError(f"checkpoint window {window} beyond horizon {spec.sim.horizon_windows}")

        sim = cls(spec)
        n = sim._v_key.size
        if len(payload) != pos + n * len(_CHECKPOINT_ARRAYS):
            raise CheckpointError(
                f"checkpoint state is {len(payload) - pos} bytes; "
                f"{n} VRT rows that can fail need {n * len(_CHECKPOINT_ARRAYS)}"
            )
        flags = np.frombuffer(payload, dtype=np.uint8, offset=pos).reshape(len(_CHECKPOINT_ARRAYS), n)
        for name, row_flags in zip(_CHECKPOINT_ARRAYS, flags):
            if np.any(row_flags > 1):
                raise CheckpointError(f"checkpoint {name} holds a byte other than 0 or 1")
        low, seen, unsafe = flags.astype(bool)
        # the flags must be ones the schedule reaches: a row low now has been
        # low since its last refresh, the toggle first steps into window 1,
        # and a row refreshed in the last window has seen exactly its state then
        if np.any(low & ~seen):
            raise CheckpointError("checkpoint vrt_low holds a low row that is not seen")
        if window <= 1 and np.any(seen):
            raise CheckpointError(f"checkpoint holds a seen or low row at window {window}")
        refreshed = (window - 1) % sim._v_mults[sim._v_key] == 0
        if window > 1 and np.any(refreshed & (seen != low)):
            raise CheckpointError(f"checkpoint seen != vrt_low on a row refreshed in window {window - 1}")

        sim._v_low, sim._v_seen, sim._v_unsafe = low, seen, unsafe
        sim._v_failures = v_failures
        sim._window = window
        return sim


def run(sim_cfg, device, dist, vrt, dpd, profiler_cfg, bin_cfg, bloom_budget=1e-3) -> SimReport:
    """Build and run the ExperimentSpec of positional parts, the arguments of tests/reference_sim.run_reference.

    Only perfbench's oracle cross-check calls this form.  The seed is
    sim_cfg's; the budget is a per-bin FPR target, or BloomParams with
    seed 0, as `ExperimentSpec.bloom_budget` returns an explicit m/k.
    """
    if isinstance(bloom_budget, BloomParams) and bloom_budget.seed == 0:
        bloom = {"bloom_explicit_m": bloom_budget.m, "bloom_explicit_k": bloom_budget.k}
    elif isinstance(bloom_budget, (int, float)):
        bloom = {"bloom_target_fpr": float(bloom_budget)}
    else:
        raise ValueError(f"bloom budget must be an FPR or BloomParams with seed 0, got {bloom_budget!r}")
    spec = ExperimentSpec(
        seed=sim_cfg.seed, device=device, dist=dist, vrt=vrt, dpd=dpd,
        profiler=profiler_cfg, bins=bin_cfg, sim=sim_cfg, **bloom,
    )
    report = RefreshSimulation(spec).run()
    assert report is not None
    return report


def check_report_invariants(report: SimReport, spec: ExperimentSpec) -> list[str]:
    """Post-run checks of the report of `spec`; a non-empty list means a violated contract.

    Safety: a row fails only where its refresh gap, at most its queried
    interval, exceeds a retention it holds, none below its true minimum.
    Bloom false positives only shorten intervals, a guard >= 1 only lowers
    profiled values and a bin's interval is its lower edge, so queried
    interval <= profiled interval <= true interval <= true minimum, the
    last unless the true minimum is under device.trefw_ms.  An oracle
    profile is the true minimum over the guard, and the build rejects
    values under device.trefw_ms, so oracle runs never fail; in a measured
    run, each unsafe row breaks the second step or the last.
    """
    problems = []
    baseline = report.refreshes_baseline_equiv
    if not 0 <= report.refreshes_issued <= baseline:
        problems.append("refresh-count-bound: issued outside [0, baseline]")
    expected = 1.0 - report.refreshes_issued / baseline
    if abs(report.savings_fraction - expected) > 1e-12:
        problems.append("savings-identity: savings_fraction != 1 - issued/baseline")
    max_mult = max(spec.bins.multipliers(spec.device.trefw_ms))
    if report.savings_fraction > 1.0 - 1.0 / max_mult + 1e-12:
        problems.append("savings-bound: savings exceeds 1 - 1/max_multiplier")
    if spec.profiler.mode == MODE_ORACLE and report.retention_failures:
        problems.append("oracle-safety: retention failures under perfect profiling")
    return problems
