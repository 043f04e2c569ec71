"""Closed-loop refresh simulation over discrete base windows.

The pipeline is: generate ground truth, profile it, build the Bloom bins,
then walk the horizon window by window.  Bin membership is immutable after
build, so per-row refresh counts follow exactly from the modular schedule;
rows whose retention never changes get their failure counts in closed form,
while rows with an active retention toggle are stepped every window.  Both
paths are validated to match a brute-force step-through row by row.

Everything fixed per row once the bins exist (the queried bin, refresh and
false-positive counts, the closed-form failures and the per-filter FPRs)
comes from a single pass over the rows in fixed-size blocks, in which each
filter is queried once per row.  Its temporaries are bounded by the block
size, not by the device.

Failure accounting is conservative: a row fails a window when the time
since its last refresh exceeds the smallest true retention it held at any
point in that gap.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .profiler import MODE_ORACLE, ProfilerConfig, profile
from .raidr import BinConfig, BinSet, build_bins, refreshes_in_horizon
from .retention import DeviceConfig, DpdModel, RetentionDistribution, VrtModel, generate_ground_truth

_CHECKPOINT_MAGIC = b"RSIM"
_CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = struct.Struct("<4sI32s")

# rows per block of the engine's single pass over the device; bounds the
# pass's temporaries independently of num_rows
_CHUNK_ROWS = 1 << 20


class CheckpointError(RuntimeError):
    """Checkpoint blob failed version or integrity validation."""


@dataclass(frozen=True)
class SimConfig:
    horizon_windows: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.horizon_windows < 1:
            raise ValueError("horizon_windows must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


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


def config_sha256(config: dict[str, str]) -> str:
    canon = "\n".join(f"{k} = {config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode()).hexdigest()


class RefreshSimulation:
    """One deterministic simulation run; step, checkpoint, resume, report."""

    def __init__(
        self,
        sim_cfg: SimConfig,
        device: DeviceConfig,
        dist: RetentionDistribution,
        vrt: VrtModel,
        dpd: DpdModel,
        profiler_cfg: ProfilerConfig,
        bin_cfg: BinConfig,
        bloom_budget=1e-3,
        scenario: str = "default",
        config_echo: dict[str, str] | None = None,
    ):
        self.sim_cfg = sim_cfg
        self.device = device
        self.profiler_cfg = profiler_cfg
        self.bin_cfg = bin_cfg
        self.bloom_budget = bloom_budget
        self.scenario = scenario
        self.config_echo = dict(config_echo) if config_echo else _default_echo(
            sim_cfg, device, dist, vrt, dpd, profiler_cfg, bin_cfg, bloom_budget
        )
        self._init_args = (sim_cfg, device, dist, vrt, dpd, profiler_cfg, bin_cfg, bloom_budget)

        max_mult = max(bin_cfg.multipliers)
        if sim_cfg.horizon_windows < max_mult:
            raise ValueError(
                f"horizon_windows {sim_cfg.horizon_windows} below max bin multiplier {max_mult}"
            )

        t0 = time.perf_counter()
        seed = sim_cfg.seed
        self.gt = generate_ground_truth(device, dist, vrt, dpd, seed)
        self.retention_profile = profile(
            self.gt, profiler_cfg, rng.hash_words(seed, rng.TAG_PROFILER_SEED)
        )
        self.bins: BinSet = build_bins(
            self.retention_profile, bin_cfg, bloom_budget,
            seed=rng.hash_words(seed, rng.TAG_FILTER_SEED),
        )

        self._scan_rows()
        self._v_last = np.zeros(self._v_idx.size, dtype=np.int64)
        self._v_runmin = np.full(self._v_idx.size, np.inf)
        self._v_failures = 0
        self._v_unsafe = np.zeros(self._v_idx.size, dtype=bool)

        self._window = 0
        self._wall = time.perf_counter() - t0

    def _scan_rows(self) -> None:
        """Sum every per-row quantity the built bins fix, in one blocked pass.

        Each filter meets each row once; its claim mask gives both the
        queried bin and the filter's false-positive count for bins.csv.
        Every stream is keyed by row index, so the blocking is exact.
        """
        horizon = self.sim_cfg.horizon_windows
        base_ms = self.device.trefw_ms
        bins, gt = self.bins, self.gt
        mult_table = np.asarray(bins.multipliers, dtype=np.int64)
        issued = profiled_issued = static_failures = static_unsafe = 0
        fp_hits = [0] * len(bins.filters)
        fp_others = [0] * len(bins.filters)
        v_mult = []
        for lo in range(0, self.device.num_rows, _CHUNK_ROWS):
            block = slice(lo, min(lo + _CHUNK_ROWS, self.device.num_rows))
            rows = np.arange(block.start, block.stop, dtype=np.uint64)
            claims = bins.claims(rows)
            profiled = self.bin_cfg.classify(self.retention_profile.measured_retention_ms[block])
            mult_q = mult_table[bins.first_claims(claims, rows.shape)]
            issued += int(refreshes_in_horizon(horizon, mult_q).sum())
            profiled_issued += int(refreshes_in_horizon(horizon, mult_table[profiled]).sum())
            for b, claimed in enumerate(claims):
                others = profiled != b
                fp_hits[b] += int(np.count_nonzero(claimed & others))
                fp_others[b] += int(np.count_nonzero(others))

            # a row whose retention never toggles fails in every window at
            # least jmin windows past its last refresh, so only rows with
            # jmin <= m can fail at all
            has_vrt = gt.has_vrt[block]
            jmin = np.floor(gt.min_possible_retention(block) / base_ms).astype(np.int64) + 1
            at_risk = np.flatnonzero((jmin <= mult_q) & ~has_vrt)
            m, jmin = mult_q[at_risk], jmin[at_risk]
            fails = (horizon // m) * (m - jmin + 1) + np.maximum(0, horizon % m - jmin + 1)
            static_failures += int(fails.sum())
            static_unsafe += int(np.count_nonzero(fails))
            v_mult.append(mult_q[has_vrt])

        self.refreshes_issued = issued
        self.fpr_extra_refreshes = issued - profiled_issued
        self._static_failures = static_failures
        self._static_unsafe = static_unsafe
        # hits / others as Python ints is the correctly rounded quotient,
        # the same float the boolean mean over the others gives
        self.filter_fprs = [h / o if o else 0.0 for h, o in zip(fp_hits, fp_others)]
        self._v_idx = np.flatnonzero(gt.has_vrt)
        self._v_mult = np.concatenate(v_mult)

    # -- stepping ----------------------------------------------------------

    def _step(self, w: int) -> None:
        if w > 0:
            self.gt.step_vrt(w)
        if self._v_idx.size == 0:
            return
        refresh = (w % self._v_mult) == 0
        self._v_last[refresh] = w
        self._v_runmin[refresh] = np.inf
        np.minimum(self._v_runmin, self.gt.retention_now(self._v_idx), out=self._v_runmin)
        failed = (w - self._v_last + 1) * self.device.trefw_ms > self._v_runmin
        self._v_failures += int(np.count_nonzero(failed))
        self._v_unsafe |= failed

    def run(self, stop_after_window: int | None = None) -> SimReport | None:
        """Advance to the horizon (or to stop_after_window); report when complete."""
        horizon = self.sim_cfg.horizon_windows
        end = horizon if stop_after_window is None else min(stop_after_window, horizon)
        t0 = time.perf_counter()
        while self._window < end:
            self._step(self._window)
            self._window += 1
        self._wall += time.perf_counter() - t0
        if self._window == horizon:
            return self.report()
        return None

    def report(self) -> SimReport:
        if self._window != self.sim_cfg.horizon_windows:
            raise RuntimeError(
                f"simulation at window {self._window} of {self.sim_cfg.horizon_windows}; run() it first"
            )
        baseline = self.device.num_rows * self.sim_cfg.horizon_windows
        return SimReport(
            scenario=self.scenario,
            seed=self.sim_cfg.seed,
            num_rows=self.device.num_rows,
            horizon_windows=self.sim_cfg.horizon_windows,
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
            config=dict(self.config_echo),
        )

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> bytes:
        """Snapshot at the current window boundary; resume reproduces the run exactly."""
        state = {
            "init_args": self._init_args,
            "scenario": self.scenario,
            "config_echo": self.config_echo,
            "window": self._window,
            "vrt_low": self.gt.vrt_low[self._v_idx].copy(),
            "v_last": self._v_last.copy(),
            "v_runmin": self._v_runmin.copy(),
            "v_failures": self._v_failures,
            "v_unsafe": self._v_unsafe.copy(),
        }
        payload = pickle.dumps(state, protocol=4)
        header = _CHECKPOINT_HEADER.pack(
            _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, hashlib.sha256(payload).digest()
        )
        return header + payload

    @classmethod
    def restore(cls, blob: bytes) -> "RefreshSimulation":
        if len(blob) < _CHECKPOINT_HEADER.size:
            raise CheckpointError("checkpoint truncated")
        magic, version, digest = _CHECKPOINT_HEADER.unpack_from(blob)
        if magic != _CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        if version != _CHECKPOINT_VERSION:
            raise CheckpointError(f"checkpoint version {version} unsupported")
        payload = blob[_CHECKPOINT_HEADER.size:]
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointError("checkpoint integrity check failed")
        state = pickle.loads(payload)
        sim = cls(*state["init_args"], scenario=state["scenario"], config_echo=state["config_echo"])
        w = state["window"]
        sim.gt.vrt_low[sim._v_idx] = state["vrt_low"]
        sim.gt.current_window = max(0, w - 1)
        sim._v_last = state["v_last"]
        sim._v_runmin = state["v_runmin"]
        sim._v_failures = state["v_failures"]
        sim._v_unsafe = state["v_unsafe"]
        sim._window = w
        return sim


def run(
    sim_cfg: SimConfig,
    device: DeviceConfig,
    dist: RetentionDistribution,
    vrt: VrtModel,
    dpd: DpdModel,
    profiler_cfg: ProfilerConfig,
    bin_cfg: BinConfig,
    bloom_budget=1e-3,
    scenario: str = "default",
    config_echo: dict[str, str] | None = None,
) -> SimReport:
    """Build and run one simulation end to end."""
    sim = RefreshSimulation(
        sim_cfg, device, dist, vrt, dpd, profiler_cfg, bin_cfg, bloom_budget,
        scenario=scenario, config_echo=config_echo,
    )
    report = sim.run()
    assert report is not None
    return report


def check_report_invariants(report: SimReport, profiler_cfg: ProfilerConfig | None = None) -> list[str]:
    """Post-run consistency checks; non-empty list means a violated contract."""
    problems = []
    baseline = report.refreshes_baseline_equiv
    if not 0 <= report.refreshes_issued <= baseline:
        problems.append("refresh-count-bound: issued outside [0, baseline]")
    expected = 1.0 - report.refreshes_issued / baseline
    if abs(report.savings_fraction - expected) > 1e-12:
        problems.append("savings-identity: savings_fraction != 1 - issued/baseline")
    max_mult = max(1, int(round(max(report.bin_intervals_ms) / min(report.bin_intervals_ms))))
    if report.savings_fraction > 1.0 - 1.0 / max_mult + 1e-12:
        problems.append("savings-bound: savings exceeds 1 - 1/max_multiplier")
    if profiler_cfg is not None:
        if (
            profiler_cfg.mode == MODE_ORACLE
            and profiler_cfg.guard_band_factor == 1.0
            and report.retention_failures != 0
        ):
            problems.append("oracle-safety: retention failures under perfect profiling")
    return problems


def _default_echo(sim_cfg, device, dist, vrt, dpd, profiler_cfg, bin_cfg, bloom_budget) -> dict[str, str]:
    echo = {
        "sim": repr(sim_cfg),
        "device": repr(device),
        "dist": repr(dist),
        "vrt": repr(vrt),
        "dpd": repr(dpd),
        "profiler": repr(profiler_cfg),
        "bins": repr(bin_cfg),
        "bloom_budget": repr(bloom_budget),
    }
    return echo
