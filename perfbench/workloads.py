"""The benchmark's workloads: CLI argv, flat config and the small oracle copy.

Each workload is a fixed raidrsim configuration; only the master seed
varies between runs, and it reaches the program as the CLI's `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ROW_SIZE_BITS = 8192  # the DeviceConfig default, which no workload overrides
DEFAULT_HORIZON = 1024  # the SimConfig default

# The oracle cross-check runs each configuration at no more than this size,
# where the brute-force reference walks every (row, window) pair in Python.
ORACLE_ROWS = 2000
ORACLE_WINDOWS = 256

GUARD_AXIS = "profiler.guard_band_factor"
GUARD_VALUES = ("1.0", "1.25", "1.5", "2.0")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "sweep"
    settings: dict[str, str]
    why: str
    # oracle profiling with guard 1.0: the program promises zero retention failures
    oracle_safe: bool
    sweep_values: tuple[str, ...] = field(default=())

    @property
    def rows(self) -> int:
        return int(self.settings["device.density_bits"]) // ROW_SIZE_BITS

    @property
    def windows(self) -> int:
        return int(self.settings.get("sim.horizon_windows", DEFAULT_HORIZON))

    @property
    def points(self) -> int:
        return len(self.sweep_values) if self.command == "sweep" else 1

    @property
    def row_windows(self) -> int:
        """Simulated (row, window) pairs in one CLI run."""
        return self.rows * self.windows * self.points

    def argv(self, seed: int | str, out: str) -> list[str]:
        """Arguments to `raidrsim.cli.main` for one run."""
        args = [self.command, "--seed", str(seed), "--out", out]
        if self.command == "sweep":
            args += ["--axis", GUARD_AXIS, "--values", ",".join(self.sweep_values), "--jobs", "1"]
        for key, value in self.settings.items():
            args += ["--set", f"{key}={value}"]
        return args

    def oracle_points(self, seed: int) -> list[tuple[dict[str, str], int | None]]:
        """Small flat configs for the oracle cross-check, one per sweep point.

        Each entry is (flat config, sweep point index or None); the caller
        derives a sweep point's seed the way the CLI does.
        """
        small = dict(self.settings)
        small["device.density_bits"] = str(min(self.rows, ORACLE_ROWS) * ROW_SIZE_BITS)
        small["sim.horizon_windows"] = str(min(self.windows, ORACLE_WINDOWS))
        small["seed"] = str(seed)
        if self.command != "sweep":
            return [(small, None)]
        return [({**small, GUARD_AXIS: v}, i) for i, v in enumerate(self.sweep_values)]


_VRT_DPD_CHURN = {
    "vrt.enabled": "true",
    "vrt.affected_fraction": "0.02",
    "dpd.enabled": "true",
    "dpd.worst_pattern_factor": "0.8",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-64gb",
            command="simulate",
            settings={"device.density_bits": "68719476736"},
            why="64 Gb point: 8.4M rows, Bloom queries over every row twice (engine and bins.csv), "
            "no VRT stepping, ~1 GB peak RSS",
            oracle_safe=True,
        ),
        Workload(
            name="vrt-churn",
            command="simulate",
            settings={
                "device.density_bits": str(1_000_000 * ROW_SIZE_BITS),
                "sim.horizon_windows": "4096",
                "dist.floor_ms": "128",
                **_VRT_DPD_CHURN,
                "vrt.low_factor": "0.8",
            },
            why="~20k VRT rows hashed every window for 4096 windows; Bloom is a small share, "
            "so a Bloom-only change should leave it unchanged",
            oracle_safe=True,
        ),
        Workload(
            name="guard-sweep",
            command="sweep",
            settings={
                "device.density_bits": str(500_000 * ROW_SIZE_BITS),
                "dist.kind": "lognormal-tail",
                "dist.weak_fraction": "0.3",
                "dist.floor_ms": "320",
                "dist.weak_high_ms": "960",
                "dist.lognormal_median_ms": "440",
                "dist.lognormal_sigma": "0.4",
                **_VRT_DPD_CHURN,
                "vrt.low_factor": "0.5",
                "vrt.p_high_to_low": "0.05",
                "vrt.p_low_to_high": "0.2",
                "profiler.mode": "measured",
                "profiler.patterns_tested": "4",
                "profiler.rounds": "8",
                "profiler.profiling_window_span": "512",
            },
            why="guard-band safety sweep: measured profiling, large bin filters with frequent "
            "claims, non-zero failures, no bins.csv so the second Bloom pass is bypassed",
            oracle_safe=False,
            sweep_values=GUARD_VALUES,
        ),
    )
}
