#!/usr/bin/env python3
"""Demonstrate why one-shot retention profiling is unsafe and how a guard
band fixes it.

Every row holds 600 ms in its normal state, but 5% carry a dormant state
at 0.3x retention.  A single-window profiling campaign sees only the
normal state, so the controller bins those rows at the 256 ms interval;
once a row drops into its low state mid-run, data outlives its refresh
gap.  Dividing measured retention by a guard of 4 rebins everything at
128 ms, which the 180 ms low state tolerates.
"""

import argparse

from raidrsim.experiment import ExperimentSpec, SimConfig
from raidrsim.profiler import ProfilerConfig
from raidrsim.retention import DeviceConfig, RetentionDistribution, VrtModel
from raidrsim.simulate import RefreshSimulation


def hazard_report(seed, guard, rows, windows):
    return RefreshSimulation(ExperimentSpec(
        seed=seed,
        device=DeviceConfig.from_rows(rows),
        dist=RetentionDistribution(weak_fraction=0.0, strong_value_ms=600.0),
        vrt=VrtModel(enabled=True, affected_fraction=0.05, low_factor=0.3,
                     p_high_to_low=0.2, p_low_to_high=0.2),
        profiler=ProfilerConfig(mode="measured", guard_band_factor=guard,
                                rounds=1, profiling_window_span=1),
        sim=SimConfig(horizon_windows=windows),
    )).run()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--windows", type=int, default=256)
    parser.add_argument("--guards", default="1,2,4")
    args = parser.parse_args()

    guards = [float(g) for g in args.guards.split(",")]
    print(f"{'guard':>6} {'seeds w/ failures':>18} {'mean failures':>14} {'mean savings':>13}")
    for guard in guards:
        reports = [hazard_report(s, guard, args.rows, args.windows) for s in range(args.seeds)]
        failing = sum(1 for r in reports if r.retention_failures)
        mean_fail = sum(r.retention_failures for r in reports) / len(reports)
        mean_save = sum(r.savings_fraction for r in reports) / len(reports)
        print(f"{guard:6.1f} {failing:>10}/{args.seeds:<7} {mean_fail:14.1f} {mean_save:13.4f}")


if __name__ == "__main__":
    main()
