#!/usr/bin/env python3
"""Run the default scenario (1e6 rows, 1024 windows, oracle profiling)
and print the headline numbers."""

import argparse
import time

from raidrsim.experiment import spec_from_flat
from raidrsim.simulate import RefreshSimulation


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rows", type=int, default=None, help="override row count")
    args = parser.parse_args()

    flat = {"seed": str(args.seed)}
    if args.rows is not None:
        flat["device.density_bits"] = str(args.rows * 8192)
    spec = spec_from_flat(flat)

    t0 = time.perf_counter()
    report = RefreshSimulation(spec).run()
    elapsed = time.perf_counter() - t0

    print(f"rows                 {report.num_rows}")
    print(f"windows              {report.horizon_windows}")
    print(f"bin populations      {report.bin_counts} at {report.bin_intervals_ms} ms")
    print(f"controller storage   {report.total_filter_bits} filter bits")
    print(f"refreshes issued     {report.refreshes_issued} of {report.refreshes_baseline_equiv}")
    print(f"savings fraction     {report.savings_fraction:.4f}")
    print(f"fp extra refreshes   {report.fpr_extra_refreshes}")
    print(f"retention failures   {report.retention_failures}")
    print(f"wall time            {elapsed:.2f} s")


if __name__ == "__main__":
    main()
