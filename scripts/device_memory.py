#!/usr/bin/env python3
"""Peak memory of `raidrsim simulate` as the device grows, one fresh process per run.

Each run is `python -m raidrsim.cli simulate` of this checkout's src/, with
the given config, overrides and seed, at one device density.  The script
prints, per run, the density, the rows the run reports, the host wall
time of the child process (interpreter start and imports included) and
its peak RSS (`ru_maxrss` from `wait4`).  Linux charges a child that
vfork+execs, as subprocess starts it, the launcher's high-water RSS, so a
reading is at least this script's own peak.  The script imports nothing
heavy and stays far below any run's peak, so the readings are the runs'.

    python scripts/device_memory.py --densities 16G,64G,256G --runs 3 \\
        --seed 1 --set profiler.mode=measured ...

A density is device.density_bits, or a number of Gbit (2**30 bits) with a
G suffix.  It exits 1 if a run fails, after printing its standard error.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def density_bits(text: str) -> int:
    text = text.strip()
    if text.upper().endswith("G"):
        return round(float(text[:-1]) * 2**30)
    return int(text)


def measure(cli_args: list[str]) -> tuple[float, float, int, str]:
    """(wall seconds, peak RSS in MB, exit code, standard error) of one child running the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "raidrsim.cli", *cli_args],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        # ru_maxrss is in KiB on Linux
        return wall, usage.ru_maxrss / 1024, proc.returncode, err.read().decode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--densities", required=True, metavar="D1,D2,...",
                        help="device.density_bits values; a G suffix means Gbit")
    parser.add_argument("--runs", type=int, default=1, help="fresh processes per density")
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--seed", type=int, default=None, metavar="U64", help="master seed override")
    args = parser.parse_args(argv)

    base = []
    if args.config:
        base += ["--config", args.config]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]
    for kv in args.set:
        base += ["--set", kv]

    print(f"{'density_gbit':>12} {'rows':>10} {'run':>3} {'wall_s':>8} {'peak_rss_mb':>11}")
    with tempfile.TemporaryDirectory() as out:
        for text in args.densities.split(","):
            bits = density_bits(text)
            for run in range(args.runs):
                cli_args = ["simulate", "--out", out, *base, "--set", f"device.density_bits={bits}"]
                wall, rss_mb, code, err = measure(cli_args)
                if code:
                    print(err, end="", file=sys.stderr)
                    print(f"run at {bits} bits exited {code}", file=sys.stderr)
                    return 1
                report = dict(line.split(" = ", 1) for line in Path(out, "simreport.txt").read_text().splitlines())
                print(f"{bits / 2**30:>12.4f} {report['num_rows']:>10} {run:>3} {wall:>8.3f} {rss_mb:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
