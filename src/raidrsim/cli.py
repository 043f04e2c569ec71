"""Command-line front end.

Subcommands: simulate, sweep, profile, overhead, selftest.
Exit codes: 0 success, 2 configuration error (a Bloom FPR target that no
filter within the planner's bit ceiling meets included), 3 invariant
violation, 4 I/O error.  Any other exception is a fault in raidrsim
itself and escapes with its traceback (exit 1), whatever its type.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import overhead as overhead_mod
from .bloom import PlanUnsatisfiableError
from .experiment import (
    ConfigError,
    ExperimentSpec,
    apply_overrides,
    load_config,
    spec_from_flat,
)
from .raidr import UnbinnableRowError
from .selftest import run_selftest
from .simulate import RefreshSimulation, SimReport, check_report_invariants, keep_block_pages, profiled_blocks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _flat_config(args) -> dict[str, str]:
    flat = load_config(args.config) if args.config else {}
    flat = apply_overrides(flat, args.set)
    if args.seed is not None:
        flat["seed"] = str(args.seed)
    return flat


def _build_spec(args) -> ExperimentSpec:
    return spec_from_flat(_flat_config(args))


def _ensure_outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _csv_comment(spec: ExperimentSpec) -> str:
    return f"# config_sha256={spec.config_hash()} seed={spec.seed}"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text)


def write_bins_csv(path: Path, spec: ExperimentSpec, sim: RefreshSimulation) -> None:
    lines = [_csv_comment(spec), "bin_index,interval_ms,rows_inserted,filter_m_bits,filter_k,measured_fpr"]
    for b, filt in enumerate(sim.bins.filters):
        lines.append(
            f"{b},{sim.bins.intervals_ms[b]!r},{sim.bins.counts[b]},"
            f"{filt.params.m},{filt.params.k},{sim.filter_fprs[b]!r}"
        )
    d = sim.bins.default_bin
    lines.append(f"{d},{sim.bins.intervals_ms[d]!r},{sim.bins.counts[d]},0,0,0.0")
    lines.append(f"# total_filter_bits={sim.bins.total_filter_bits}")
    _write_text(path, "\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    spec = _build_spec(args)
    sim = RefreshSimulation(spec)
    out = _ensure_outdir(args)  # once the engine, which may reject the config, is built
    report = sim.run()
    _write_text(out / "simreport.txt", report.to_text())
    write_bins_csv(out / "bins.csv", spec, sim)
    print(f"scenario = {report.scenario}")
    print(f"savings_fraction = {report.savings_fraction:.6f}")
    print(f"retention_failures = {report.retention_failures}")
    print(f"unsafe_rows = {report.unsafe_rows}")
    print(f"total_filter_bits = {report.total_filter_bits}")
    print(f"wall_time_s = {report.wall_time_s:.3f}")
    print(f"artifacts: {out / 'simreport.txt'}, {out / 'bins.csv'}")
    violations = check_report_invariants(report, spec)
    for v in violations:
        print(f"INVARIANT VIOLATION: {v}", file=sys.stderr)
    return EXIT_INVARIANT if violations else EXIT_OK


def _sweep_point(spec: ExperimentSpec) -> SimReport:
    return RefreshSimulation(spec).run()


def _sweep_row(index: int, key: str, value: str, spec: ExperimentSpec, report: SimReport) -> dict:
    baseline, raidr = overhead_mod.policy_points(spec.device, spec.overhead, report.savings_fraction)
    return {
        "point_index": index,
        "axis": key,
        "value": value,
        "savings_fraction": report.savings_fraction,
        "retention_failures": report.retention_failures,
        "unsafe_rows": report.unsafe_rows,
        "fpr_extra_refreshes": report.fpr_extra_refreshes,
        "refreshes_issued": report.refreshes_issued,
        "throughput_loss_baseline": baseline.throughput_loss,
        "throughput_loss_raidr": raidr.throughput_loss,
        "refresh_energy_fraction_baseline": baseline.refresh_energy_fraction,
        "refresh_energy_fraction_raidr": raidr.refresh_energy_fraction,
        # RAIDR's loss is the baseline's times (1 - savings), so it is clamped only where the baseline's is
        "clamped": baseline.clamped,
    }


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    flat = _flat_config(args)
    base_spec = spec_from_flat(flat)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    # each point is the spec `simulate --set axis=value` runs, seed included;
    # every point is validated and run before any output exists
    specs = [spec_from_flat({**flat, args.axis: v}) for v in values]

    if args.jobs > 1:
        # imported here, so that no other command starts by loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs, initializer=keep_block_pages) as pool:
            reports = list(pool.map(_sweep_point, specs))
    else:
        reports = [_sweep_point(spec) for spec in specs]
    out = _ensure_outdir(args)

    rows = [_sweep_row(i, args.axis, v, spec, r) for i, (v, spec, r) in enumerate(zip(values, specs, reports))]
    lines = [_csv_comment(base_spec), ",".join(rows[0])]  # the columns are the row's keys
    for i, (row, report) in enumerate(zip(rows, reports)):
        point_dir = out / f"point_{i:03d}"
        point_dir.mkdir(exist_ok=True)
        _write_text(point_dir / "simreport.txt", report.to_text())
        lines.append(",".join(map(_fmt_cell, row.values())))
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    _print_clamp_note(sorted({spec.device.density_gbit for spec, row in zip(specs, rows) if row["clamped"]}))
    print(f"swept {args.axis} over {len(values)} values -> {out / 'sweep.csv'}")
    violations = [(i, v) for i, (spec, r) in enumerate(zip(specs, reports)) for v in check_report_invariants(r, spec)]
    for i, v in violations:
        print(f"INVARIANT VIOLATION: point {i} ({args.axis}={values[i]}): {v}", file=sys.stderr)
    return EXIT_INVARIANT if violations else EXIT_OK


def _print_clamp_note(densities_gbit) -> None:
    if densities_gbit:
        print(f"# throughput loss clamped to 1.0 at {', '.join(map(str, densities_gbit))} Gb: "
              "the refresh load exceeds the window there")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_profile(args) -> int:
    spec = _build_spec(args)
    out = _ensure_outdir(args)
    path = out / "profile.csv"
    with open(path, "w") as fh:
        fh.write(_csv_comment(spec) + "\n")
        fh.write("row_index,measured_retention_ms,assigned_bin\n")
        for gt, sparse in profiled_blocks(spec):
            rows = range(gt.start, gt.start + gt.num_rows)
            measured = sparse.dense()
            bins = spec.bins.classify(measured)
            fh.write("".join([f"{i},{m!r},{b}\n" for i, m, b in zip(rows, measured.tolist(), bins.tolist())]))
    print(f"profiled {spec.device.num_rows} rows ({spec.profiler.mode} mode) -> {path}")
    return EXIT_OK


def cmd_overhead(args) -> int:
    spec = _build_spec(args)
    cfg = spec.overhead
    points = overhead_mod.density_sweep(spec.device, cfg)
    out = _ensure_outdir(args)
    lines = [
        _csv_comment(spec),
        "density_bits,policy,savings,throughput_loss,refresh_energy_fraction,trfc_ns_used,clamped",
    ]
    for p in points:
        lines.append(
            f"{p.density_bits},{p.policy},{p.savings!r},{p.throughput_loss!r},"
            f"{p.refresh_energy_fraction!r},{p.trfc_ns_used!r},{_fmt_cell(p.clamped)}"
        )
    path = out / "overhead.csv"
    _write_text(path, "\n".join(lines) + "\n")
    print(
        "# tRFC beyond the table is a proportional projection from the "
        f"{cfg.extrapolation_anchor_gbit} Gb entry: treat high-density rows as a "
        "calibrated band, not measured values"
    )
    print(
        f"# energy constants: e_refresh_cmd={cfg.e_refresh_cmd_nj_per_gbit} nJ/Gb, "
        f"background={cfg.e_background_mw} mW, activity={cfg.e_activity_mw} mW"
    )
    for p in points:
        print(
            f"{p.density_gbit:8.3f} Gb  {p.policy:8s}  loss={p.throughput_loss:.4f}  "
            f"energy_fraction={p.refresh_energy_fraction:.4f}  trfc={p.trfc_ns_used:.1f} ns"
        )
    _print_clamp_note(sorted({p.density_gbit for p in points if p.clamped}))
    print(f"artifact: {path}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = run_selftest()
    return EXIT_INVARIANT if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raidrsim",
        description="Retention-aware multi-rate DRAM refresh simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default):
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", default=out_default, metavar="DIR", help="artifact directory")
        p.add_argument("--seed", type=int, default=None, metavar="U64", help="master seed override")

    p_sim = sub.add_parser("simulate", help="run one closed-loop simulation")
    common(p_sim, "out/simulate")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run one simulation per axis value")
    common(p_sweep, "out/sweep")
    p_sweep.add_argument("--axis", required=True, metavar="KEY", help="config key to sweep")
    p_sweep.add_argument("--values", required=True, metavar="V1,V2,...", help="axis values")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N", help="parallel sweep points")
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser("profile", help="profile retention and export per-row CSV")
    common(p_prof, "out/profile")
    p_prof.set_defaults(func=cmd_profile)

    p_over = sub.add_parser("overhead", help="analytic density sweep of refresh overhead")
    common(p_over, "out/overhead")
    p_over.set_defaults(func=cmd_overhead)

    p_self = sub.add_parser("selftest", help="run the embedded invariant suite")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    keep_block_pages()
    try:
        return args.func(args)
    except (ConfigError, PlanUnsatisfiableError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnbinnableRowError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
