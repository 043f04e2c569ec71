#!/usr/bin/env python3
"""raidrsim benchmark: one workload through the public CLI, timed from outside.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI run happens in a fresh child process (perfbench/child.py) that
calls `raidrsim.cli.main(argv)`.  All timings are host time taken by the
benchmark, never the program's own `wall_time_s`.  Runs repeat until the
next one would end past `--seconds`; at least one run (one untraced and
one traced run with `--trace 1`) always happens.

Correctness, checked on every invocation: each run exits 0; the artifact
sha256 digests match across all runs of the set; the reports echo the
workload's size and the savings identity; oracle workloads report zero
retention failures; and, untimed, each workload's configuration at small
size gives exactly the four counters of the brute-force reference in
tests/reference_sim.py.

The last line of standard output is one JSON object: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics of the traced
runs plus the tracing overhead.  A fuller record, with digests and spans,
goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

RUN_SECONDS = 40

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "row_windows_per_s": ("1/s", "higher", 0.25),
}
PER_LAYER = {k: (unit, better) for k, (unit, better, _, _) in layertrace.LAYER_METRICS.items()}

SETUP_CHILDREN = 5  # import-only children per invocation, besides each run's own set-up
CHILD_TIMEOUT_S = 120
REFERENCE_COUNTERS = ("refreshes_issued", "retention_failures", "unsafe_rows", "fpr_extra_refreshes")
REPORT_KEYS = (
    "num_rows", "horizon_windows", "refreshes_issued", "refreshes_baseline_equiv",
    "savings_fraction", "retention_failures", "unsafe_rows", "fpr_extra_refreshes",
)
WORK_DIR = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The program cannot be benchmarked at all: missing, or fails to import."""


def spawn(work: Path, trace: bool, cli_args: list[str]) -> dict:
    """Run child.py once and wait for it; adds its exit code and peak RSS."""
    result_file = work / "result.json"
    result_file.unlink(missing_ok=True)
    with open(work / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(result_file), repr(spawned),
             "1" if trace else "0", *cli_args],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = json.loads(result_file.read_text()) if result_file.exists() else {}
    result["exit"] = proc.returncode
    result["peak_rss_mb"] = usage.ru_maxrss / 1024  # Linux reports KiB
    if proc.returncode != 0:
        result["log_tail"] = (work / "child.log").read_text()[-2000:]
    return result


def artifact_digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def expected_artifacts(workload: Workload) -> set[str]:
    if workload.command == "sweep":
        return {"sweep.csv"} | {f"point_{i:03d}/simreport.txt" for i in range(workload.points)}
    return {"simreport.txt", "bins.csv"}


def report_stats(path: Path) -> dict:
    kv = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
    return {k: (float if k == "savings_fraction" else int)(kv[k]) for k in REPORT_KEYS}


def run_once(workload: Workload, seed: int, work: Path, trace: bool) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    run = spawn(work, trace, workload.argv(seed, str(out)))
    run["traced"] = trace
    if out.is_dir():
        run["digests"] = artifact_digests(out)
        run["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        reports = sorted(k for k in run["digests"] if k.endswith("simreport.txt"))
        run["stats"] = [report_stats(out / k) for k in reports]
    shutil.rmtree(out, ignore_errors=True)
    return run


def run_problems(workload: Workload, run: dict, first: dict) -> list[str]:
    """Why one run fails, checked against the workload and the set's first run."""
    if run["exit"] != 0:
        return [f"exit code {run['exit']}: {run.get('log_tail', '').strip()[-300:]}"]
    if "wall_s" not in run or "digests" not in run:
        return ["no result from the child"]
    problems = []
    if set(run["digests"]) != expected_artifacts(workload):
        problems.append(f"artifacts {sorted(run['digests'])}")
    elif run["digests"] != first.get("digests"):
        problems.append("artifact digests differ from the set's first run")
    for s in run["stats"]:
        if (s["num_rows"], s["horizon_windows"]) != (workload.rows, workload.windows):
            problems.append(f"report size {s['num_rows']}x{s['horizon_windows']}")
        if s["savings_fraction"] != 1.0 - s["refreshes_issued"] / s["refreshes_baseline_equiv"]:
            problems.append("savings_fraction != 1 - issued/baseline")
        if workload.oracle_safe and s["retention_failures"] != 0:
            problems.append(f"retention_failures {s['retention_failures']} under oracle profiling")
    return problems


def oracle_check(workload: Workload, seed: int) -> tuple[int, list[str]]:
    """Engine against the brute-force reference on the small copies; untimed."""
    sys.dont_write_bytecode = True  # tests/ is imported read-only
    for path in (str(ROOT / "tests"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from raidrsim.experiment import spec_from_flat
    from raidrsim.simulate import run
    from reference_sim import run_reference

    problems = []
    points = workload.oracle_points(seed)
    for flat, point in points:
        try:
            spec = spec_from_flat(flat)
            if point is not None:  # the per-point seed the CLI's sweep derives
                spec = spec.with_seed(spec.sweep_seed(point))
            args = (spec.sim, spec.device, spec.dist, spec.vrt, spec.dpd, spec.profiler, spec.bins,
                    spec.bloom_budget)
            got, want = run(*args), run_reference(*args)
        except Exception as exc:  # a crash is a failed check, reported like a mismatch
            problems.append(f"oracle point {point}: {exc!r}")
            continue
        for key in REFERENCE_COUNTERS:
            if getattr(got, key) != getattr(want, key):
                problems.append(
                    f"oracle point {point}: {key} engine {getattr(got, key)} != reference {getattr(want, key)}"
                )
    return len(points), problems


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One invocation: warm-up, set-up samples, oracle check, then timed runs."""
    for needed in ("src/raidrsim/cli.py", "tests/reference_sim.py"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} not found under {ROOT}")
    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        warm = spawn(work, False, [])  # fills the page and bytecode caches; not counted
        if "setup_s" not in warm:
            raise BenchError(f"raidrsim does not import: {warm.get('log_tail', '')}")
        setups = [spawn(work, False, [])["setup_s"] for _ in range(SETUP_CHILDREN)]
        oracle_points, oracle_problems = oracle_check(workload, seed)

        plan = (False, True) if trace else (False,)
        runs: list[dict] = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            runs.append(run_once(workload, seed, work, plan[len(runs) % len(plan)]))
            runs[-1]["elapsed_s"] = time.monotonic() - t0
            longest = max(r["elapsed_s"] for r in runs)
            if len(runs) >= len(plan) and time.monotonic() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for run in runs:
        run["problems"] = run_problems(workload, run, runs[0])
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "setups": setups + [r["setup_s"] for r in runs if "setup_s" in r],
        "oracle_points": oracle_points,
        "oracle_problems": oracle_problems,
        "runs": runs,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(workload: Workload, m: dict) -> dict[str, float]:
    timed = [r for r in m["runs"] if not r["traced"] and "wall_s" in r]
    wall = _median([r["wall_s"] for r in timed])
    return {
        "wall_s": wall,
        "setup_s": _median(m["setups"]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
        "row_windows_per_s": workload.row_windows / wall if wall else 0.0,
    }


def per_layer_metrics(m: dict) -> dict[str, float]:
    traced = [r for r in m["runs"] if r["traced"] and "spans" in r]
    untraced = [r for r in m["runs"] if not r["traced"] and "wall_s" in r]
    samples = [
        {**layertrace.layer_metrics(r["spans"], r["counts"], r["wall_s"]),
         "cli.artifact_bytes": r.get("artifact_bytes", 0)}
        for r in traced
    ]
    out = {k: _median([s[k] for s in samples]) for k in samples[0]} if samples else {}
    out["trace.wall_s"] = _median([r["wall_s"] for r in traced])
    out["trace.untraced_wall_s"] = _median([r["wall_s"] for r in untraced])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    # with no traced run every metric reads 0; otherwise each must have been computed
    return {k: out[k] if samples else out.get(k, 0.0) for k in PER_LAYER}


def high_percentile(values: list[float]) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 90, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q} = {statistics.quantiles(values, n=100)[q - 1]:.4f} s"
    return f"no percentile has 10 samples beyond it at n = {n}"


def report(workload: Workload, m: dict) -> dict:
    """Print the human-readable summary; return the result object."""
    runs = m["runs"]
    failed = sum(1 for r in runs if r["problems"])
    correct = failed == 0 and not m["oracle_problems"]
    print(f"workload {workload.name}  seed {m['seed']}  trace {int(m['trace'])}  "
          f"({workload.rows} rows x {workload.windows} windows x {workload.points} point(s))")
    print(f"  runs attempted = {len(runs)}, failed = {failed}, failed_ratio = {failed / len(runs):.4f}")
    for i, r in enumerate(runs):
        for p in r["problems"]:
            print(f"  FAILED run {i}: {p}")
    print(f"  oracle cross-check: {m['oracle_points']} config(s), "
          f"{'counters equal' if not m['oracle_problems'] else 'MISMATCH'}")
    for p in m["oracle_problems"]:
        print(f"  FAILED {p}")
    first = runs[0]
    for name, digest in sorted(first.get("digests", {}).items()):
        print(f"  sha256 {name} = {digest}")
    for i, s in enumerate(first.get("stats", [])):
        print(f"  point {i}: " + ", ".join(
            f"{k} = {s[k]!r}" for k in ("savings_fraction", "retention_failures", "unsafe_rows",
                                        "fpr_extra_refreshes")))
    if m["trace"]:
        metrics, table = per_layer_metrics(m), PER_LAYER
        missing = sorted({s for r in runs for s in r.get("missing_spans", [])})
        if missing:
            print(f"  spans not installed (their metrics read 0): {', '.join(missing)}")
        wall = metrics["trace.wall_s"]
        shares = ", ".join(f"{mod} {metrics[f'{mod}.self_s'] / wall:.1%}" for mod in layertrace.MODULES
                           if wall)
        print(f"  layer self-time shares of traced wall_s: {shares}")
    else:
        metrics, table = end_to_end_metrics(workload, m), END_TO_END
        walls = [r["wall_s"] for r in runs if "wall_s" in r]
        print(f"  wall_s: median of {len(walls)} run(s); {high_percentile(walls)}")
        print(f"  setup_s: median of {len(m['setups'])} child start(s)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {table[name][0]}")
    return {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()},
    }


def save_record(m: dict, result: dict) -> None:
    """Keep the full record (digests, stats, one run's spans) beside the checkout."""
    runs = [{k: v for k, v in r.items() if k != "spans"} for r in m["runs"]]
    traced = [r["spans"] for r in m["runs"] if "spans" in r]
    record = {**m, "runs": runs, "result": result, "spans_of_first_traced_run": traced[0] if traced else []}
    path = WORK_DIR / "results" / f"{m['workload']}-seed{m['seed']}-trace{int(m['trace'])}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="raidrsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        m = measure(workload, args.seed % 2**64, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    result = report(workload, m)
    save_record(m, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
