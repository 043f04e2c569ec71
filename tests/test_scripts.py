import importlib.util
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_scripts_run_at_small_size():
    # guard 1 bins rows past their dormant low state, so they fail; guard 4 does not
    lines = run_script("profiling_hazard.py", "--seeds", "2", "--rows", "1000",
                       "--windows", "64", "--guards", "1,4")
    assert {float(line.split()[0]): line.split()[1] for line in lines[1:]} == {1.0: "2/2", 4.0: "0/2"}

    lines = run_script("run_default_scenario.py", "--rows", "2000")
    assert lines[0].split() == ["rows", "2000"]
    assert "retention failures   0" in lines


def test_device_memory_runs_one_fresh_process_per_density_and_run():
    lines = run_script("device_memory.py", "--densities", "16384000,0.0152587890625G", "--runs", "2", "--seed", "1",
                       "--set", "profiler.mode=measured")
    assert lines[0].split() == ["density_gbit", "rows", "run", "wall_s", "peak_rss_mb"]
    rows = [line.split() for line in lines[1:]]
    assert [(r[1], r[2]) for r in rows] == [("2000", "0"), ("2000", "1"), ("2000", "0"), ("2000", "1")]
    assert all(float(r[3]) > 0 and float(r[4]) > 1 for r in rows)


def test_device_memory_runs_a_sweep():
    lines = run_script("device_memory.py", "--densities", "16384000", "--seed", "1", "--set", "profiler.mode=measured",
                       "--axis", "profiler.guard_band_factor", "--values", "1.0,2.0")
    rows = [line.split() for line in lines[1:]]
    assert [(r[1], r[2]) for r in rows] == [("2000", "0")]
    assert float(rows[0][4]) > 1


def test_device_memory_writes_bytecode_before_measuring(tmp_path, monkeypatch):
    # measured children inherit PYTHONDONTWRITEBYTECODE; the warm-up child
    # must compile every module of the checkout all the same
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    script = runpy.run_path(str(ROOT / "scripts" / "device_memory.py"), run_name="device_memory")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setitem(script["write_bytecode"].__globals__, "ROOT", tmp_path)
    script["write_bytecode"]()
    sources = sorted((tmp_path / "src" / "raidrsim").glob("*.py"))
    assert sources and all(Path(importlib.util.cache_from_source(str(p))).is_file() for p in sources)


def test_each_mutant_still_applies():
    # scripts/mutants.py runs each mutant against its tests; a full run is
    # too slow for this suite, so here each mutant's old text must occur
    # exactly once and each of its test ids, down to a parametrization,
    # must still collect: pytest exits 4 on an id it cannot find
    mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"), run_name="mutants")
    names = [m.name for m in mutants["MUTANTS"]]
    assert len(set(names)) == len(names)
    for m in mutants["MUTANTS"]:
        assert mutants["occurrences"](m) == 1, m.name
        assert m.new != m.old and m.path.split("/")[0] in mutants["COPIED"], m.name
    ids = sorted({test for m in mutants["MUTANTS"] for test in m.tests})
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
