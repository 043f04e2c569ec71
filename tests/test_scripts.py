import os
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
