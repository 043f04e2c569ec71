"""Which functions of src/raidrsim the commands never run.

A function that no command reaches is either public API a command does
not use, or code that only the tests call; the second kind belongs in the
tests.  The check runs every subcommand on a small config in a fresh
interpreter under sys.setprofile, then compares the functions entered with
every function defined in the package's source.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import raidrsim

SRC = Path(raidrsim.__file__).parent

# function -> why no command reaches it
UNREACHED = {
    "simulate.RefreshSimulation.checkpoint": "the README's library API",
    "simulate.RefreshSimulation.restore": "the README's library API",
    "simulate.run": "the positional adapter of perfbench's oracle cross-check",
    "experiment.ExperimentSpec.sweep_seed": "the seed adapter of perfbench's oracle cross-check",
    "experiment.ExperimentSpec.with_seed": "perfbench's oracle cross-check seeds its sweep points with it",
    "raidr.UnbinnableRowError.__reduce__": "runs only when a sweep --jobs worker sends the error back",
}

SMALL = ["--set", "device.density_bits=16384000", "--set", "sim.horizon_windows=64"]  # 2,000 rows
NOISY = ["--set", "vrt.enabled=true", "--set", "vrt.affected_fraction=0.3", "--set", "vrt.low_factor=0.8",
         "--set", "dpd.enabled=true", "--set", "dpd.worst_pattern_factor=0.8",
         "--set", "dist.weak_fraction=0.3", "--set", "dist.floor_ms=160",
         "--set", "profiler.mode=measured", "--set", "profiler.patterns_tested=2",
         "--set", "profiler.rounds=2", "--set", "profiler.profiling_window_span=4"]

# each command's argv, in which {dir} is a directory of its own, and its exit code
COMMANDS = [
    (["simulate", "--out", "{dir}", *SMALL, *NOISY], 0),
    (["sweep", "--out", "{dir}", "--axis", "profiler.guard_band_factor", "--values", "1.0,1.5", *SMALL, *NOISY],
     0),
    (["profile", "--out", "{dir}", *SMALL, *NOISY, "--set", "dist.kind=lognormal-tail"], 0),
    (["overhead", "--out", "{dir}", "--config", "cfg"], 0),
    (["selftest"], 0),
    # a guard band that takes every row under the base period: unbinnable
    (["simulate", "--out", "{dir}", *SMALL, "--set", "profiler.guard_band_factor=48"], 3),
    # 2**17 + 1 rows, three blocks: pass 2 claims block 0 itself and forks a
    # worker for blocks 1 and 2, which runs only code the caller runs too
    (["simulate", "--out", "{dir}", "--set", f"device.density_bits={((1 << 17) + 1) * 8192}",
      "--set", "sim.horizon_windows=64"], 0),
]

# records the first line of every function entered in the package, by
# file, from before the package is imported
TRACER = """
import importlib.util, json, sys
from pathlib import Path

src = importlib.util.find_spec("raidrsim").submodule_search_locations[0]
entered = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        entered.add((Path(frame.f_code.co_filename).stem, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from raidrsim.cli import main

codes = []
for i, (argv, _) in enumerate(json.loads(sys.argv[1])):
    codes.append(main([a.replace("{dir}", str(i)) for a in argv]))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def defined_functions():
    """{(module, first line): qualified name} of every function in the package's source.

    A function's code starts at its first decorator, or at def if it has none.
    """
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first)] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_only_the_listed_functions_are_never_reached(tmp_path):
    (tmp_path / "cfg").write_text("device.density_bits = 16384000\noverhead.densities_gbit = 1,64\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", TRACER, json.dumps(COMMANDS)], env=env,
                          capture_output=True, text=True, timeout=120, check=True, cwd=tmp_path)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [code for _, code in COMMANDS]
    functions = defined_functions()
    entered = {tuple(e) for e in result["entered"]}
    unreached = sorted(name for key, name in functions.items() if key not in entered)
    assert unreached == sorted(UNREACHED), set(unreached) ^ set(UNREACHED)
