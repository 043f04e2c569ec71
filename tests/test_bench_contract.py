"""perfbench's oracle cross-check at 200 rows x 32 windows.

It calls `simulate.run` and `reference_sim.run_reference` positionally,
so a change to their signatures or to `spec.bloom_budget` fails here
rather than in a benchmark run.  perfbench is imported without writing
bytecode under it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ on the path
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workloads = sys.modules[module.Workload.__module__]
    monkeypatch.setattr(workloads, "ORACLE_ROWS", 200)
    monkeypatch.setattr(workloads, "ORACLE_WINDOWS", 32)
    return module


@pytest.mark.parametrize("name, points", [("dense-64gb", 1), ("vrt-churn", 1), ("guard-sweep", 4)])
def test_oracle_check_agrees_at_small_size(bench, name, points):
    assert bench.oracle_check(bench.WORKLOADS[name], 1) == (points, [])
