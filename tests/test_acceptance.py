"""Acceptance suite: one test per release criterion, at full stated scale.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines.
Each test also prints an `ACCEPTANCE n (<name>): PASS` line on success
(visible with -s or in the captured output).
"""

import math
import time

import numpy as np
import pytest

from raidrsim import rng
from raidrsim.bloom import BloomFilter, BloomParams, analytic_fpr
from raidrsim.cli import main as cli_main
from raidrsim.experiment import ExperimentSpec, SimConfig
from raidrsim.overhead import POLICY_BASELINE, OverheadConfig, density_sweep
from raidrsim.profiler import ProfilerConfig
from raidrsim.retention import DeviceConfig, DpdModel, RetentionDistribution, VrtModel
from raidrsim.simulate import RefreshSimulation, run

from reference_sim import counters, parts_of, run_reference


def _passed(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_c1_refresh_savings_default_scenario():
    # 3 bins {64,128,256} ms, weak_fraction 1e-3, per-filter FPR <= 1e-3,
    # oracle profiling, 1e6 rows x 1024 windows, < 60 s, savings >= 0.74
    spec = ExperimentSpec()
    assert spec.device.num_rows == 1_000_000
    assert spec.sim.horizon_windows == 1024
    assert spec.bins.intervals_ms(spec.device.trefw_ms) == (64.0, 128.0, 256.0)
    assert spec.dist.weak_fraction == 1e-3
    assert spec.bloom_target_fpr == 1e-3
    assert spec.profiler.mode == "oracle"

    t0 = time.perf_counter()
    report = RefreshSimulation(spec).run()
    elapsed = time.perf_counter() - t0

    assert elapsed < 60.0, f"default scenario took {elapsed:.1f}s"
    assert report.savings_fraction >= 0.74, report.savings_fraction
    assert report.retention_failures == 0
    assert report.bin_intervals_ms == (64.0, 128.0, 256.0)
    _passed(1, "refresh savings >= 0.74 at 1e6 rows under 60s")


def test_c2_density_scaling_band():
    # 64 Gb baseline throughput loss must land in the near-half band
    # [0.35, 0.55]; this is a calibrated-band consistency check on the
    # default tRFC table, not a reproduction of any published curve
    points = density_sweep(DeviceConfig(), OverheadConfig(densities_gbit=(8, 16, 32, 64)))
    losses = {p.density_gbit: p.throughput_loss for p in points if p.policy == POLICY_BASELINE}
    assert sorted(losses.values()) == [losses[d] for d in (8, 16, 32, 64)]
    assert 0.35 <= losses[64] <= 0.55, losses[64]
    _passed(2, f"64 Gb baseline throughput loss {losses[64]:.3f} in [0.35, 0.55]")


@pytest.mark.parametrize("seed", range(20))
def test_c3_oracle_safety(seed):
    # oracle profiling + guard 1 across 20 seeds, 1e5 rows x 4096 windows,
    # VRT and DPD enabled in the ground truth; exact-zero failures
    report = RefreshSimulation(ExperimentSpec(
        seed=seed,
        device=DeviceConfig.from_rows(100_000),
        dist=RetentionDistribution(weak_fraction=1e-3, floor_ms=128.0),
        vrt=VrtModel(enabled=True, affected_fraction=0.02, low_factor=0.8,
                     p_high_to_low=0.1, p_low_to_high=0.1),
        dpd=DpdModel(enabled=True, num_patterns=8, worst_pattern_factor=0.8),
        profiler=ProfilerConfig(mode="oracle", guard_band_factor=1.0),
        sim=SimConfig(horizon_windows=4096),
    )).run()
    assert report.retention_failures == 0
    assert report.unsafe_rows == 0
    if seed == 19:
        _passed(3, "zero retention failures: oracle profiling, 20 seeds")


def test_c4_profiling_hazard_and_guard_band_fix():
    # a one-window profiling campaign misses the low retention state, so
    # guard 1 fails in (nearly) every seed; guard 4 rebins everything
    # safely and must produce zero failures in all 20 seeds
    def hazard_run(seed, guard):
        return RefreshSimulation(ExperimentSpec(
            seed=seed,
            device=DeviceConfig.from_rows(2000),
            dist=RetentionDistribution(weak_fraction=0.0, strong_value_ms=600.0),
            vrt=VrtModel(enabled=True, affected_fraction=0.05, low_factor=0.3,
                         p_high_to_low=0.2, p_low_to_high=0.2),
            profiler=ProfilerConfig(mode="measured", guard_band_factor=guard,
                                    rounds=1, profiling_window_span=1),
            sim=SimConfig(horizon_windows=256),
        )).run()

    seeds = range(20)
    failing_seeds = sum(1 for s in seeds if hazard_run(s, 1.0).retention_failures >= 1)
    assert failing_seeds >= 15, f"only {failing_seeds}/20 seeds showed the hazard"
    guarded = [hazard_run(s, 4.0).retention_failures for s in seeds]
    assert all(f == 0 for f in guarded), guarded
    _passed(4, f"hazard in {failing_seeds}/20 seeds at guard 1; 0 failures at guard 4")


def test_c5_bloom_calibration_grid():
    # measured FPR within +/-20% of the analytic value on a (k, fill) grid
    # with fills inside [0.05, 1.0]; probe counts keep 4-sigma sampling
    # error inside the tolerance for every cell
    m = 8192
    grid = {
        1: [0.05, 0.25, 0.5, 1.0],
        2: [0.1, 0.5, 1.0],
        4: [0.3, 0.6, 1.0],
        8: [0.6, 0.8, 1.0],
    }
    for k, fills in grid.items():
        for fill in fills:
            n = max(1, round(fill * m / k))
            expected = analytic_fpr(m, k, n)
            probes_n = min(2_000_000, max(200_000, math.ceil(500 / expected)))
            filt = BloomFilter(BloomParams(m=m, k=k, seed=1000 + k))
            filt.insert_many(rng.hash_words_vec(10, k, np.arange(n, dtype=np.uint64)))
            probes = rng.hash_words_vec(11, k, np.arange(probes_n, dtype=np.uint64))
            measured = filt.claimed(probes).size / probes.size
            assert abs(measured - expected) <= 0.20 * expected, (k, fill, measured, expected)

    # zero false negatives over 1e5 randomized insert/probe trials
    trials = 0
    for seed in range(10):
        keys = rng.hash_words_vec(20, seed, np.arange(10_000, dtype=np.uint64))
        filt = BloomFilter(BloomParams(m=1 << 17, k=7, seed=seed))
        filt.insert_many(keys)
        assert filt.claimed(keys).size == keys.size
        trials += keys.size
    assert trials >= 100_000
    _passed(5, "bloom FPR calibrated within 20%; no false negatives in 1e5 trials")


def test_c6_oracle_equivalence_1000_rows_100_windows():
    # the vectorized engine must match the brute-force step-through oracle
    # exactly on a 1e3-row, 100-window instance with every noise source on
    parts = parts_of(ExperimentSpec(
        seed=12345,
        device=DeviceConfig.from_rows(1000),
        dist=RetentionDistribution(weak_fraction=0.1, floor_ms=112.0),
        vrt=VrtModel(enabled=True, affected_fraction=0.2, low_factor=0.8,
                     p_high_to_low=0.15, p_low_to_high=0.25),
        dpd=DpdModel(enabled=True, num_patterns=4, worst_pattern_factor=0.8),
        profiler=ProfilerConfig(mode="measured", patterns_tested=2, rounds=2,
                                guard_band_factor=1.0, profiling_window_span=4),
        sim=SimConfig(horizon_windows=100),
    ))
    ref = run_reference(*parts)
    assert counters(run(*parts)) == counters(ref)
    assert ref.retention_failures > 0  # the instance actually exercises failures
    _passed(6, "engine counts equal the brute-force oracle exactly")


def test_c7_determinism_and_checkpoint(tmp_path):
    # byte-identical artifacts for equal seeds, and checkpoint/restore
    # reproducing the uninterrupted run
    overrides = [
        "--set", "device.density_bits=81920000",  # 10000 rows
        "--set", "sim.horizon_windows=128",
        "--set", "vrt.enabled=true",
        "--set", "dpd.enabled=true",
        "--set", "dist.floor_ms=128",
        "--set", "vrt.low_factor=0.8",
        "--set", "dpd.worst_pattern_factor=0.8",
        "--seed", "99",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", "--out", str(a), *overrides]) == 0
    assert cli_main(["simulate", "--out", str(b), *overrides]) == 0
    for name in ("simreport.txt", "bins.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    spec = ExperimentSpec(
        seed=99,
        device=DeviceConfig.from_rows(10_000),
        dist=RetentionDistribution(weak_fraction=1e-3, floor_ms=128.0),
        vrt=VrtModel(enabled=True, low_factor=0.8),
        dpd=DpdModel(enabled=True, worst_pattern_factor=0.8),
        sim=SimConfig(horizon_windows=128),
    )
    sim = RefreshSimulation(spec)
    sim.run(stop_after_window=57)
    blob = sim.checkpoint()
    resumed = RefreshSimulation.restore(blob).run()
    uninterrupted = RefreshSimulation(spec).run()
    assert resumed.to_text() == uninterrupted.to_text()
    _passed(7, "byte-identical artifacts and checkpoint/restore equivalence")
