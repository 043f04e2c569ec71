"""Golden sha256 digests of CLI artifacts and of one checkpoint blob.

A refactor must leave every artifact byte alone, so any change to these
digests is a deliberate artifact change and is made here on purpose.
Every digest was last retaken when the config lost bins.base_interval_ms
and device.banks: each report lost those two echo lines, and every
config_sha256 (in the reports, the CSV comments and the checkpoint's
config text and header digest) changed with them; no other byte did.
"""

import hashlib

import pytest

from raidrsim.cli import main
from raidrsim.experiment import apply_overrides, spec_from_flat
from raidrsim.simulate import RefreshSimulation

ROWS_20K = "device.density_bits=163840000"  # 20,000 rows of 8,192 bits

# measured profiling that misses VRT low states and DPD worst patterns, so
# rows fail, and a loose Bloom target, so both filters have false positives
MEASURED_VRT_DPD = [
    "dist.weak_fraction=0.2", "dist.floor_ms=112.0",
    "vrt.enabled=true", "vrt.affected_fraction=0.3", "vrt.low_factor=0.8",
    "vrt.p_high_to_low=0.2", "vrt.p_low_to_high=0.3",
    "dpd.enabled=true", "dpd.num_patterns=4", "dpd.worst_pattern_factor=0.8",
    "profiler.mode=measured", "profiler.patterns_tested=2", "profiler.rounds=2",
    "profiler.profiling_window_span=4", "bloom.target_fpr=0.2", "sim.horizon_windows=64",
]


def sets(*overrides):
    return [arg for item in overrides for arg in ("--set", item)]


# name -> (argv without --out, {artifact path: sha256})
CASES = {
    "simulate-default": (
        ["simulate", "--seed", "1", *sets(ROWS_20K)],
        {
            "simreport.txt": "471a8ce36896d031399a5402507503fadd1e54c440cc0a29d113b720433ad383",
            "bins.csv": "4b462fa5d4919ff8915aace80d0b137cc5ec987143aa7450d0746945a8ea0b99",
        },
    ),
    "simulate-measured-vrt-dpd": (
        ["simulate", "--seed", "8675309", *sets(ROWS_20K, *MEASURED_VRT_DPD)],
        {
            "simreport.txt": "7d802ad5ced8fe67d2bea52ed98bcc813ae6f2eea758d112d32abff4e2b79513",
            "bins.csv": "380d6bf2b9b7320c50854bbfe8699d4ca05a83cf6c3fce5e0b54a98b1852952f",
        },
    ),
    # both sweep cases were retaken after a deliberate change: every point
    # runs with the spec's seed, so each point_*/simreport.txt equals what
    # `simulate --set <axis>=<value>` writes, and sweep.csv lost its seed column
    "sweep-guard": (
        [
            "sweep", "--seed", "5", *sets(ROWS_20K, *MEASURED_VRT_DPD),
            "--axis", "profiler.guard_band_factor", "--values", "1.0,1.1",
        ],
        {
            "sweep.csv": "c67c0c641c01498775be4b6b44370da17f3663f348036ad56caea27fdabb0388",
            "point_000/simreport.txt": "d3267146309e93633a6dcea76a4c326883c0b1a62c43a5fc4671f8a5b69fe124",
            "point_001/simreport.txt": "a1091f16d13a26fabda5455d525102454426d842ba1b85e045d49e169184549b",
        },
    ),
    "profile": (
        ["profile", "--seed", "2", *sets("device.density_bits=8192000")],  # 1,000 rows
        {"profile.csv": "970659f7f00301a9829277b1597195eda3455fac92e8e011219fe35dc38888e0"},
    ),
    "overhead-default": (
        ["overhead"],
        {"overhead.csv": "2c8d0fec9a7a2dbe4707b6d919df0f3e793d2a40571cd7f846efa1648f5a2352"},
    ),
    "overhead-non-default": (
        # every overhead key off its default; the 256 Gb points clamp
        ["overhead", *sets(
            "overhead.raidr_savings=0.3", "overhead.e_refresh_cmd_nj_per_gbit=10",
            "overhead.extrapolation_anchor_gbit=8", "overhead.densities_gbit=4,16,256",
        )],
        {"overhead.csv": "b460c30f24dfd84044f1e5d6589c41103922c8d9cb2672d1dc56571206a2f348"},
    ),
    "sweep-energy": (
        ["sweep", *sets(ROWS_20K), "--axis", "overhead.e_activity_mw", "--values", "1,200"],
        {
            "sweep.csv": "10d30cb6842bbb0e6006215759c8b6112abddce0cfab0528943187489fa133f8",
            "point_000/simreport.txt": "9e99c8bcc70a51d3529bf2fcc311236340da4bdbfa4d1306c57a861372e268ed",
            "point_001/simreport.txt": "5406a42e993459f5e841caf0f796ea12d636efe5c76ff02c83152e224588b61c",
        },
    ),
    "overhead-clamped": (
        # taken after a deliberate change: the `clamped` column
        ["overhead", *sets("overhead.densities_gbit=2,4,128")],
        {"overhead.csv": "bf2c82e55158cef9e48d3425ef53b05730f208d8ee3895977bb46a050b570179"},
    ),
}

CHECKPOINT_WINDOW = 23
CHECKPOINT_SHA256 = "f01a30841b9193bddda3b56514322e151a3692c183412524177479fb8465a460"


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digests(name, tmp_path, capsys):
    argv, digests = CASES[name]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {path: sha256_of((tmp_path / path).read_bytes()) for path in digests} == digests


def test_checkpoint_digest():
    flat = apply_overrides({"seed": "61"}, [ROWS_20K, *MEASURED_VRT_DPD])
    sim = RefreshSimulation(spec_from_flat(flat))
    assert sim.run(stop_after_window=CHECKPOINT_WINDOW) is None
    assert sha256_of(sim.checkpoint()) == CHECKPOINT_SHA256
