"""Golden sha256 digests of CLI artifacts and of one checkpoint blob.

A refactor must leave every artifact byte alone, so any change to these
digests is a deliberate artifact change and is made here on purpose.
Every digest was retaken when the config lost bins.base_interval_ms and
device.banks: each report lost those two echo lines, and every
config_sha256 (in the reports, the CSV comments and the checkpoint's
config text and header digest) changed with them; no other byte did.

The simulate-default, simulate-measured-vrt-dpd, sweep-guard and
sweep-energy digests and CHECKPOINT_SHA256 were retaken once more when
each Bloom probe became a hash of its own (bloom._probe_positions): every
artifact that reads a filter changed with its false positives, which
move fpr_extra_refreshes, the refresh counts, savings_fraction, the
failures of the measured runs and each bin's measured FPR in bins.csv.
The profile and overhead digests read no filter and kept their bytes.
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
            "simreport.txt": "e017cc749fac068cef44c50e449e1c74b7ad8a813e876a0c82eb354890cf8ac7",
            "bins.csv": "69474632ccc45fd64b3891e308a2797422ebb25d7a30c1789b12472045843791",
        },
    ),
    "simulate-measured-vrt-dpd": (
        ["simulate", "--seed", "8675309", *sets(ROWS_20K, *MEASURED_VRT_DPD)],
        {
            "simreport.txt": "cef08eb40832240eeea1f6349b2aa3245f6fec00aaf2e8e3af2abdfca7be34bd",
            "bins.csv": "14d64bdbe24e11f723b96623593f561f40913bba4296333cfe698576ec507d3d",
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
            "sweep.csv": "0e56027676b7267170644790560d8673f57edba717d633cf50ad4e5078f412f1",
            "point_000/simreport.txt": "4f317fb2df1cf22230371ea38e39fb2f1dbe332dc72f125c9363e386e07af01a",
            "point_001/simreport.txt": "ee7ca9ff1e6eb6163d7dbb654d41b7868eb8aa74b2a5a84dd2acdbfc877f27d6",
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
            "sweep.csv": "63487368049fdc89b33488ab168886d05c017196b099264dc5fe705f6c654058",
            "point_000/simreport.txt": "201dd3b8f7cd1181266420a12c64a5998beed01d7c2cb934b708c7cdf4086a30",
            "point_001/simreport.txt": "1fef3d14b6e7cb187b21f35d5b762664db647e3676c464b69d632e28e88e2708",
        },
    ),
    "overhead-clamped": (
        # taken after a deliberate change: the `clamped` column
        ["overhead", *sets("overhead.densities_gbit=2,4,128")],
        {"overhead.csv": "bf2c82e55158cef9e48d3425ef53b05730f208d8ee3895977bb46a050b570179"},
    ),
}

CHECKPOINT_WINDOW = 23
CHECKPOINT_SHA256 = "a9a5b01239546e19c2441ae283b4e71d4bbcd17a5770d5f6aa0f54285858026e"


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
