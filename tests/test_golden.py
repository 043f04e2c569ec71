"""Golden sha256 digests of CLI artifacts and of one checkpoint blob.

A refactor must leave every artifact byte alone, so any change to these
digests is a deliberate artifact change and is made here on purpose.
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
            "simreport.txt": "1d1384ff0365ee72fb51e2efbc818b967be172f3fdacb35b9518b527bd16ef6f",
            "bins.csv": "f02dbcf6aa5f741eacbad4cb28a0c515f817f8fc4a83fc5d2cb5b63c0543a5dd",
        },
    ),
    "simulate-measured-vrt-dpd": (
        ["simulate", "--seed", "8675309", *sets(ROWS_20K, *MEASURED_VRT_DPD)],
        {
            "simreport.txt": "904967712b10dd1664908b6214c8385ae5eca708063d4e4d71acc5a9184b22db",
            "bins.csv": "9cdd45204d643fbbb527973cb6acc060505513795bc6c6a26e95e7fa149cadcc",
        },
    ),
    # both sweep.csv digests were taken after a deliberate change: the final
    # `clamped` column; the other bytes equal the artifact from before it
    "sweep-guard": (
        [
            "sweep", "--seed", "5", *sets(ROWS_20K, *MEASURED_VRT_DPD),
            "--axis", "profiler.guard_band_factor", "--values", "1.0,1.1",
        ],
        {
            "sweep.csv": "13f143fef52b8e6fe310b4dbe23685083df79f0a492052508900116597a72589",
            "point_000/simreport.txt": "00dc18acefaf2d4912c383b5b8a3dcd91b156f80b1b0894e0532b3831666ed0e",
            "point_001/simreport.txt": "c387dd9140203d909022e73b7e17184bb0508cdc4e7f2ebcbbada53854fad19a",
        },
    ),
    "profile": (
        ["profile", "--seed", "2", *sets("device.density_bits=8192000")],  # 1,000 rows
        {"profile.csv": "35715987fe72f974141f2404bc43e2153845e2d9ad521fbd934eb1f0fd928484"},
    ),
    "overhead-default": (
        ["overhead"],
        {"overhead.csv": "36d251f30d8ea9b7f7c7c7d926cc85b65e97787299a07ad8b00dca592f738d99"},
    ),
    "overhead-non-default": (
        # every overhead key off its default; the 256 Gb points clamp
        ["overhead", *sets(
            "overhead.raidr_savings=0.3", "overhead.e_refresh_cmd_nj_per_gbit=10",
            "overhead.extrapolation_anchor_gbit=8", "overhead.densities_gbit=4,16,256",
        )],
        {"overhead.csv": "a9badeb378ccc8177badf50f6e8c8487a705723c0673aafd394dc3f71a289489"},
    ),
    "sweep-energy": (
        ["sweep", *sets(ROWS_20K), "--axis", "overhead.e_activity_mw", "--values", "1,200"],
        {
            "sweep.csv": "82658aed90433686a69567cf258e071773bd8700e54dfb34abe6f13c7df030fb",
            "point_000/simreport.txt": "8218adbf1d8980cd058534bca21e0340dc77b602ba655e751ff914f2c891a78b",
            "point_001/simreport.txt": "a1ec7aad13e0df5dadc18aa1c537c581382fc1ae902a44fe635ecd57b9899fb4",
        },
    ),
    "overhead-clamped": (
        # taken after a deliberate change: the `clamped` column
        ["overhead", *sets("overhead.densities_gbit=2,4,128")],
        {"overhead.csv": "f80e2b0ee7ec8f906dc7418bd7ab4cf8f806ff56f52f2baf7d7f18ae7b8d8d21"},
    ),
}

CHECKPOINT_WINDOW = 23
CHECKPOINT_SHA256 = "541e021258eb525dbe03b2157e00b4dda8daba93d6238d2f8fdab6a4e19185a0"


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
