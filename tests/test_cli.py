import ctypes
import dataclasses
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raidrsim import cli as cli_mod
from raidrsim.bloom import BloomFilter
from raidrsim.cli import main
from raidrsim.experiment import (
    _SCHEMA,
    ConfigError,
    ExperimentSpec,
    OverheadConfig,
    SimConfig,
    apply_overrides,
    config_text,
    parse_config_text,
    spec_from_flat,
)
from raidrsim.profiler import ProfilerConfig
from raidrsim.raidr import BinConfig
from raidrsim.retention import DeviceConfig, DpdModel, RetentionDistribution, VrtModel
from raidrsim.simulate import run

from reference_sim import build_bins, parts_of


def run_cli(*argv):
    return main(list(argv))


SMALL = [
    "--set", "device.density_bits=40960000",  # 5000 rows
    "--set", "sim.horizon_windows=32",
]

# 2,000 rows under measured profiling that misses VRT low states and DPD
# worst patterns, so rows fail and the guard band changes their bins
MEASURED_NOISY = [
    "--set", "device.density_bits=16384000", "--set", "sim.horizon_windows=64", "--set", "seed=7",
    "--set", "dist.weak_fraction=0.3", "--set", "dist.floor_ms=160",
    "--set", "vrt.enabled=true", "--set", "vrt.affected_fraction=0.3", "--set", "vrt.low_factor=0.8",
    "--set", "dpd.enabled=true", "--set", "dpd.worst_pattern_factor=0.8",
    "--set", "profiler.mode=measured", "--set", "profiler.patterns_tested=2", "--set", "profiler.rounds=2",
    "--set", "profiler.profiling_window_span=4",
]


class TestConfig:
    def test_defaults_roundtrip(self):
        spec = ExperimentSpec()
        assert spec_from_flat(spec.to_flat()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key.*bogus"):
            spec_from_flat({"bogus.key": "1"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="vrt.low_factor"):
            spec_from_flat({"vrt.low_factor": "not-a-number"})

    def test_invariant_violation_is_config_error(self):
        with pytest.raises(ConfigError):
            spec_from_flat({"dist.weak_fraction": "1.5"})

    def test_parse_text_and_comments(self):
        flat = parse_config_text(
            """
            # a comment
            seed = 9
            bins.thresholds_ms = 128,256

            dist.weak_fraction = 0.01
            """
        )
        assert flat == {
            "seed": "9",
            "bins.thresholds_ms": "128,256",
            "dist.weak_fraction": "0.01",
        }

    def test_parse_text_rejects_garbage(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("what is this")

    def test_overrides(self):
        flat = apply_overrides({"seed": "1"}, ["seed=2", "scenario=x"])
        assert flat == {"seed": "2", "scenario": "x"}

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError, match="--set"):
            apply_overrides({}, ["seed:2"])

    @pytest.mark.parametrize("scenario", [" x", "x ", "a\nb", "a\x0bb"])
    def test_scenario_must_survive_config_text(self, scenario):
        with pytest.raises(ConfigError, match="scenario"):
            ExperimentSpec(scenario=scenario)

    def test_explicit_bloom_params_validation(self):
        with pytest.raises(ConfigError, match="bloom.explicit"):
            spec_from_flat({"bloom.explicit_m": "0", "bloom.explicit_k": "2"})

    def test_readme_config_block_parses_to_the_defaults(self):
        # a key deleted from the spec but left in the README fails here
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert spec_from_flat(parse_config_text(block)) == ExperimentSpec()

    def test_config_hash_stable(self):
        a = ExperimentSpec().config_hash()
        b = spec_from_flat({}).config_hash()
        assert a == b and len(a) == 64

    @pytest.mark.parametrize("overhead, match", [
        (OverheadConfig(extrapolation_anchor_gbit=3.0), "anchor"),
        (OverheadConfig(densities_gbit=()), "positive"),
        (OverheadConfig(densities_gbit=(4.0, 2.0)), "ascending"),
        (OverheadConfig(raidr_savings=1.5), "savings"),
        (OverheadConfig(e_activity_mw=-1.0), "e_activity_mw"),
    ])
    def test_overhead_values_checked_when_spec_is_built(self, overhead, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentSpec(overhead=overhead)

    def test_seed_follows_master(self):
        spec = spec_from_flat({"seed": "77"})
        assert spec.sim.seed == 77
        assert spec.with_seed(5).sim.seed == 5

    def test_schema_names_every_spec_field(self):
        # a section field is `section.field`, a bloom_x field `bloom.x`, any
        # other spec field its own name; sim.seed is the master seed
        spec = ExperimentSpec()
        fields = set()
        for f in dataclasses.fields(spec):
            value = getattr(spec, f.name)
            if dataclasses.is_dataclass(value):
                fields |= {f"{f.name}.{g.name}" for g in dataclasses.fields(value)}
            elif f.name.startswith("bloom_"):
                fields.add("bloom." + f.name.removeprefix("bloom_"))
            else:
                fields.add(f.name)
        assert fields - {"sim.seed"} == set(_SCHEMA)


def floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_specs(draw):
    """Specs over every schema key: non-round floats, empty and long lists, tRFC tables."""
    row_bits = draw(st.integers(1, 1 << 14))
    densities = sorted(draw(st.lists(floats(1e-3, 1e3), min_size=1, max_size=5, unique=True)))
    latencies = sorted(draw(st.lists(floats(1.0, 1e4), min_size=len(densities), max_size=len(densities))))
    device = DeviceConfig(
        density_bits=row_bits * draw(st.integers(1, 1 << 40)),
        row_size_bits=row_bits,
        trefw_ms=draw(floats(1e-3, 1e3)),
        refresh_cmds_per_window=draw(st.integers(1, 1 << 20)),
        trfc_table_ns=dict(zip(densities, latencies)),
    )
    floor = device.trefw_ms * draw(floats(1.0, 8.0))
    weak_high = floor + draw(floats(1e-3, 1e3))
    dist = RetentionDistribution(
        kind=draw(st.sampled_from(["two-population", "lognormal-tail"])),
        weak_fraction=draw(floats(0.0, 1.0)),
        floor_ms=floor,
        weak_high_ms=weak_high,
        strong_value_ms=weak_high + draw(floats(0.0, 1e4)),
        lognormal_median_ms=draw(floats(1e-3, 1e4)),
        lognormal_sigma=draw(floats(1e-3, 10.0)),
    )
    vrt = VrtModel(
        enabled=draw(st.booleans()),
        affected_fraction=draw(floats(0.0, 1.0)),
        low_factor=draw(floats(1e-6, 1.0)),
        p_high_to_low=draw(floats(0.0, 1.0)),
        p_low_to_high=draw(floats(0.0, 1.0)),
    )
    dpd = DpdModel(
        enabled=draw(st.booleans()),
        num_patterns=draw(st.integers(1, 64)),
        worst_pattern_factor=draw(floats(1e-6, 1.0)),
    )
    mode = draw(st.sampled_from(["oracle", "measured"]))
    profiler = ProfilerConfig(
        mode=mode,
        patterns_tested=draw(st.integers(1, dpd.num_patterns if mode == "measured" else 128)),
        rounds=draw(st.integers(1, 16)),
        guard_band_factor=draw(floats(1.0, 16.0)),
        profiling_window_span=draw(st.integers(1, 16)),
    )
    mults = sorted(draw(st.lists(st.integers(1, 64), max_size=5, unique=True)))
    bins = BinConfig(thresholds_ms=tuple(device.trefw_ms * m for m in mults))
    explicit_m = draw(st.none() | st.integers(1, 1 << 40))
    explicit_k = None if explicit_m is None else draw(st.none() | st.integers(1, 64))
    seed = draw(st.integers(0, 2**64 - 1))
    return ExperimentSpec(
        scenario=draw(st.text(alphabet="abcXYZ019-_.=# ", max_size=12).map(str.strip)),
        seed=seed,
        device=device,
        dist=dist,
        vrt=vrt,
        dpd=dpd,
        profiler=profiler,
        bins=bins,
        bloom_target_fpr=draw(floats(1e-12, 0.999)),
        bloom_explicit_m=explicit_m,
        bloom_explicit_k=explicit_k,
        sim=SimConfig(
            horizon_windows=max(bins.multipliers(device.trefw_ms)) + draw(st.integers(0, 1 << 20)), seed=seed,
        ),
        overhead=OverheadConfig(
            densities_gbit=tuple(sorted(draw(st.lists(floats(1e-3, 1e4), min_size=1, max_size=8)))),
            extrapolation_anchor_gbit=draw(st.sampled_from(densities)),
            e_refresh_cmd_nj_per_gbit=draw(floats(0.0, 1e3)),
            e_background_mw=draw(floats(0.0, 1e4)),
            e_activity_mw=draw(floats(0.0, 1e4)),
            raidr_savings=draw(floats(0.0, 1.0)),
        ),
    )


@given(valid_specs())
@settings(max_examples=150, deadline=None)
def test_spec_roundtrips_through_flat_and_text(spec):
    # checkpoint restore and the config echo both rest on this identity
    flat = spec.to_flat()
    assert spec_from_flat(flat) == spec
    assert spec_from_flat(parse_config_text(config_text(flat))) == spec
    # the bins the engine builds, and reports, refresh each bin at a whole
    # number of device.trefw_ms
    bins = build_bins(np.empty(0), spec.bins, spec.device.trefw_ms)
    assert bins.intervals_ms == tuple(m * spec.device.trefw_ms for m in bins.multipliers)


@pytest.mark.parametrize("argv", [
    ("simulate", "--set", "sim.horizon_windows=2"),
    ("simulate", "--set", "dist.floor_ms=32"),
    ("simulate", "--set", "profiler.mode=measured", "--set", "profiler.patterns_tested=9"),
    ("sweep", "--axis", "sim.horizon_windows", "--values", "32,2", *SMALL),
    ("sweep", "--axis", "dist.floor_ms", "--values", "64,32", *SMALL),
    ("overhead", "--set", "overhead.extrapolation_anchor_gbit=3"),
    ("overhead", "--set", "overhead.densities_gbit=4,2"),
    ("overhead", "--set", "overhead.raidr_savings=1.5"),
    ("sweep", "--axis", "overhead.extrapolation_anchor_gbit", "--values", "4,3", *SMALL),
    ("simulate", "--set", "overhead.extrapolation_anchor_gbit=3", *SMALL),
    ("simulate", "--set", "overhead.densities_gbit=4,2", *SMALL),
    ("simulate", "--set", "overhead.densities_gbit=", *SMALL),
    ("simulate", "--set", "overhead.raidr_savings=1.5", *SMALL),
    ("simulate", "--set", "overhead.e_background_mw=-1", *SMALL),
], ids=["horizon", "floor", "patterns", "sweep-horizon", "sweep-floor", "overhead-anchor",
        "overhead-densities", "overhead-savings", "sweep-overhead-anchor", "simulate-overhead-anchor",
        "simulate-overhead-densities", "simulate-overhead-no-densities", "simulate-overhead-savings",
        "simulate-overhead-energy"])
def test_invalid_config_exits_2_before_creating_outdir(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["bins.base_interval_ms=32", "device.banks=8"])
def test_deleted_keys_are_unknown(tmp_path, capsys, setting):
    assert run_cli("simulate", "--set", setting, "--out", str(tmp_path / "never")) == 2
    assert f"unknown config key(s): {setting.split('=')[0]}" in capsys.readouterr().err


def test_threshold_off_the_refresh_period_exits_2(tmp_path, capsys):
    # the default 128 and 256 ms thresholds are not whole multiples of 48 ms
    assert run_cli("simulate", "--set", "device.trefw_ms=48", "--out", str(tmp_path / "never")) == 2
    err = capsys.readouterr().err
    assert "bins.thresholds_ms" in err and "48.0" in err


def test_threshold_a_hair_under_a_multiple_exits_2(tmp_path, capsys):
    # taken as 2 x 64 ms, it would refresh its rows, all at 127.99999999 ms, every 128 ms
    settings = ["device.trefw_ms=64", "bins.thresholds_ms=127.99999999,256", "dist.weak_fraction=1",
                "dist.floor_ms=127.99999999", "dist.weak_high_ms=128", "device.density_bits=8192000",
                "sim.horizon_windows=16"]
    argv = [arg for item in settings for arg in ("--set", item)]
    assert run_cli("simulate", *argv, "--out", str(tmp_path / "never")) == 2
    assert "config error: bins.thresholds_ms" in capsys.readouterr().err


def test_retention_on_a_refresh_boundary_never_fails(tmp_path):
    # every row holds 4.3 ms, 43 periods of 0.1 ms, and is refreshed every
    # 4.3 ms, so no elapsed time exceeds it, though 4.3 / 0.1 rounds below 43
    settings = ["device.density_bits=16384000", "device.trefw_ms=0.1", "bins.thresholds_ms=4.3",
                "dist.weak_fraction=0", "dist.strong_value_ms=4.3", "dist.floor_ms=0.1", "dist.weak_high_ms=4.3",
                "sim.horizon_windows=86"]
    argv = [arg for item in settings for arg in ("--set", item)]
    assert run_cli("simulate", "--seed", "1", *argv, "--out", str(tmp_path)) == 0
    report = (tmp_path / "simreport.txt").read_text()
    assert "retention_failures = 0\n" in report and "unsafe_rows = 0\n" in report


@pytest.mark.parametrize("settings, intervals", [
    # a 0.6 worst pattern takes weak rows to 38.4 ms: under the 64 ms default
    # period they would fail, but each is binned at the device's 32 ms
    (["device.trefw_ms=32", "bins.thresholds_ms=64,128", "dpd.enabled=true",
      "dpd.worst_pattern_factor=0.6"], "32.0,64.0,128.0"),
    (["device.trefw_ms=128", "bins.thresholds_ms=256,512", "dist.floor_ms=128"], "128.0,256.0,512.0"),
], ids=["trefw-32", "trefw-128"])
def test_bins_refresh_at_multiples_of_the_device_period(tmp_path, settings, intervals):
    rows = ["--set", "device.density_bits=1638400000"]  # 200,000 rows
    argv = [arg for item in settings for arg in ("--set", item)]
    assert run_cli("simulate", "--out", str(tmp_path), *rows, *argv) == 0
    report = dict(line.split(" = ", 1) for line in (tmp_path / "simreport.txt").read_text().splitlines())
    assert report["bin_intervals_ms"] == intervals
    assert report["retention_failures"] == "0" and report["unsafe_rows"] == "0"
    csv_rows = [l.split(",") for l in (tmp_path / "bins.csv").read_text().splitlines()[2:-1]]
    assert ",".join(r[1] for r in csv_rows) == intervals


def test_config_file_that_is_not_text_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = \xff\n")
    assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "never")) == 2
    assert "not text" in capsys.readouterr().err


def test_key_given_twice_in_a_config_file_exits_2(tmp_path, capsys):
    # the file is rejected, not read as its last value; --set still
    # overrides the file, and a repeated --set keeps its last value
    path = tmp_path / "twice.cfg"
    path.write_text("seed = 1\n# seed = 5\nsim.horizon_windows = 32\nseed = 2\n")
    assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "never")) == 2
    assert "line 4: key 'seed' given again, first on line 1" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()

    path.write_text("seed = 1\n")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(path), *SMALL, "--set", "seed=2", "--set", "seed=3",
                   "--out", str(out)) == 0
    assert "\nseed = 3\n" in (out / "simreport.txt").read_text()


def test_unexpected_value_error_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    # a ValueError from inside the engine is a fault in raidrsim, not a bad
    # config: it escapes main, so the interpreter exits 1, not 2
    def broken_run(self, stop_after_window=None):
        raise ValueError("engine fault")

    monkeypatch.setattr(cli_mod.RefreshSimulation, "run", broken_run)
    with pytest.raises(ValueError, match="engine fault"):
        run_cli("simulate", "--out", str(tmp_path), *SMALL)
    assert "config error" not in capsys.readouterr().err


# 20,000 rows, half weak: no filter of at most 2**32 bits holds bin 0's
# 3,300 or so rows at an FPR of 1e-300
UNREACHABLE_FPR = ["--set", "device.density_bits=163840000", "--set", "dist.weak_fraction=0.5",
                   "--set", "bloom.target_fpr=1e-300"]


@pytest.mark.parametrize("argv", [
    ("simulate",),
    ("sweep", "--axis", "bloom.target_fpr", "--values", "1e-3,1e-300"),
    ("sweep", "--axis", "bloom.target_fpr", "--values", "1e-3,1e-300", "--jobs", "2"),
], ids=["simulate", "sweep", "sweep-jobs-2"])
def test_unreachable_fpr_target_exits_2(tmp_path, capsys, argv):
    # a budget no filter can meet is a bad config, not a fault in raidrsim;
    # under --jobs 2 the error crosses the process pool.  The filters are
    # planned as the engine is built, which comes before any output exists
    out = tmp_path / "out"
    assert run_cli(*argv, *UNREACHABLE_FPR, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"config error: no filter below 4294967296 bits meets fpr 1e-300 at n=\d+\n", err)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bloom", [
    {},
    {"bloom.target_fpr": "0.25"},
    {"bloom.explicit_m": "300", "bloom.explicit_k": "3"},
], ids=["default", "target-fpr", "explicit-m-k"])
def test_library_report_equals_cli_artifact(tmp_path, bloom):
    # the positional run of perfbench's oracle cross-check, in both budget
    # forms of spec.bloom_budget, writes the CLI's report bytes
    flat = {"seed": "5", "device.density_bits": "40960000", "sim.horizon_windows": "32", **bloom}
    argv = [arg for item in flat.items() for arg in ("--set", "=".join(item))]
    assert run_cli("simulate", "--out", str(tmp_path), *argv) == 0
    assert run(*parts_of(spec_from_flat(flat))).to_text() == (tmp_path / "simreport.txt").read_text()


def test_cli_runs_load_no_openssl(tmp_path):
    # SHA-256 comes from CPython's built-in module: hashlib's OpenSSL
    # binding maps libcrypto, about 3.5 MB, into every process that loads it
    env = {**os.environ, "PYTHONPATH": str(Path(cli_mod.__file__).parents[1])}
    code = f"""
import sys
from raidrsim import cli
from raidrsim.experiment import ExperimentSpec, SimConfig
from raidrsim.retention import DeviceConfig
from raidrsim.simulate import RefreshSimulation
out, small = {str(tmp_path)!r}, {SMALL!r}
assert cli.main(["simulate", *small, "--out", out + "/simulate"]) == 0
assert cli.main(["sweep", "--axis", "seed", "--values", "1,2", *small, "--out", out + "/sweep"]) == 0
sim = RefreshSimulation(ExperimentSpec(device=DeviceConfig.from_rows(64), sim=SimConfig(horizon_windows=8)))
sim.run(stop_after_window=4)
blob = sim.checkpoint()
assert RefreshSimulation.restore(blob).checkpoint() == blob
print(sorted({{"_hashlib", "hashlib"}} & set(sys.modules)))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert out.splitlines()[-1] == "[]"


class TestSimulateCommand:
    def test_default_scenario_small(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", str(tmp_path), *SMALL)
        out = capsys.readouterr().out
        assert code == 0
        assert "savings_fraction" in out
        savings = float(next(l for l in out.splitlines() if "savings_fraction" in l).split("=")[1])
        assert savings >= 0.74
        assert (tmp_path / "simreport.txt").exists()
        assert (tmp_path / "bins.csv").exists()

    def test_true_default_scenario_full_scale(self, tmp_path, capsys):
        # no overrides: 1e6 rows x 1024 windows
        code = run_cli("simulate", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        savings = float(next(l for l in out.splitlines() if "savings_fraction" in l).split("=")[1])
        assert savings >= 0.74

    def test_artifacts_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--out", str(a), "--seed", "5", *SMALL) == 0
        assert run_cli("simulate", "--out", str(b), "--seed", "5", *SMALL) == 0
        assert (a / "simreport.txt").read_bytes() == (b / "simreport.txt").read_bytes()
        assert (a / "bins.csv").read_bytes() == (b / "bins.csv").read_bytes()

    def test_config_error_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--out", str(tmp_path),
            "--set", "bloom.explicit_m=0", "--set", "bloom.explicit_k=4",
        )
        assert code == 2
        assert "bloom.explicit" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", str(tmp_path), "--set", "nope=1")
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_unbinnable_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--out", str(out), *SMALL,
            "--set", "profiler.guard_band_factor=8",
            "--set", "dist.weak_fraction=1.0",
        )
        assert code == 3
        assert "refreshed fast enough" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_outdir_created(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "dir"
        assert run_cli("simulate", "--out", str(target), *SMALL) == 0
        assert (target / "simreport.txt").exists()

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory permissions")
    def test_readonly_outdir_exit_4(self, tmp_path):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            assert run_cli("simulate", "--out", str(ro / "x"), *SMALL) == 4
        finally:
            ro.chmod(stat.S_IRWXU)

    def test_outdir_blocked_by_file_exit_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        assert run_cli("simulate", "--out", str(blocker), *SMALL) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed = 3\ndevice.density_bits = 40960000\nsim.horizon_windows = 16\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        text = (tmp_path / "o" / "simreport.txt").read_text()
        assert "seed = 3" in text

    def test_bins_csv_format(self, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path), *SMALL) == 0
        lines = (tmp_path / "bins.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "bin_index,interval_ms,rows_inserted,filter_m_bits,filter_k,measured_fpr"
        assert len(lines) == 2 + 3 + 1  # comment, header, three bins, total line
        assert lines[-1].startswith("# total_filter_bits=")

    @pytest.mark.parametrize("broken", ["no-library", "no-mallopt"])
    def test_runs_unchanged_without_mallopt(self, tmp_path, monkeypatch, broken):
        assert run_cli("simulate", "--out", str(tmp_path / "a"), *SMALL) == 0

        def cdll(name, *args, **kwargs):
            if broken == "no-library":
                raise OSError("no C library")
            return object()  # a library without mallopt

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert run_cli("simulate", "--out", str(tmp_path / "b"), *SMALL) == 0
        for name in ("simreport.txt", "bins.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the C library has no mallopt")
    def test_added_blocks_map_no_fresh_pages(self, tmp_path):
        # malloc keeps the freed pages of one block's temporaries for the
        # next, so a device four times larger takes about as many minor page
        # faults; a fresh mapping of every block's temporaries adds ~400 a block
        def minor_faults(num_rows):
            argv = ["simulate", "--out", str(tmp_path / str(num_rows)),
                    "--set", f"device.density_bits={num_rows * 8192}"]
            env = {**os.environ, "PYTHONPATH": str(Path(cli_mod.__file__).parents[1])}
            code = f"import sys; from raidrsim import cli; sys.exit(cli.main({argv!r}))"
            proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL)
            timer = threading.Timer(120, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0
            return usage.ru_minflt

        assert minor_faults(1 << 22) - minor_faults(1 << 20) < 1000


class TestSweepCommand:
    def test_guard_band_axis_failures_non_increasing(self, tmp_path):
        code = run_cli(
            "sweep", "--axis", "profiler.guard_band_factor", "--values", "1,4",
            "--out", str(tmp_path),
            "--set", "device.density_bits=12288000",  # 1500 rows
            "--set", "sim.horizon_windows=32",
            "--set", "dist.weak_fraction=0",
            "--set", "dist.strong_value_ms=600",
            "--set", "vrt.enabled=true",
            "--set", "vrt.affected_fraction=0.05",
            "--set", "vrt.low_factor=0.3",
            "--set", "vrt.p_high_to_low=0.2",
            "--set", "profiler.mode=measured",
            "--set", "profiler.profiling_window_span=1",
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[1].split(",")
        fail_col = header.index("retention_failures")
        fails = [int(l.split(",")[fail_col]) for l in lines[2:]]
        assert fails[0] >= fails[1]
        assert fails[1] == 0

    def test_weak_fraction_axis_savings_non_increasing(self, tmp_path):
        code = run_cli(
            "sweep", "--axis", "dist.weak_fraction", "--values", "0,0.001,0.01",
            "--out", str(tmp_path), *SMALL,
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[1].split(",")
        col = header.index("savings_fraction")
        savings = [float(l.split(",")[col]) for l in lines[2:]]
        assert savings == sorted(savings, reverse=True)
        assert (tmp_path / "point_000" / "simreport.txt").exists()

    def test_unknown_axis_exit_2(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run_cli("sweep", "--axis", "nope", "--values", "1", "--out", str(out)) == 2
        assert "unknown config key(s): nope" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "never"
        code = run_cli("sweep", "--axis", "seed", "--values", "1", *SMALL, "--jobs", jobs, "--out", str(out))
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_unbinnable_point_exits_3_under_parallel_jobs(self, tmp_path, capsys):
        # the worker's UnbinnableRowError must reach main intact
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--axis", "profiler.guard_band_factor", "--values", "1.0,8.0", *SMALL,
            "--set", "dist.weak_fraction=1.0", "--jobs", "2", "--out", str(out),
        )
        assert code == 3
        assert "refreshed fast enough" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_jobs_same_csv(self, tmp_path):
        common = [
            "--axis", "seed", "--values", "1,2,3", *SMALL,
        ]
        assert run_cli("sweep", *common, "--out", str(tmp_path / "serial")) == 0
        assert run_cli("sweep", *common, "--out", str(tmp_path / "par"), "--jobs", "3") == 0
        assert (tmp_path / "serial" / "sweep.csv").read_bytes() == (
            tmp_path / "par" / "sweep.csv"
        ).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("axis, values", [
        ("profiler.guard_band_factor", ["1.0", "1.25", "1.5"]),
        ("seed", ["3", "11"]),
        ("dist.weak_fraction", ["0.2", "0.3"]),
    ])
    def test_each_point_is_the_simulate_run_of_its_value(self, tmp_path, axis, values, jobs):
        # every point runs on the spec's own seed, so neither its index nor
        # the order of --values changes its report
        for name, listed in (("forward", values), ("reversed", values[::-1])):
            assert run_cli("sweep", *MEASURED_NOISY, "--axis", axis, "--values", ",".join(listed), "--jobs", jobs,
                           "--out", str(tmp_path / name)) == 0
        for i, value in enumerate(values):
            assert run_cli("simulate", *MEASURED_NOISY, "--set", f"{axis}={value}",
                           "--out", str(tmp_path / f"simulate-{i}")) == 0
            want = (tmp_path / f"simulate-{i}" / "simreport.txt").read_bytes()
            assert (tmp_path / "forward" / f"point_{i:03d}" / "simreport.txt").read_bytes() == want
            j = len(values) - 1 - i
            assert (tmp_path / "reversed" / f"point_{j:03d}" / "simreport.txt").read_bytes() == want

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_point_that_breaks_an_invariant_exits_3_after_every_artifact(self, tmp_path, capsys, monkeypatch,
                                                                           jobs):
        real = cli_mod.check_report_invariants

        def fails_at_guard_1_25(report, spec):
            return real(report, spec) + (["fake-check: broken"] if spec.profiler.guard_band_factor == 1.25 else [])

        monkeypatch.setattr(cli_mod, "check_report_invariants", fails_at_guard_1_25)
        code = run_cli("sweep", *MEASURED_NOISY, "--axis", "profiler.guard_band_factor", "--values", "1.0,1.25,1.5",
                       "--jobs", jobs, "--out", str(tmp_path))
        assert code == 3
        err = capsys.readouterr().err
        assert err == "INVARIANT VIOLATION: point 1 (profiler.guard_band_factor=1.25): fake-check: broken\n"
        assert (tmp_path / "sweep.csv").exists()
        assert all((tmp_path / f"point_{i:03d}" / "simreport.txt").exists() for i in range(3))

    def test_cli_import_loads_no_process_pool(self):
        # only sweep --jobs above 1 needs the pool; every other command
        # starts without loading it or multiprocessing
        env = {**os.environ, "PYTHONPATH": str(Path(cli_mod.__file__).parents[1])}
        code = ("import sys, raidrsim.cli; "
                "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("settings, clamped", [
        # a 10 us tRFC makes 8192 commands overrun the 64 ms window at any density
        (["--set", "device.trfc_table_ns=4:10000"], ["true", "true"]),
        ([], ["false"]),
    ], ids=["clamped", "default"])
    def test_clamped_column(self, tmp_path, settings, clamped):
        values = ",".join(["0.0", "0.001"][:len(clamped)])
        code = run_cli(
            "sweep", "--axis", "dist.weak_fraction", "--values", values, *SMALL, *settings,
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[-1] == "clamped"
        rows = [l.split(",") for l in lines[2:]]
        assert [r[-1] for r in rows] == clamped
        loss_col = lines[1].split(",").index("throughput_loss_baseline")
        assert [float(r[loss_col]) == 1.0 for r in rows] == [c == "true" for c in clamped]


class TestProfileCommand:
    def test_profile_csv(self, tmp_path):
        code = run_cli(
            "profile", "--out", str(tmp_path),
            "--set", "device.density_bits=8192000",  # 1000 rows
        )
        assert code == 0
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "row_index,measured_retention_ms,assigned_bin"
        assert len(lines) == 1002
        row = lines[2].split(",")
        assert row[0] == "0" and int(row[2]) in (0, 1, 2)
        assert float(row[1]) > 0  # plain decimal, no numpy scalar repr
        assert "np." not in lines[2]


class TestOverheadCommand:
    def test_density_sweep_csv(self, tmp_path, capsys):
        code = run_cli("overhead", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "calibrated band" in out
        lines = (tmp_path / "overhead.csv").read_text().splitlines()
        assert lines[1] == (
            "density_bits,policy,savings,throughput_loss,refresh_energy_fraction,trfc_ns_used,clamped"
        )
        base_rows = [l.split(",") for l in lines[2:] if l.split(",")[1] == "baseline"]
        losses = [float(r[3]) for r in base_rows]
        assert losses == sorted(losses)
        # 64 Gb baseline sits in the near-half band
        last = base_rows[-1]
        assert int(last[0]) == 64 * 2**30
        assert 0.35 <= float(last[3]) <= 0.55
        assert "loss clamped" not in out

    def test_clamped_loss_flagged_in_csv_and_one_note(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("overhead", "--out", str(tmp_path), "--set", "overhead.densities_gbit=2,4,128")
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        notes = [l for l in captured.out.splitlines() if "loss clamped" in l]
        assert notes == ["# throughput loss clamped to 1.0 at 128.0 Gb: the refresh load exceeds the window there"]
        rows = [l.split(",") for l in (tmp_path / "overhead.csv").read_text().splitlines()[2:]]
        assert len(rows) == 6
        assert all(r[-1] in ("true", "false") for r in rows)
        assert [(int(r[0]), r[1]) for r in rows if r[-1] == "true"] == [(128 * 2**30, "baseline")]
        assert all(float(r[3]) == 1.0 for r in rows if r[-1] == "true")

    def test_sweep_notes_clamped_loss_once(self, tmp_path, capsys):
        # a 10 us tRFC makes 8192 commands overrun the 64 ms window at any density
        code = run_cli(
            "sweep", "--out", str(tmp_path), *SMALL, "--set", "device.trfc_table_ns=4:10000",
            "--axis", "dist.weak_fraction", "--values", "0.0,0.001",
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        notes = [l for l in captured.out.splitlines() if "loss clamped" in l]
        assert notes == [
            "# throughput loss clamped to 1.0 at 0.03814697265625 Gb: the refresh load exceeds the window there"
        ]


class TestSelftestCommand:
    def test_fresh_build_passes(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 5

    def test_fault_injection_names_property(self, monkeypatch, capsys):
        # a filter that drops its first member from every answer has a
        # false negative, and the gate names the property it breaks
        claimed = BloomFilter.claimed
        monkeypatch.setattr(BloomFilter, "claimed", lambda self, keys: claimed(self, keys)[1:])
        assert run_cli("selftest") == 3
        out = capsys.readouterr().out
        assert "bloom-no-false-negatives: FAIL" in out

    def test_selftest_deterministic(self, capsys):
        run_cli("selftest")
        first = capsys.readouterr().out
        run_cli("selftest")
        second = capsys.readouterr().out
        assert first == second
