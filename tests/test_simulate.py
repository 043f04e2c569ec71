import ast
import dataclasses
import hashlib
import math
import os
import pickle
import struct
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from raidrsim import retention as retention_mod
from raidrsim import rng
from raidrsim import simulate as simulate_mod
from raidrsim.bloom import BloomParams
from raidrsim.experiment import ExperimentSpec, SimConfig
from raidrsim.profiler import ProfilerConfig, profile_rows
from raidrsim.raidr import BinConfig, BinSet, UnbinnableRowError
from raidrsim.retention import (
    DIST_LOGNORMAL_TAIL,
    DIST_TWO_POPULATION,
    DeviceConfig,
    DpdModel,
    RetentionDistribution,
    VrtModel,
    generate_rows,
    vrt_tiles,
)
from raidrsim.simulate import CheckpointError, RefreshSimulation, check_report_invariants, run

from reference_sim import (
    build_bins, counters, ground_truth, next_low, parts_of, profile, run_reference, vrt_rows_of,
)


def quiet_spec(num_rows=2000, horizon=64, seed=0):
    return ExperimentSpec(seed=seed, device=DeviceConfig.from_rows(num_rows),
                          sim=SimConfig(horizon_windows=horizon))


def noisy_spec(num_rows=300, horizon=40, seed=7, guard=1.0, span=4):
    return ExperimentSpec(
        seed=seed,
        device=DeviceConfig.from_rows(num_rows),
        dist=RetentionDistribution(weak_fraction=0.2, floor_ms=112.0),
        vrt=VrtModel(enabled=True, affected_fraction=0.3, low_factor=0.8,
                     p_high_to_low=0.2, p_low_to_high=0.3),
        dpd=DpdModel(enabled=True, num_patterns=4, worst_pattern_factor=0.8),
        profiler=ProfilerConfig(mode="measured", patterns_tested=2, rounds=2,
                                guard_band_factor=guard, profiling_window_span=span),
        sim=SimConfig(horizon_windows=horizon),
    )


def report_of(spec):
    return RefreshSimulation(spec).run()


class TestAgainstReferenceOracle:
    def test_quiet_config_exact(self):
        parts = parts_of(quiet_spec(num_rows=400, horizon=32, seed=3))
        assert counters(run(*parts)) == counters(run_reference(*parts))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_noisy_configs_exact(self, seed):
        parts = parts_of(noisy_spec(seed=seed))
        assert counters(run(*parts)) == counters(run_reference(*parts))

    def test_rows_claimed_by_two_filters_exact(self):
        # a loose Bloom target makes both filters claim some of the same
        # rows; each row counts toward the first filter that claims it
        spec = dataclasses.replace(noisy_spec(seed=1), bloom_target_fpr=0.3)
        claims = RefreshSimulation(spec).bins.claims(np.arange(spec.device.num_rows, dtype=np.uint64))
        assert np.intersect1d(claims[0], claims[1]).size
        parts = parts_of(spec)
        assert counters(run(*parts)) == counters(run_reference(*parts))

    def test_odd_horizon_partial_cycles_exact(self):
        # horizons that are not multiples of the max multiplier stress the
        # partial-cycle accounting
        for horizon in (5, 7, 13, 31):
            parts = parts_of(noisy_spec(num_rows=150, horizon=horizon, seed=11))
            assert counters(run(*parts)) == counters(run_reference(*parts))

    def test_guard_band_suppresses_failures(self):
        def hazard_spec(guard):
            return ExperimentSpec(
                seed=19,
                device=DeviceConfig.from_rows(1500),
                dist=RetentionDistribution(weak_fraction=0.0, strong_value_ms=600.0),
                vrt=VrtModel(enabled=True, affected_fraction=0.05, low_factor=0.3,
                             p_high_to_low=0.2, p_low_to_high=0.2),
                profiler=ProfilerConfig(mode="measured", guard_band_factor=guard,
                                        rounds=1, profiling_window_span=1),
                sim=SimConfig(horizon_windows=64),
            )

        hazard = report_of(hazard_spec(1.0))
        guarded = report_of(hazard_spec(4.0))
        assert hazard.retention_failures > 0
        assert guarded.retention_failures == 0


class TestInvariants:
    def test_baseline_equivalence_single_bin(self):
        spec = dataclasses.replace(quiet_spec(num_rows=500, horizon=16, seed=1),
                                   bins=BinConfig(thresholds_ms=(64.0,)))
        rep = report_of(spec)
        assert rep.refreshes_issued == 500 * 16
        assert rep.savings_fraction == 0.0
        assert rep.retention_failures == 0

    def test_savings_bound(self):
        spec = quiet_spec()
        rep = report_of(spec)
        assert rep.savings_fraction <= 0.75
        assert not check_report_invariants(rep, spec)

    def test_empty_thresholds_pure_baseline(self):
        rep = report_of(dataclasses.replace(quiet_spec(num_rows=200, horizon=8),
                                            bins=BinConfig(thresholds_ms=())))
        assert rep.refreshes_issued == 200 * 8
        assert rep.savings_fraction == 0.0
        assert rep.total_filter_bits == 0

    def test_oracle_safety_many_seeds(self):
        for seed in range(8):
            rep = report_of(ExperimentSpec(
                seed=seed,
                device=DeviceConfig.from_rows(3000),
                dist=RetentionDistribution(weak_fraction=0.01, floor_ms=128.0),
                vrt=VrtModel(enabled=True, affected_fraction=0.1, low_factor=0.8),
                dpd=DpdModel(enabled=True, worst_pattern_factor=0.8),
                profiler=ProfilerConfig(mode="oracle", guard_band_factor=1.0),
                sim=SimConfig(horizon_windows=64),
            ))
            assert rep.retention_failures == 0
            assert rep.unsafe_rows == 0

    def test_fpr_accounting_identity(self):
        # recompute the extra-refresh count independently from the bin maps
        sim = RefreshSimulation(quiet_spec(num_rows=60_000, horizon=64, seed=9))
        rep = sim.run()
        rows = np.arange(60_000, dtype=np.uint64)
        mult = np.asarray(sim.bins.multipliers)
        q = mult[sim.bins.first_claims(sim.bins.claims(rows), rows.size)]
        p = mult[sim.bins.bin_cfg.classify(profile_of(sim))]
        expected = int((-(-64 // q) - (-(-64 // p))).sum())
        assert rep.fpr_extra_refreshes == expected
        # and the rate is in the right regime for the planned budget
        n_default = int(sim.bins.counts[-1])
        if rep.fpr_extra_refreshes:
            rate = rep.fpr_extra_refreshes / (n_default * 64)
            assert rate < 10 * 1e-3

    def test_savings_identity_and_report_text(self):
        rep = report_of(quiet_spec(seed=4))
        assert rep.savings_fraction == 1.0 - rep.refreshes_issued / rep.refreshes_baseline_equiv
        text = rep.to_text()
        assert "savings_fraction" in text
        assert "wall_time" not in text  # volatile fields stay out of artifacts
        assert "config_sha256" in text

    def test_invariant_checker_flags_oracle_failures(self):
        spec = dataclasses.replace(quiet_spec(seed=4),
                                   profiler=ProfilerConfig(mode="oracle", guard_band_factor=1.0))
        rep = report_of(spec)
        rep.retention_failures = 3
        problems = check_report_invariants(rep, spec)
        assert any("oracle-safety" in p for p in problems)

    def test_invariant_checker_flags_oracle_failures_at_any_guard(self):
        spec = dataclasses.replace(quiet_spec(seed=4),
                                   profiler=ProfilerConfig(mode="oracle", guard_band_factor=2.0))
        rep = report_of(spec)
        rep.retention_failures = 3
        problems = check_report_invariants(rep, spec)
        assert any("oracle-safety" in p for p in problems)

    def test_guarded_oracle_run_with_vrt_and_dpd_is_clean(self):
        spec = ExperimentSpec(
            seed=13,
            device=DeviceConfig.from_rows(3000),
            dist=RetentionDistribution(weak_fraction=0.05, floor_ms=160.0),
            vrt=VrtModel(enabled=True, affected_fraction=0.1, low_factor=0.8),
            dpd=DpdModel(enabled=True, worst_pattern_factor=0.8),
            profiler=ProfilerConfig(mode="oracle", guard_band_factor=1.5),
            sim=SimConfig(horizon_windows=64),
        )
        rep = report_of(spec)
        assert rep.retention_failures == 0
        assert check_report_invariants(rep, spec) == []

    def test_horizon_below_max_multiplier_rejected(self):
        with pytest.raises(ValueError, match="multiplier"):
            quiet_spec(horizon=2)


HEADER_SIZE = 40  # magic, version, SHA-256
UNPICKLED = []


def mark_unpickled():
    UNPICKLED.append(True)


class SetsFlagWhenUnpickled:
    def __reduce__(self):
        return mark_unpickled, ()


def signed(payload, version=simulate_mod._CHECKPOINT_VERSION):
    return b"RSIM" + struct.pack("<I", version) + hashlib.sha256(payload).digest() + payload


def config_of(payload):
    (n,) = struct.unpack_from("<Q", payload)
    return payload[8:8 + n].decode()


def with_text(payload, text):
    n = 8 + struct.unpack_from("<Q", payload)[0]
    return struct.pack("<Q", len(text.encode())) + text.encode() + payload[n:]


def with_window(payload, window):
    n = 8 + struct.unpack_from("<Q", payload)[0]
    return payload[:n] + struct.pack("<Q", window) + payload[n + 8:]


def state_offset(payload):
    return 8 + struct.unpack_from("<Q", payload)[0] + 16  # text block, window, failures


def with_state(payload, name, change):
    """payload with the stored VRT flags `name` replaced by change(flags)."""
    pos = state_offset(payload)
    arrays = simulate_mod._CHECKPOINT_ARRAYS
    n = (len(payload) - pos) // len(arrays)
    pos += n * arrays.index(name)
    old = np.frombuffer(payload, dtype=np.uint8, count=n, offset=pos)
    new = change(old.copy()).astype(np.uint8).tobytes()
    assert len(new) == n and new != old.tobytes()
    return payload[:pos] + new + payload[pos + n:]


def first_set_to(value):
    def change(a):
        a[0] = value
        return a
    return change


class TestDeterminismAndCheckpoint:
    def test_two_runs_identical(self):
        a = report_of(noisy_spec(seed=23)).to_text()
        b = report_of(noisy_spec(seed=23)).to_text()
        assert a == b

    def test_checkpoint_at_window_zero(self):
        sim = RefreshSimulation(noisy_spec(seed=31))
        blob = sim.checkpoint()
        fresh = report_of(noisy_spec(seed=31))
        resumed = RefreshSimulation.restore(blob).run()
        assert resumed.to_text() == fresh.to_text()

    def test_checkpoint_mid_horizon(self):
        sim = RefreshSimulation(noisy_spec(seed=37, horizon=40))
        assert sim.run(stop_after_window=17) is None
        blob = sim.checkpoint()
        resumed = RefreshSimulation.restore(blob).run()
        uninterrupted = report_of(noisy_spec(seed=37, horizon=40))
        assert resumed.to_text() == uninterrupted.to_text()

    def test_interrupted_original_also_matches(self):
        sim = RefreshSimulation(noisy_spec(seed=41))
        sim.run(stop_after_window=20)
        sim.checkpoint()
        rep = sim.run()
        assert rep.to_text() == report_of(noisy_spec(seed=41)).to_text()

    def test_corrupted_blob_rejected(self):
        sim = RefreshSimulation(noisy_spec(seed=43))
        blob = bytearray(sim.checkpoint())
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointError, match="integrity"):
            RefreshSimulation.restore(bytes(blob))

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError):
            RefreshSimulation.restore(b"NOPE" + bytes(40))

    def test_wrong_version_rejected(self):
        sim = RefreshSimulation(noisy_spec(seed=47))
        blob = bytearray(sim.checkpoint())
        blob[4] = 99  # version field
        with pytest.raises(CheckpointError, match="version"):
            RefreshSimulation.restore(bytes(blob))

    def test_checkpoint_mid_vrt_rebuilds_step_prefix(self):
        # the cached VRT hash prefix is rebuilt from seed and rows, never stored
        sim = RefreshSimulation(noisy_spec(seed=59, horizon=40))
        sim.run(stop_after_window=23)
        blob = sim.checkpoint()
        assert sim._v_prefix.size > 0
        assert sim._v_prefix.tobytes() not in blob
        restored = RefreshSimulation.restore(blob)
        gt = ground_truth_of(restored)
        rows = vrt_rows_of(gt)[vrt_rows_that_can_fail(restored, gt)].astype(np.uint64)
        assert np.array_equal(restored._v_prefix, rng.hash_words_vec(59, rng.TAG_VRT_STEP, rows))
        assert restored.run().to_text() == report_of(noisy_spec(seed=59, horizon=40)).to_text()

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_pickle_payload_never_unpickled(self, version):
        UNPICKLED.clear()
        payload = pickle.dumps(SetsFlagWhenUnpickled())
        with pytest.raises(CheckpointError):
            RefreshSimulation.restore(signed(payload, version))
        assert not UNPICKLED
        pickle.loads(payload)  # the payload is live: unpickling it does set the flag
        assert UNPICKLED

    @pytest.mark.parametrize("edit, match", [
        (lambda p: p + b"\0", "state is"),
        (lambda p: p[:-1], "state is"),
        (lambda p: p[:-1] + b"\x02", "0 or 1"),
        (lambda p: with_window(p, 41), "beyond horizon"),
        (lambda p: with_text(p, config_of(p) + "\nbogus.key = 1"), "bogus.key"),
        (lambda p: with_text(p, config_of(p).replace("sim.horizon_windows = 40", "sim.horizon_windows = 2")),
         "multiplier"),
        (lambda p: with_text(p, config_of(p).replace("seed = 61", "seed = 061")), "canonical"),
        (lambda p: struct.pack("<Q", 1 << 40) + p[8:], "truncated"),
        (lambda p: with_state(p, "seen", first_set_to(2)), "seen holds a byte"),
        # every row is refreshed in window 8, so seen must equal vrt_low, and
        # some row is high there
        (lambda p: with_state(p, "seen", lambda a: a | 1), "refreshed in window 8"),
        (lambda p: with_state(p, "vrt_low", lambda a: a | 1), "low row that is not seen"),
    ], ids=["trailing", "short", "bool-byte", "window", "unknown-key", "bad-config",
            "non-canonical", "text-length", "seen-byte", "seen-after-refresh", "low-unseen"])
    def test_malformed_payload_rejected(self, edit, match):
        sim = RefreshSimulation(fpr_spec())
        sim.run(stop_after_window=9)
        assert all(8 % m == 0 for m in sim.bins.multipliers)
        # the stored rows hold mixed flags, so each flag check meets both values
        for flags in (sim._v_low, sim._v_seen, sim._v_unsafe):
            assert 0 < np.count_nonzero(flags) < flags.size
        payload = sim.checkpoint()[HEADER_SIZE:]
        assert RefreshSimulation.restore(signed(payload)).run() is not None
        with pytest.raises(CheckpointError, match=match):
            RefreshSimulation.restore(signed(edit(payload)))

    def test_version_2_layout_rejected(self):
        # version 2 stored 18 bytes per VRT row: vrt_low u1, v_last i8 (the
        # last refresh window, 8 for every row here), v_runmin f8, v_unsafe u1
        payload, gt, low = every_vrt_row_at_window_9()
        n = low.size
        v_last = np.full(n, 8, dtype="<i8")
        high_ms, low_ms = vrt_retentions_ms(gt)
        v_runmin = np.where(low, low_ms, high_ms).astype("<f8")
        flags = low.astype(np.uint8).tobytes()
        v2 = payload + flags + v_last.tobytes() + v_runmin.tobytes() + bytes(n)
        with pytest.raises(CheckpointError, match="version 2"):
            RefreshSimulation.restore(signed(v2, version=2))

    def test_version_3_layout_rejected(self):
        # version 3 stored the three u1 flags for every VRT row, including
        # the rows that cannot fail; seen equals vrt_low after the refresh
        payload, gt, low = every_vrt_row_at_window_9()
        flags = low.astype(np.uint8).tobytes()
        v3 = payload + flags + flags + bytes(low.size)
        with pytest.raises(CheckpointError, match="version 3"):
            RefreshSimulation.restore(signed(v3, version=3))

    def test_fresh_checkpoint_with_a_low_row_rejected(self):
        # every row starts high and the toggle first steps into window 1, so
        # a low row is unreachable at windows 0 and 1, even if seen
        for window in (0, 1):
            sim = RefreshSimulation(fpr_spec())
            sim.run(stop_after_window=window)
            assert sim._v_low.size > 10
            payload = sim.checkpoint()[HEADER_SIZE:]
            # every other stored row low and seen, the rest high and unseen
            for name in ("vrt_low", "seen"):
                payload = with_state(payload, name, lambda a: a | (np.arange(a.size) % 2 == 0))
            with pytest.raises(CheckpointError, match=f"seen or low row at window {window}"):
                RefreshSimulation.restore(signed(payload))

    def test_checkpoint_bytes_survive_restore(self):
        # at the first windows, on both sides of the largest multiplier's first
        # refresh and at the horizon, restore then checkpoint gives the same bytes
        spec = noisy_spec(seed=71, horizon=40)
        sim = RefreshSimulation(spec)
        m = max(sim.bins.multipliers)
        gt = ground_truth_of(sim)
        can_fail = vrt_rows_that_can_fail(sim, gt)
        assert m > 1 and 0 < can_fail.size < vrt_rows_of(gt).size
        uninterrupted = report_of(spec).to_text()
        for window in (0, 1, m - 1, m, 40):
            sim = RefreshSimulation(spec)
            sim.run(stop_after_window=window)
            blob = sim.checkpoint()
            # three one-byte flags per VRT row that can fail: low, seen, unsafe
            assert len(blob) - HEADER_SIZE - state_offset(blob[HEADER_SIZE:]) == 3 * can_fail.size
            restored = RefreshSimulation.restore(blob)
            assert restored.checkpoint() == blob
            assert restored.run().to_text() == uninterrupted

    def test_report_requires_completion(self):
        sim = RefreshSimulation(noisy_spec(seed=51))
        sim.run(stop_after_window=3)
        with pytest.raises(RuntimeError, match="run"):
            sim.report()


def toggle_states(spec, rows, windows):
    """Each of rows' toggle state at window `windows`, stepped by the scalar rule from the fresh (high) state."""
    low = np.zeros(len(rows), dtype=bool)
    prefix = rng.hash_words_vec(spec.seed, rng.TAG_VRT_STEP, np.asarray(rows))
    for w in range(1, windows + 1):
        u = rng.uniform01_of(rng.extend_hash_vec(prefix, w))
        low = np.array([next_low(bool(lo), float(x), spec.vrt) for lo, x in zip(low, u)], dtype=bool)
    return low


def every_vrt_row_at_window_9():
    """A checkpoint payload at window 9 without its flags, the ground truth,
    and every VRT row's toggle state at window 8, in which every row is refreshed."""
    sim = RefreshSimulation(noisy_spec(seed=67, horizon=40))
    sim.run(stop_after_window=9)
    assert all(8 % m == 0 for m in sim.bins.multipliers)
    payload = sim.checkpoint()[HEADER_SIZE:]
    gt = ground_truth_of(sim)
    return payload[:state_offset(payload)], gt, toggle_states(sim.spec, vrt_rows_of(gt), 8)


def ground_truth_of_spec(spec):
    """The ground truth of the spec's device, generated as one full-length array."""
    return ground_truth(spec.device, spec.dist, spec.vrt, spec.dpd, spec.seed)


def ground_truth_of(sim):
    """The ground truth of the engine's device, generated standalone from its spec."""
    return ground_truth_of_spec(sim.spec)


def vrt_retentions_ms(gt):
    """Each VRT row's retention in its high and low state: its base at its worst pattern, times low_factor when low."""
    high_ms = gt.base.dense()[vrt_rows_of(gt)] * (gt.dpd.worst_pattern_factor if gt.dpd.enabled else 1.0)
    return high_ms, high_ms * gt.vrt.low_factor


def vrt_longest_gap_ms(sim, gt):
    """Each VRT row's longest refresh gap, m * trefw_ms, at the bin its filters give it."""
    rows = vrt_rows_of(gt).astype(np.uint64)
    bins = sim.bins
    mult = np.asarray(bins.multipliers)[bins.first_claims(bins.claims(rows), rows.size)]
    return mult * sim.device.trefw_ms


def vrt_rows_that_can_fail(sim, gt):
    """Positions among gt's VRT rows whose longest refresh gap exceeds their low retention."""
    return np.flatnonzero(vrt_longest_gap_ms(sim, gt) > vrt_retentions_ms(gt)[1])


def test_vrt_trajectory_matches_standalone_ground_truth():
    # the engine steps the same ground-truth chain an external caller sees,
    # in its own state: it keeps no ground truth at all
    sim = RefreshSimulation(noisy_spec(seed=53, horizon=12))
    gt = ground_truth_of(sim)
    can_fail = vrt_rows_that_can_fail(sim, gt)
    assert 0 < can_fail.size < vrt_rows_of(gt).size
    sim.run()
    assert not hasattr(sim, "gt")
    low = toggle_states(sim.spec, vrt_rows_of(gt), 11)
    assert low[can_fail].any()
    assert np.array_equal(low[can_fail], sim._v_low)


def count_vrt_steps(monkeypatch):
    """The list of the tiles of windows the engine steps, one entry each, as simulate's vrt_tiles yields them."""
    calls = []

    def counted(*a):
        for tile in vrt_tiles(*a):
            calls.append(1)
            yield tile

    monkeypatch.setattr(simulate_mod, "vrt_tiles", counted)
    return calls


def test_checkpoint_steps_no_row(monkeypatch):
    # a checkpoint reads the engine's state and changes none of it
    sim = RefreshSimulation(fpr_spec())
    rep = sim.run()
    assert rep.retention_failures > 0
    calls = count_vrt_steps(monkeypatch)
    state = [a.copy() for a in (sim._v_low, sim._v_seen, sim._v_unsafe)]
    blob = sim.checkpoint()
    assert not calls
    assert all(np.array_equal(a, b) for a, b in zip(state, (sim._v_low, sim._v_seen, sim._v_unsafe)))
    assert sim.checkpoint() == blob
    assert report_fields(sim.report()) == report_fields(rep)
    # the counter sees the engine step
    RefreshSimulation(fpr_spec()).run(stop_after_window=2)
    assert calls


def test_vrt_rows_that_cannot_fail_hold_no_state(monkeypatch):
    # an oracle profile bins every VRT row at or below its low retention,
    # so none can fail: nothing is stepped and the checkpoint stores no flags
    spec = dataclasses.replace(quiet_spec(), vrt=VrtModel(enabled=True, affected_fraction=0.3, low_factor=0.5,
                                                          p_high_to_low=0.2, p_low_to_high=0.3))
    calls = count_vrt_steps(monkeypatch)
    sim = RefreshSimulation(spec)
    gt = ground_truth_of(sim)
    assert vrt_rows_of(gt).size > 0 and vrt_rows_that_can_fail(sim, gt).size == 0
    rep = sim.run()
    blob = sim.checkpoint()
    assert not calls
    assert len(blob) == HEADER_SIZE + state_offset(blob[HEADER_SIZE:])
    assert RefreshSimulation.restore(blob).run().to_text() == rep.to_text() == report_of(spec).to_text()


def test_partition_steps_exactly_the_rows_that_can_fail():
    # every VRT row drops low at window 1 and stays there, so a row fails
    # iff its longest gap, m * 64 ms, exceeds its low retention.  Rows at
    # 896 ms sit in the 448 ms bin with a low retention of exactly 448 ms:
    # they tie, and never fail
    spec = ExperimentSpec(
        seed=5,
        device=DeviceConfig.from_rows(400),
        dist=RetentionDistribution(weak_fraction=0.5, floor_ms=448.0, weak_high_ms=896.0,
                                   strong_value_ms=896.0),
        vrt=VrtModel(enabled=True, affected_fraction=0.5, low_factor=0.5,
                     p_high_to_low=1.0, p_low_to_high=0.0),
        profiler=ProfilerConfig(mode="measured", rounds=1, profiling_window_span=1),
        bins=BinConfig(thresholds_ms=(192.0, 448.0)),
        sim=SimConfig(horizon_windows=16),
    )
    sim = RefreshSimulation(spec)
    gt = ground_truth_of(sim)
    assert np.count_nonzero(vrt_longest_gap_ms(sim, gt) == vrt_retentions_ms(gt)[1]) > 10
    can_fail = vrt_rows_that_can_fail(sim, gt)
    # the engine holds state for exactly the rows that can fail, and every
    # one of them fails
    assert can_fail.size > 10
    assert np.array_equal(sim._v_prefix, rng.hash_words_vec(spec.seed, rng.TAG_VRT_STEP, vrt_rows_of(gt)[can_fail]))
    rep = sim.run()
    assert sim._v_unsafe.all()
    assert rep.unsafe_rows == can_fail.size
    assert rep.unsafe_rows == run_reference(*parts_of(spec)).unsafe_rows


@pytest.mark.parametrize("first, second", [(0, 1), (0, 40), (1, 2), (3, 4), (9, 23), (23, 40)])
def test_checkpoint_after_restore_and_advance_matches_uninterrupted(first, second):
    sim = RefreshSimulation(fpr_spec())
    sim.run(stop_after_window=first)
    resumed = RefreshSimulation.restore(sim.checkpoint())
    resumed.run(stop_after_window=second)
    uninterrupted = RefreshSimulation(fpr_spec())
    uninterrupted.run(stop_after_window=second)
    assert resumed.checkpoint() == uninterrupted.checkpoint()


@pytest.mark.parametrize("block_rows", [1, 7, 64, simulate_mod._CHUNK_ROWS, 1 << 17])
def test_vrt_tiles_are_exact_at_their_boundaries(monkeypatch, block_rows):
    # the device is built in blocks of block_rows rows, each block with its
    # own campaign, and the toggle walked in tiles of a quarter as many
    # (window, row) pairs: 4 VRT rows can fail, so an engine tile is one
    # window at 1 and 7 block rows, four windows at 64 and the whole horizon
    # at the default and at twice the default, where the tiles hold
    # TILE_PAIRS or more.  The run stops inside
    # a tile, where the default tiling has no boundary, and resumes from its
    # checkpoint
    tile_pairs = max(1, block_rows // 4)
    spec = noisy_spec(horizon=133, seed=5)
    whole = RefreshSimulation(spec)
    rep = whole.run()
    assert whole._v_key.size == 4 and whole._v_failures > 0
    tile = max(1, tile_pairs // whole._v_key.size)
    stop = min(tile + max(1, tile // 2), spec.sim.horizon_windows - 1)
    default_at_stop = RefreshSimulation(spec)
    default_at_stop.run(stop_after_window=stop)

    monkeypatch.setattr(retention_mod, "TILE_PAIRS", tile_pairs)
    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", block_rows)
    sim = RefreshSimulation(spec)
    assert sim.run(stop_after_window=stop) is None
    blob = sim.checkpoint()
    assert blob == default_at_stop.checkpoint()
    restored = RefreshSimulation.restore(blob)
    assert report_fields(restored.run()) == report_fields(rep)
    assert restored.checkpoint() == whole.checkpoint()
    assert counters(rep) == counters(run_reference(*parts_of(spec)))


def fpr_spec():
    # measured profiling with VRT and DPD misses gives failures; a loose
    # Bloom budget gives false positives in both filters
    return dataclasses.replace(noisy_spec(num_rows=3000, horizon=40, seed=61), bloom_target_fpr=0.2)


def report_fields(rep):
    fields = dataclasses.asdict(rep)
    del fields["wall_time_s"]  # host time, excluded from the artifact as well
    return fields


def profile_of_spec(spec, gt):
    """The full-array profile of gt under the spec's profiler and seed."""
    return profile(gt, spec.profiler)


def profile_of(sim):
    """The profile the engine built its bins from, rebuilt from the spec."""
    return profile_of_spec(sim.spec, ground_truth_of(sim))


def independent_filter_fprs(sim):
    idx = sim.spec.bins.classify(profile_of(sim))
    rows = np.arange(sim.device.num_rows, dtype=np.uint64)
    return [
        filt.claimed(rows[idx != b]).size / np.count_nonzero(idx != b) if np.any(idx != b) else 0.0
        for b, filt in enumerate(sim.bins.filters)
    ]


def test_row_blocking_changes_nothing(monkeypatch):
    default = RefreshSimulation(fpr_spec())
    rep = default.run()
    assert rep.retention_failures > 0 and rep.fpr_extra_refreshes > 0
    assert all(0.0 < f < 1.0 for f in default.filter_fprs)
    assert default.filter_fprs == independent_filter_fprs(default)

    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", 7)
    blocked = RefreshSimulation(fpr_spec())
    assert report_fields(blocked.run()) == report_fields(rep)
    assert blocked.filter_fprs == default.filter_fprs


class PassTwoFault(Exception):
    """Raised by a patched bin query in the process it is patched to fail in."""


def claims_fault(monkeypatch, from_row: int, caller=None, worker=None):
    """Make BinSet.claims of the blocks from from_row up raise PassTwoFault, or hang, in pass 2's caller or worker.

    caller and worker are each None, "raise" or "hang"; the worker is any
    process other than the one that patched the query.
    """
    claims = BinSet.claims
    caller_pid = os.getpid()

    def faulty(self, rows):
        fault = caller if os.getpid() == caller_pid else worker
        if fault and rows.size and rows[0] >= from_row:
            if fault == "hang":
                time.sleep(20)
            raise PassTwoFault(int(rows[0]))
        return claims(self, rows)

    monkeypatch.setattr(BinSet, "claims", faulty)


def counted_forks(monkeypatch) -> list[int]:
    """The pids of the children os.fork starts from here on, as it starts them."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def one_block_build():
    """The report fields and filter FPRs of fpr_spec's build, whose one block pass 2 claims in process."""
    sim = RefreshSimulation(fpr_spec())
    return report_fields(sim.run()), sim.filter_fprs


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
@pytest.mark.parametrize("block_rows", [7, 64])
def test_pass_2_halves_equal_the_one_block_build(monkeypatch, block_rows, fork):
    # the caller claims the lower half of pass 2's blocks and a forked
    # worker the upper half, or, without os.fork, the caller claims both: a
    # half claimed twice or lost, or a state row given another row's bin,
    # changes the report or the FPRs
    want = one_block_build()
    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", block_rows)
    if fork:
        pids = counted_forks(monkeypatch)
    else:
        monkeypatch.delattr(os, "fork")
    sim = RefreshSimulation(fpr_spec())
    assert (report_fields(sim.run()), sim.filter_fprs) == want
    assert not fork or len(pids) == 1
    assert_no_child_left()


@pytest.mark.parametrize("from_block", [23, 40])
def test_a_fault_in_the_worker_alone_gives_an_equal_build(monkeypatch, from_block):
    # 47 blocks of 64 rows: the worker claims blocks 23 to 46 and fails on
    # its first block or after writing 17 blocks' counts; the caller claims
    # its half again, from scratch
    want = one_block_build()
    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", 64)
    pids = counted_forks(monkeypatch)
    claims_fault(monkeypatch, from_block * 64, worker="raise")
    sim = RefreshSimulation(fpr_spec())
    assert (report_fields(sim.run()), sim.filter_fprs) == want
    assert len(pids) == 1
    assert_no_child_left()


@pytest.mark.parametrize("from_block, worker", [(5, "raise"), (30, "raise"), (5, "hang")])
def test_a_fault_in_both_processes_raises_from_the_build(monkeypatch, from_block, worker):
    # a fault in the caller's half raises there, and the worker, even one
    # that would run for 20 s more, is killed and reaped; a fault in the
    # worker's half raises when the caller claims that half again
    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", 64)
    pids = counted_forks(monkeypatch)
    claims_fault(monkeypatch, from_block * 64, caller="raise", worker=worker)
    t0 = time.monotonic()
    with pytest.raises(PassTwoFault) as err:
        RefreshSimulation(fpr_spec())
    assert time.monotonic() - t0 < 10
    assert err.value.args == (from_block * 64,)
    assert len(pids) == 1
    assert_no_child_left()


def test_a_one_block_build_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("a one-block build forked")

    monkeypatch.setattr(os, "fork", no_fork)
    rep = RefreshSimulation(fpr_spec()).run()
    assert rep.num_rows <= simulate_mod._CHUNK_ROWS


def test_pass_2_forks_from_three_threads_under_contention(monkeypatch):
    # three builds at once, each forking its worker from its own thread,
    # switching every 10 us, over 7-row blocks.  Each must equal the
    # one-block build, and none may hang
    want = one_block_build()
    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", 7)
    got = [None] * 3

    def build(i):
        sim = RefreshSimulation(fpr_spec())
        got[i] = report_fields(sim.run()), sim.filter_fprs

    workers = [threading.Thread(target=build, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert got == [want] * len(got)
    assert_no_child_left()


def blocking_spec(kind, mode):
    """A 200-row VRT+DPD config of either distribution kind and profiler mode."""
    spec = noisy_spec(num_rows=200, horizon=40, seed=29)
    dist = RetentionDistribution(kind=kind, weak_fraction=0.3, floor_ms=112.0, weak_high_ms=400.0,
                                 lognormal_median_ms=200.0)
    return dataclasses.replace(spec, dist=dist, profiler=dataclasses.replace(spec.profiler, mode=mode),
                               bloom_target_fpr=0.2)


@pytest.mark.parametrize("kind", [DIST_TWO_POPULATION, DIST_LOGNORMAL_TAIL])
@pytest.mark.parametrize("mode", ["oracle", "measured"])
def test_row_blocks_equal_the_full_arrays(monkeypatch, kind, mode):
    # generation and profiling of 7-row blocks concatenate to the full-array
    # ground truth and profile, and the engine built from them is unchanged
    spec = blocking_spec(kind, mode)
    gt = ground_truth_of_spec(spec)
    measured = profile_of_spec(spec, gt)
    default = RefreshSimulation(spec)
    rep = default.run()

    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", 7)
    blocks = [(b, profile_rows(b, spec.profiler)) for b in simulate_mod.truth_blocks(spec)]
    assert [b.start for b, _ in blocks] == list(range(0, 200, 7))
    assert sum(b.toggles.any() for b, _ in blocks) > 10
    assert np.array_equal(gt.base.at[gt.toggles], vrt_rows_of(gt))
    for name, of in (("base", lambda g: g.base.dense()), ("vrt_rows", lambda g: g.base.at[g.toggles] + g.start),
                     ("vrt_retention_high", lambda g: g.vrt_retention_high),
                     ("min_possible", lambda g: g.min_possible().dense())):
        assert np.array_equal(np.concatenate([of(b) for b, _ in blocks]), of(gt)), name
    assert np.array_equal(np.concatenate([m.dense() for _, m in blocks]), measured)
    # only the oracle sees every row's true minimum
    assert np.array_equal(measured, gt.min_possible().dense()) == (mode == "oracle")

    blocked = RefreshSimulation(spec)
    assert report_fields(blocked.run()) == report_fields(rep)
    assert blocked.filter_fprs == default.filter_fprs
    blocked_words = [f.words.tobytes() for f in blocked.bins.filters]
    assert blocked_words == [f.words.tobytes() for f in default.bins.filters]


def test_unbinnable_rows_reported_across_blocks(monkeypatch):
    # DPD takes weak rows below the 64 ms base: the first such row lies in a
    # later block, one block holds two, and the count spans five blocks
    spec = dataclasses.replace(quiet_spec(num_rows=200, seed=6),
                               dist=RetentionDistribution(weak_fraction=0.2, floor_ms=64.0),
                               dpd=DpdModel(enabled=True, worst_pattern_factor=0.8))
    prof = profile_of_spec(spec, ground_truth_of_spec(spec))
    bad = np.flatnonzero(prof < 64.0)
    assert bad[0] >= 7 and np.unique(bad // 7).size == 5 < bad.size
    with pytest.raises(UnbinnableRowError) as full:
        build_bins(prof, spec.bins, spec.device.trefw_ms)

    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", 7)
    with pytest.raises(UnbinnableRowError) as blocked:
        RefreshSimulation(spec)
    for err in (full.value, blocked.value):
        assert (err.row, err.count) == (bad[0], bad.size)
        assert err.measured_ms == prof[bad[0]]
    assert str(blocked.value) == str(full.value)


def test_filter_fprs_all_default():
    sim = RefreshSimulation(dataclasses.replace(quiet_spec(num_rows=500, horizon=16),
                                                dist=RetentionDistribution(weak_fraction=0.0)))
    assert sim.bins.counts == (0, 0, 500)
    assert sim.filter_fprs == [0.0, 0.0]  # empty filters never hit


def engine_build_peak(num_rows, spec_of):
    """tracemalloc peak of building the engine for num_rows rows, and the bytes of its filters."""
    spec = spec_of(num_rows)
    tracemalloc.start()
    try:
        sim = RefreshSimulation(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(f.words.nbytes for f in sim.bins.filters)


def guard_sweep_law_spec(num_rows):
    """The guard-sweep benchmark's lognormal law and profiling at guard 2.0: about a fifth of the rows binned."""
    return ExperimentSpec(
        seed=3,
        device=DeviceConfig.from_rows(num_rows),
        dist=RetentionDistribution(kind=DIST_LOGNORMAL_TAIL, weak_fraction=0.3, floor_ms=320.0,
                                   weak_high_ms=960.0, lognormal_median_ms=440.0, lognormal_sigma=0.4),
        vrt=VrtModel(enabled=True, affected_fraction=0.02, low_factor=0.5,
                     p_high_to_low=0.05, p_low_to_high=0.2),
        dpd=DpdModel(enabled=True, worst_pattern_factor=0.8),
        profiler=ProfilerConfig(mode="measured", patterns_tested=4, rounds=8,
                                guard_band_factor=2.0, profiling_window_span=16),
        sim=SimConfig(horizon_windows=64),
    )


def test_engine_pass_memory_is_bounded(monkeypatch):
    # the whole build works in blocks: beyond one block it keeps only the
    # rows that need state (the weak rows that can fail statically, the
    # filter bins' members and the VRT rows), and a plain row keeps none.
    # So where a thousandth of the rows is weak and no plain row is binned,
    # a row added to the device adds at most a tenth of a byte to the peak.
    # With 1% weak and 1% VRT rows under measured VRT+DPD profiling, at
    # most 1 B.  Where a fifth of the rows is binned, a row adds its share
    # of the filters and 0.29-0.32 B besides (a bit per row of each dense
    # bin's member bitmap, and the VRT rows' state); the bound allows 0.5 B,
    # below the 0.44 B that 2-byte offsets of the binned rows alone would take
    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", 1 << 12)
    for spec_of, per_row_bound, beyond_filters in (
        (lambda n: quiet_spec(num_rows=n, horizon=64, seed=3), 0.1, False),
        (lambda n: dataclasses.replace(noisy_spec(num_rows=n, horizon=64, seed=3),
                                       dist=RetentionDistribution(weak_fraction=0.01, floor_ms=160.0),
                                       vrt=VrtModel(enabled=True, affected_fraction=0.01)), 1, False),
        (guard_sweep_law_spec, 0.5, True),
    ):
        RefreshSimulation(spec_of(1 << 12))  # one-time caches and imports
        (small, small_filters), (large, large_filters) = (engine_build_peak(1 << 18, spec_of),
                                                          engine_build_peak(1 << 19, spec_of))
        added = large - small - (large_filters - small_filters if beyond_filters else 0)
        assert added / (1 << 18) <= per_row_bound
        assert large / (1 << 19) <= 4


def test_engine_pass_memory_is_bounded_in_one_process(monkeypatch):
    # without os.fork, both halves of pass 2 run, and are traced, in process
    monkeypatch.delattr(os, "fork")
    test_engine_pass_memory_is_bounded(monkeypatch)


def guard_group_build_peak(num_rows, guards):
    """tracemalloc peak of building, one at a time, the engines of a walk shared by guard_sweep_law_spec at guards.

    Returns the peak and the bytes of the largest point's filters.  The walk
    must hold no point's bins once the caller drops its simulation.
    """
    law = guard_sweep_law_spec(num_rows)
    specs = [dataclasses.replace(law, profiler=dataclasses.replace(law.profiler, guard_band_factor=g))
             for g in guards]
    filter_bytes, last_bins = [], None
    tracemalloc.start()
    try:
        for sim in simulate_mod.simulations(specs):
            assert last_bins is None or last_bins() is None
            filter_bytes.append(sum(f.words.nbytes for f in sim.bins.filters))
            last_bins = weakref.ref(sim.bins)
            del sim  # as the sweep drops each point before the next is built
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, max(filter_bytes)


def test_guard_group_pass_memory_is_bounded(monkeypatch):
    # the walk keeps each point's pass-1 state (state rows and filter bin
    # members) until its turn comes, so a row added to the device adds at
    # most three times the single build's 0.5 B per row
    # (test_engine_pass_memory_is_bounded) to a 3-point group's peak.  Only
    # one point's filters are live at a time, so only the largest point's
    # filters are excluded from it
    monkeypatch.setattr(simulate_mod, "_CHUNK_ROWS", 1 << 12)
    guards = (1.0, 1.5, 2.0)
    guard_group_build_peak(1 << 12, guards)  # one-time caches and imports
    (small, small_filters), (large, large_filters) = (guard_group_build_peak(1 << 18, guards),
                                                      guard_group_build_peak(1 << 19, guards))
    added = large - small - (large_filters - small_filters)
    assert added / (1 << 18) <= 3 * 0.5


def test_one_walk_refuses_specs_of_two_ground_truths():
    spec = quiet_spec(num_rows=200)
    other = dataclasses.replace(spec, device=dataclasses.replace(spec.device, trefw_ms=32.0))
    with pytest.raises(ValueError, match="share one ground truth"):
        next(simulate_mod.simulations([spec, other]))


def guard_specs(*guards, seed=0):
    spec = quiet_spec(num_rows=200, seed=seed)
    return [dataclasses.replace(spec, profiler=ProfilerConfig(guard_band_factor=g)) for g in guards]


@pytest.mark.parametrize("ways, sizes", [(1, [4]), (2, [2, 2]), (3, [2, 2]), (4, [1, 1, 1, 1]), (8, [1, 1, 1, 1])])
def test_shared_walks_cut_a_run_into_at_most_ways_pieces(ways, sizes):
    specs = guard_specs(1.0, 1.25, 1.5, 2.0)
    pieces = simulate_mod.shared_walks(specs, ways)
    assert [len(piece) for piece in pieces] == sizes
    assert len(pieces) <= ways
    assert [spec for piece in pieces for spec in piece] == specs


@pytest.mark.parametrize("ways", [1, 2, 3, 8])
def test_shared_walks_give_a_seed_sweep_one_point_per_piece(ways):
    specs = [quiet_spec(num_rows=200, seed=s) for s in (3, 11, 12)]
    assert simulate_mod.shared_walks(specs, ways) == [[spec] for spec in specs]


def test_shared_walks_join_only_consecutive_points():
    # runs A, A, B, A: the two A runs share a ground truth but not a walk
    a1, a2, a3 = guard_specs(1.0, 1.25, 1.5)
    (b,) = guard_specs(1.0, seed=1)
    assert simulate_mod.shared_walks([a1, a2, b, a3], 1) == [[a1, a2], [b], [a3]]


def test_wall_time_covers_engine_set_up(monkeypatch):
    def slow_block(*args):
        time.sleep(0.05)
        return generate_rows(*args)

    monkeypatch.setattr(simulate_mod, "generate_rows", slow_block)
    rep = report_of(quiet_spec(num_rows=200, horizon=8))
    assert rep.wall_time_s >= 0.05


def test_checkpoint_hash_is_hashlibs_sha256():
    # restore hashes a memoryview slice of the blob, checkpoint a bytes object
    blob = RefreshSimulation(noisy_spec()).checkpoint()
    for data in (blob, memoryview(blob)[simulate_mod._CHECKPOINT_HEADER.size:], memoryview(blob)[5:17], b""):
        assert simulate_mod.sha256(data).digest() == hashlib.sha256(data).digest()


def test_no_deserializer_imports_in_package():
    # checkpoints and snapshots are plain data; nothing in the package may unpickle
    banned = {"pickle", "marshal", "shelve"}
    src = Path(simulate_mod.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] in banned]
    assert len(list(src.glob("*.py"))) > 5
    assert found == []


def test_run_rejects_other_budget_forms():
    # run takes the two forms of spec.bloom_budget, which
    # test_cli.test_library_report_equals_cli_artifact checks byte for byte
    parts = parts_of(quiet_spec())[:-1]
    with pytest.raises(ValueError, match="seed 0"):
        run(*parts, BloomParams(m=300, k=3, seed=1))
    with pytest.raises(ValueError, match="budget"):
        run(*parts, [BloomParams(m=300, k=3)] * 2)


# Base periods, device.trefw_ms, for the engine-versus-oracle generators.
# The dyadic ones make every j * trefw_ms exact; at the others the
# quotient (k * trefw_ms) / trefw_ms can round below k, at k = 3 and 6 for
# 0.7 ms and at k = 7 for 64/3 ms, so a retention drawn at k * trefw_ms
# ties with an elapsed time where a floored quotient misplaces it.
BASE_PERIODS_MS = (64.0, 48.0, 37.5, 0.1, 0.7, 7.8, 64 / 3)


@given(st.sampled_from(BASE_PERIODS_MS), st.integers(1, 10_000),
       st.sampled_from([0.0, math.inf, 0.0, -math.inf]) | st.floats(0.1, 10.0))
def test_first_failing_window_is_the_first_elapsed_time_past_the_retention(trefw_ms, k, toward):
    # a retention at k * trefw_ms, one ulp either side of it, or off it by a
    # factor: j * trefw_ms is computed as the oracle and _advance compute it
    retention_ms = k * trefw_ms
    if math.isinf(toward):
        retention_ms = math.nextafter(retention_ms, toward)
    elif toward:
        retention_ms *= toward
    j = int(simulate_mod._first_failing_window(retention_ms, trefw_ms))
    assert j >= 1 and j * trefw_ms > retention_ms
    assert j == 1 or (j - 1) * trefw_ms <= retention_ms
    both = simulate_mod._first_failing_window(np.array([retention_ms, retention_ms]), trefw_ms)
    assert both.tolist() == [j, j]


@st.composite
def small_vrt_runs(draw):
    """The spec of a small VRT run, a window to checkpoint at and a block size.

    The base period, device.trefw_ms, is one of BASE_PERIODS_MS.  Zero to
    four bins above it, at multipliers drawn from 2, 3, 5, 7 and 9, and
    horizons mostly off a multiple of the largest one.  The Bloom budget
    is an FPR target or an explicit tiny geometry (m up to 255 bits), whose
    false positives demote rows to shorter intervals.  The retention floor
    is a multiple of the base high enough that every row's lowest
    retention, after the guard band, stays at or above the base, so no
    draw is unbinnable, and often a bin's own threshold; a weak band one
    ulp wide puts weak rows exactly on it, so elapsed times tie with
    retentions.  Each toggle probability is 0, 1, a mid-range value such
    as 0.25, or any float in [0, 1]; the mid-range values make the two
    directions of the toggle differ in most draws.
    """
    base_ms = draw(st.sampled_from(BASE_PERIODS_MS))
    low_factor = draw(st.sampled_from([1.0, 0.8, 0.5, 0.45, 0.3]))
    dpd = DpdModel(enabled=draw(st.booleans()), num_patterns=4, worst_pattern_factor=0.75)
    mode = draw(st.sampled_from(["oracle", "measured"]))
    guard = draw(st.sampled_from([1.0, 1.25]))
    dpd_factor = dpd.worst_pattern_factor if dpd.enabled else 1.0
    mults = sorted(draw(st.permutations([2, 3, 5, 7, 9]))[:draw(st.integers(0, 4))])
    lowest = math.ceil(guard / (low_factor * dpd_factor))
    on_a_threshold = [m for m in mults if lowest <= m <= 8]
    periods = st.integers(lowest, 8)
    floor = base_ms * draw(periods | st.sampled_from(on_a_threshold) if on_a_threshold else periods)
    width = base_ms * draw(st.sampled_from([0, 1, 4, 10]))
    dist = RetentionDistribution(
        weak_fraction=0.7, floor_ms=floor,
        weak_high_ms=floor + width if width else math.nextafter(floor, math.inf),
        strong_value_ms=base_ms * 40,
    )
    probability = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | st.sampled_from([0.1, 0.25, 0.5])
    vrt = VrtModel(enabled=True, affected_fraction=draw(st.sampled_from([0.3, 1.0])),
                   low_factor=low_factor, p_high_to_low=draw(probability),
                   p_low_to_high=draw(probability))
    profiler = ProfilerConfig(mode=mode, patterns_tested=draw(st.integers(1, 4)),
                              rounds=draw(st.integers(1, 3)), guard_band_factor=guard,
                              profiling_window_span=draw(st.integers(1, 6)))
    bins = BinConfig(thresholds_ms=tuple(base_ms * m for m in mults))
    device = DeviceConfig.from_rows(draw(st.integers(8, 48)), trefw_ms=base_ms)
    max_mult = bins.multipliers(device.trefw_ms)[-1]
    span = max(max_mult, 7)
    horizon = draw(st.integers(max_mult, 5 * span - 1))
    seed = draw(st.integers(0, 2**64 - 1))
    target_fpr = st.sampled_from([1e-3, 0.3]).map(lambda fpr: {"bloom_target_fpr": fpr})
    tiny_bloom = st.builds(dict, bloom_explicit_m=st.integers(3, 255),
                           bloom_explicit_k=st.integers(1, 4))
    spec = ExperimentSpec(seed=seed, device=device, dist=dist, vrt=vrt, dpd=dpd, profiler=profiler,
                          bins=bins, sim=SimConfig(horizon_windows=horizon),
                          **draw(target_fpr | tiny_bloom))
    return spec, draw(st.integers(0, horizon)), draw(st.integers(1, 50))


@given(small_vrt_runs())
# a toggle that drops low at a quarter of its steps and never rises: every
# row is binned by a campaign that sees only window 0, and some fail
@example((ExperimentSpec(
    seed=0, device=DeviceConfig.from_rows(8),
    dist=RetentionDistribution(weak_fraction=0.7, floor_ms=128.0, weak_high_ms=math.nextafter(128.0, math.inf)),
    vrt=VrtModel(enabled=True, affected_fraction=1.0, low_factor=0.8, p_high_to_low=0.25, p_low_to_high=0.0),
    profiler=ProfilerConfig(mode="measured", patterns_tested=1, rounds=1, profiling_window_span=1),
    bins=BinConfig(thresholds_ms=(128.0,)), sim=SimConfig(horizon_windows=6),
), 0, 1))
@settings(max_examples=100, deadline=None)
def test_vrt_engine_matches_oracle_across_checkpoint(drawn):
    # the engine works in blocks of 1 to 50 rows, from one row per block to
    # the whole device in one, and in tiles of as many (window, row) pairs
    spec, stop, block_rows = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_mod, "_CHUNK_ROWS", block_rows)
        mp.setattr(retention_mod, "TILE_PAIRS", block_rows)
        sim = RefreshSimulation(spec)
        sim.run(stop_after_window=stop)
        restored = RefreshSimulation.restore(sim.checkpoint())
    want = run_reference(*parts_of(spec))
    assert counters(restored.run()) == counters(want)
    sim.run()
    assert restored.checkpoint() == sim.checkpoint()
    # safety as check_report_invariants argues it: a row fails only if it is
    # profiled into a longer interval than its true minimum's bin, or if
    # that true minimum is under the base period
    gt = ground_truth_of_spec(spec)
    true_min = gt.min_possible().dense()
    intervals = np.asarray(spec.bins.intervals_ms(spec.device.trefw_ms))
    longer = intervals[spec.bins.classify(profile_of_spec(spec, gt))] > intervals[spec.bins.classify(true_min)]
    assert want.unsafe_set <= set(np.flatnonzero(longer | (true_min < spec.device.trefw_ms)).tolist())


@st.composite
def guard_pairs(draw):
    """A small measured VRT+DPD spec, and two guards A < B to run it at under its one seed.

    Up to 300 rows and 64 windows at a 64 ms base.  The bins are nested,
    at multipliers 2 and 4, or not, at 3 and 5.  The retention floor keeps
    every row binnable at the larger guard, and a loose Bloom target
    gives false positives that shorten some rows' intervals.
    """
    guard_a, guard_b = sorted(draw(st.lists(st.sampled_from([1.0, 1.25, 1.5, 2.0]), min_size=2, max_size=2,
                                            unique=True)))
    low_factor = draw(st.sampled_from([0.8, 0.5]))
    dpd = DpdModel(enabled=True, num_patterns=4, worst_pattern_factor=0.75)
    floor = 64.0 * draw(st.integers(math.ceil(guard_b / (low_factor * dpd.worst_pattern_factor)), 8))
    dist = RetentionDistribution(weak_fraction=draw(st.sampled_from([0.3, 0.7])), floor_ms=floor,
                                 weak_high_ms=floor + draw(st.sampled_from([64.0, 256.0])), strong_value_ms=2560.0)
    vrt = VrtModel(enabled=True, affected_fraction=draw(st.sampled_from([0.1, 0.3])), low_factor=low_factor,
                   p_high_to_low=draw(st.sampled_from([0.05, 0.2])), p_low_to_high=draw(st.sampled_from([0.2, 0.5])))
    profiler = ProfilerConfig(mode="measured", patterns_tested=draw(st.integers(1, 4)),
                              rounds=draw(st.integers(1, 2)), profiling_window_span=draw(st.integers(1, 4)))
    spec = ExperimentSpec(
        seed=draw(st.integers(0, 2**64 - 1)), device=DeviceConfig.from_rows(draw(st.integers(40, 300))),
        dist=dist, vrt=vrt, dpd=dpd, profiler=profiler,
        bins=BinConfig(thresholds_ms=draw(st.sampled_from([(128.0, 256.0), (192.0, 320.0)]))),
        sim=SimConfig(horizon_windows=draw(st.integers(16, 64))),
        bloom_target_fpr=draw(st.sampled_from([1e-3, 0.3])),
    )
    return spec, guard_a, guard_b


@given(guard_pairs())
@settings(max_examples=100, deadline=None)
def test_a_larger_guard_fails_no_new_row_whose_multiplier_divides(drawn):
    # the toggles are keyed by (seed, row, window), so a row whose queried
    # multiplier at B divides the one at A is refreshed at B wherever it is
    # at A, and fails at B only in windows where it fails at A; the failure
    # count alone need not fall, since a false positive at A can shorten a
    # row that B leaves in its own bin
    spec, guard_a, guard_b = drawn

    def at(guard):
        return run_reference(*parts_of(dataclasses.replace(
            spec, profiler=dataclasses.replace(spec.profiler, guard_band_factor=guard))))

    a, b = at(guard_a), at(guard_b)
    not_divided = {r for r, (mult_a, mult_b) in enumerate(zip(a.row_mult, b.row_mult)) if mult_a % mult_b}
    assert b.unsafe_set <= a.unsafe_set | not_divided


def engine_against_oracle(spec, block_rows):
    """Build and run the engine in blocks of block_rows rows: its counters, or its error, must be the oracle's.

    Its VRT tiles hold block_rows (window, row) pairs each.  An
    UnbinnableRowError must name the first row of the exact profile under
    the base period, that row's value and the count of such rows.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_mod, "_CHUNK_ROWS", block_rows)
        mp.setattr(retention_mod, "TILE_PAIRS", block_rows)
        try:
            want = counters(run_reference(*parts_of(spec)))
        except UnbinnableRowError:
            prof = profile_of_spec(spec, ground_truth_of_spec(spec))
            bad = np.flatnonzero(prof < spec.device.trefw_ms)
            with pytest.raises(UnbinnableRowError) as err:
                RefreshSimulation(spec)
            assert (err.value.row, err.value.measured_ms, err.value.count) == (bad[0], prof[bad[0]], bad.size)
            return err.value
        sim = RefreshSimulation(spec)
        rep = sim.run()
    assert counters(rep) == want
    return sim


def plain_spec(num_rows=40, strong=300.0, factor=0.25, mode="measured", weak_fraction=0.0, weak_ms=(80.0, 88.0),
               vrt=VrtModel(), seed=11):
    """A run whose plain rows have base strong and DPD factor factor, tested at one pattern of four.

    Its weak rows lie in weak_ms, by default [80, 88) ms, which stays at or
    above the 64 ms base period at a factor of 0.8 or more.
    """
    return ExperimentSpec(
        seed=seed, device=DeviceConfig.from_rows(num_rows),
        dist=RetentionDistribution(weak_fraction=weak_fraction, floor_ms=weak_ms[0], weak_high_ms=weak_ms[1],
                                   strong_value_ms=strong),
        vrt=vrt, dpd=DpdModel(enabled=True, num_patterns=4, worst_pattern_factor=factor),
        profiler=ProfilerConfig(mode=mode, patterns_tested=1, rounds=2, profiling_window_span=4),
        sim=SimConfig(horizon_windows=23),
    )


def test_plain_rows_that_can_fail_match_oracle():
    # no weak and no VRT row: every failure is a plain row's.  Their true
    # retention, 300 * 0.25 = 75 ms, fails two windows past a refresh;
    # those the campaign tested bin at 75 ms, the rest at 300 ms in the
    # default bin, and fail there
    sim = engine_against_oracle(plain_spec(), 7)
    rep = sim.report()
    assert rep.retention_failures > 0 and 0 < rep.unsafe_rows < 40
    assert sim.bins.counts[0] == 40 - sim.bins.counts[2] > 0


def test_plain_rows_that_can_fail_beside_weak_and_vrt_rows_match_oracle():
    # plain rows at 600 * 0.4 = 240 ms fail four windows past a refresh,
    # so those binned at 600 ms in the 256 ms default bin fail; so do weak
    # rows at 400 to 500 ms and VRT rows binned there.  Each row's failures
    # count once, as a plain row's or as its own
    vrt = VrtModel(enabled=True, affected_fraction=0.3, low_factor=0.8, p_high_to_low=0.25)
    spec = plain_spec(strong=600.0, factor=0.4, weak_fraction=0.3, weak_ms=(400.0, 500.0), vrt=vrt)
    for block_rows in (7, 40):
        assert engine_against_oracle(spec, block_rows).report().retention_failures > 0


def test_plain_rows_in_a_filter_bin_match_oracle():
    # 200 * 0.8 = 160 ms and 200 ms both fall in the 128 ms bin: coverage
    # changes no plain row's bin, and the bin's filter holds every plain row
    for mode in ("oracle", "measured"):
        sim = engine_against_oracle(plain_spec(strong=200.0, factor=0.8, mode=mode, weak_fraction=0.3), 7)
        assert sim.bins.counts[1] >= 40 - np.count_nonzero(ground_truth_of(sim).base.dense() < 200.0)
        assert sim.bins.counts[2] == 0


@pytest.mark.parametrize("mode", ["oracle", "measured"])
def test_plain_rows_below_the_base_period_are_reported_as_the_oracle_reports(mode):
    # 100 * 0.5 = 50 ms is under the 64 ms base, and so is every weak row
    # at 40 to 44 ms: under the oracle every row is unbinnable, in measured
    # mode every covered row.  The first of them is a plain row
    err = engine_against_oracle(plain_spec(strong=100.0, factor=0.5, mode=mode, weak_fraction=0.1), 7)
    assert isinstance(err, UnbinnableRowError)
    assert err.measured_ms == 50.0
    assert (err.count == 40) == (mode == "oracle")


@pytest.mark.parametrize("weak_fraction, vrt", [
    (0.0, VrtModel()),  # no weak rows
    (1.0, VrtModel()),  # no plain rows: all weak
    (0.3, VrtModel(enabled=True, affected_fraction=1.0, low_factor=0.8, p_high_to_low=0.25)),  # all VRT
])
def test_devices_without_weak_or_plain_rows_match_oracle(weak_fraction, vrt):
    spec = plain_spec(strong=200.0, factor=0.8, weak_fraction=weak_fraction, vrt=vrt)
    gt = ground_truth_of_spec(spec)
    plain = np.ones(gt.num_rows, dtype=bool)
    plain[gt.base.at] = False
    plain[vrt_rows_of(gt)] = False
    assert np.count_nonzero(plain) == (40 if weak_fraction == 0.0 else 0)
    engine_against_oracle(spec, 7)


@st.composite
def plain_row_runs(draw):
    """The spec of a small run whose plain rows (neither weak nor VRT) land anywhere, and a block size.

    The base period, device.trefw_ms, is one of BASE_PERIODS_MS.  The
    plain rows' true retention, strong_value_ms at the worst pattern, is
    drawn in base periods from under the base period to past the last
    threshold, often exactly a bin's interval, and the guard band and the
    tested patterns move their profiled values: plain rows that can fail,
    plain rows in a filter bin, covered and missed plain rows in different
    bins, and plain rows too short to bin.  The weak fraction is 0, 0.3 or
    1, and the VRT rows none, some or all, so some devices have no weak
    rows and some no plain rows; most draws have both, and most profile in
    measured mode.
    """
    base_ms = draw(st.sampled_from(BASE_PERIODS_MS))
    mults = sorted(draw(st.permutations([2, 3, 4, 6]))[:draw(st.integers(0, 3))])
    bins = BinConfig(thresholds_ms=tuple(base_ms * m for m in mults))
    max_mult = bins.multipliers(base_ms)[-1]
    dpd = DpdModel(enabled=draw(st.booleans()), num_patterns=4,
                   worst_pattern_factor=draw(st.sampled_from([0.25, 0.5, 0.8, 1.0])))
    floor = base_ms * draw(st.sampled_from([1.0, 1.5, 2.0, 5.0]))
    weak_high = floor + base_ms * draw(st.sampled_from([0.125, 1.5, 5.0]))
    plain_periods = draw(st.floats(0.5, max_mult + 1.5) | st.sampled_from(bins.multipliers(base_ms)))
    dpd_factor = dpd.worst_pattern_factor if dpd.enabled else 1.0
    dist = RetentionDistribution(
        kind=draw(st.sampled_from([DIST_TWO_POPULATION, DIST_LOGNORMAL_TAIL])),
        weak_fraction=draw(st.sampled_from([0.0, 0.3, 0.3, 1.0])), floor_ms=floor, weak_high_ms=weak_high,
        strong_value_ms=max(weak_high, base_ms * plain_periods / dpd_factor),
        lognormal_median_ms=floor + base_ms / 16,
    )
    vrt = VrtModel(enabled=draw(st.booleans()), affected_fraction=draw(st.sampled_from([0.3, 0.3, 1.0])),
                   low_factor=draw(st.sampled_from([0.5, 0.8])), p_high_to_low=0.25, p_low_to_high=0.5)
    profiler = ProfilerConfig(mode=draw(st.sampled_from(["oracle", "measured", "measured"])),
                              patterns_tested=draw(st.integers(1, 4)), rounds=2,
                              guard_band_factor=draw(st.sampled_from([1.0, 1.25, 2.0])),
                              profiling_window_span=4)
    spec = ExperimentSpec(
        seed=draw(st.integers(0, 2**64 - 1)),
        device=DeviceConfig.from_rows(draw(st.integers(1, 40)), trefw_ms=base_ms), dist=dist, vrt=vrt, dpd=dpd, profiler=profiler, bins=bins,
        sim=SimConfig(horizon_windows=draw(st.integers(max_mult, 3 * max_mult + 5))),
        bloom_target_fpr=draw(st.sampled_from([1e-3, 0.3])),
    )
    return spec, draw(st.integers(1, 16))


@given(plain_row_runs())
# a row whose retention is the 3 * 0.7 ms threshold itself, where 3 * 0.7 / 0.7
# rounds below 3: the row never fails
@example((ExperimentSpec(
    device=DeviceConfig.from_rows(1, trefw_ms=0.7),
    dist=RetentionDistribution(weak_fraction=0.0, floor_ms=0.7, weak_high_ms=1.4, strong_value_ms=0.7 * 3),
    profiler=ProfilerConfig(mode="oracle"), bins=BinConfig(thresholds_ms=(0.7 * 2, 0.7 * 3)),
    sim=SimConfig(horizon_windows=3),
), 1))
@settings(max_examples=300, deadline=None)
def test_sparse_rows_match_oracle(drawn):
    engine_against_oracle(*drawn)
