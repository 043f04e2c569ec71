import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raidrsim import profiler, retention, rng
from raidrsim.experiment import ConfigError, ExperimentSpec
from raidrsim.profiler import ProfilerConfig, _round_windows, profile_rows, vrt_low_seen
from raidrsim.raidr import BinConfig
from raidrsim.retention import DeviceConfig, DpdModel, RetentionDistribution, VrtModel, vrt_walk

from reference_sim import (
    MisclassificationReport, ground_truth, misclassification_report, next_low, profile, uniform01, vrt_rows_of,
)


def make_gt(num_rows=1000, seed=0, **kw):
    defaults = dict(
        device=DeviceConfig.from_rows(num_rows),
        dist=RetentionDistribution(),
        vrt=VrtModel(),
        dpd=DpdModel(),
    )
    defaults.update(kw)
    return ground_truth(seed=seed, **defaults)


class TestOracleMode:
    def test_no_noise_equals_base(self):
        gt = make_gt()
        prof = profile(gt, ProfilerConfig(mode="oracle"))
        assert np.array_equal(prof, gt.base.dense())
        assert prof.shape == (gt.num_rows,)

    def test_sees_vrt_and_dpd_minima(self):
        gt = make_gt(
            vrt=VrtModel(enabled=True, affected_fraction=1.0, low_factor=0.5),
            dpd=DpdModel(enabled=True, worst_pattern_factor=0.8),
        )
        prof = profile(gt, ProfilerConfig(mode="oracle"))
        assert np.allclose(prof, gt.base.dense() * 0.8 * 0.5)

    def test_guard_band_divides(self):
        gt = make_gt()
        p1 = profile(gt, ProfilerConfig(mode="oracle", guard_band_factor=1.0))
        p2 = profile(gt, ProfilerConfig(mode="oracle", guard_band_factor=2.0))
        assert np.allclose(p2, p1 / 2.0)


class TestMeasuredMode:
    def test_full_coverage_no_vrt_equals_oracle(self):
        gt = make_gt(dpd=DpdModel(enabled=True, num_patterns=8, worst_pattern_factor=0.6))
        oracle = profile(gt, ProfilerConfig(mode="oracle"))
        measured = profile(gt, ProfilerConfig(mode="measured", patterns_tested=8))
        assert np.array_equal(measured, oracle)

    def test_full_coverage_with_visited_low_state_equals_oracle(self):
        # alternation chain guarantees a low-state visit at window 1
        gt = make_gt(
            vrt=VrtModel(enabled=True, affected_fraction=0.5, low_factor=0.7,
                         p_high_to_low=1.0, p_low_to_high=1.0),
            dpd=DpdModel(enabled=True, num_patterns=4, worst_pattern_factor=0.6),
        )
        oracle = profile(gt, ProfilerConfig(mode="oracle"))
        measured = profile(
            gt,
            ProfilerConfig(mode="measured", patterns_tested=4, rounds=4, profiling_window_span=4),
        )
        assert np.array_equal(measured, oracle)

    def test_vrt_campaign_follows_the_scalar_row_window_stream(self):
        # the campaign draws uniform01(seed, TAG_PROFILE_VRT_STEP, row, w) and
        # records the low state at the sampled windows 0, 2, 4 and 6
        vrt = VrtModel(enabled=True, affected_fraction=0.5, low_factor=0.5,
                       p_high_to_low=0.2, p_low_to_high=0.5)
        gt = make_gt(num_rows=200, seed=17, vrt=vrt)
        cfg = ProfilerConfig(mode="measured", rounds=4, profiling_window_span=8)
        measured = profile(gt, cfg)
        for r in vrt_rows_of(gt).tolist():
            low = seen = False
            for w in range(1, 8):
                low = next_low(low, uniform01(17, rng.TAG_PROFILE_VRT_STEP, r, w), vrt)
                seen |= low and w % 2 == 0
            assert measured[r] == gt.base.dense()[r] * (0.5 if seen else 1.0)

    @given(
        span=st.integers(1, 80),
        rounds=st.integers(1, 12),
        p_hl=st.floats(0.0, 1.0),
        p_lh=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        num_rows=st.integers(1, 100),
        tile_pairs=st.sampled_from([1, 7, 2**15]),
    )
    @settings(max_examples=100, deadline=None)
    def test_campaign_stops_at_the_last_sampled_window(self, span, rounds, p_hl, p_lh, seed, num_rows,
                                                       tile_pairs):
        # stepping the full span window by window, as a campaign that read
        # every window would, sees the same rows low: no window past the
        # last sample is read.  The campaign's tiles hold one window
        # (TILE_PAIRS 1), are cut between sample windows (7 pairs over a few
        # rows) or span the campaign (2**15)
        vrt = VrtModel(enabled=True, p_high_to_low=p_hl, p_low_to_high=p_lh)
        cfg = ProfilerConfig(mode="measured", rounds=rounds, profiling_window_span=span)
        rows = np.arange(0, 3 * num_rows, 3, dtype=np.int64)
        sample_at = set(_round_windows(span, rounds).tolist())
        prefix = rng.hash_words_vec(seed, rng.TAG_PROFILE_VRT_STEP, rows)
        low = seen = np.zeros(rows.size, dtype=bool)
        for w in range(1, span):
            low = vrt_walk(low, rng.extend_hash_vec(prefix, np.array([[w]])), vrt)[0]
            if w in sample_at:
                seen = seen | low
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retention, "TILE_PAIRS", tile_pairs)
            assert np.array_equal(vrt_low_seen(seed, vrt, rows, cfg), seen)

    def test_patterns_tested_above_universe_rejected(self):
        with pytest.raises(ConfigError, match="patterns_tested 5 exceeds dpd.num_patterns 4"):
            ExperimentSpec(dpd=DpdModel(enabled=True, num_patterns=4),
                           profiler=ProfilerConfig(mode="measured", patterns_tested=5))

    def test_worst_pattern_miss_probability(self):
        # testing 1 of 8 patterns misses the worst one with probability 7/8
        n = 20_000
        gt = make_gt(
            num_rows=n,
            dist=RetentionDistribution(weak_fraction=1.0),
            dpd=DpdModel(enabled=True, num_patterns=8, worst_pattern_factor=0.5),
            seed=13,
        )
        prof = profile(gt, ProfilerConfig(mode="measured", patterns_tested=1))
        true_min = gt.min_possible().dense()
        overestimated = int(np.count_nonzero(prof > true_min + 1e-12))
        expected = n * 7 / 8
        sigma = math.sqrt(n * (7 / 8) * (1 / 8))
        assert abs(overestimated - expected) < 4 * sigma

    def test_never_exceeds_base(self):
        gt = make_gt(
            dist=RetentionDistribution(weak_fraction=0.5),
            vrt=VrtModel(enabled=True, affected_fraction=0.5),
            dpd=DpdModel(enabled=True),
            seed=3,
        )
        for cfg in (
            ProfilerConfig(mode="oracle"),
            ProfilerConfig(mode="measured", patterns_tested=4, rounds=3, profiling_window_span=8),
        ):
            prof = profile(gt, cfg)
            assert np.all(prof <= gt.base.dense() + 1e-12)

    def test_guard_band_monotone_per_row(self):
        gt = make_gt(
            vrt=VrtModel(enabled=True, affected_fraction=0.3),
            dpd=DpdModel(enabled=True),
            seed=9,
        )
        cfgs = [
            ProfilerConfig(mode="measured", patterns_tested=2, guard_band_factor=g)
            for g in (1.0, 2.0, 4.0)
        ]
        profs = [profile(gt, c) for c in cfgs]
        assert np.all(profs[1] <= profs[0] + 1e-12)
        assert np.all(profs[2] <= profs[1] + 1e-12)


class TestCampaignOnlyWhereTheBinDependsOnIt:
    """Given bins, the campaign walks only the VRT rows whose bin, or base-period check, its answer can change."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dpd=st.booleans(),
        worst=st.floats(0.3, 1.0),
        patterns_tested=st.integers(1, 4),
        guard=st.floats(1.0, 4.0),
        low_factor=st.floats(0.05, 1.0),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_profile_with_bins_is_exact_up_to_the_bin(self, seed, dpd, worst, patterns_tested, guard, low_factor,
                                                      data):
        # a low state seen at some rows and not at others; guards and low
        # factors take VRT rows under the 64 ms base period, and some
        # thresholds sit exactly on a row's profiled value
        gt = make_gt(
            num_rows=200,
            seed=seed,
            dist=RetentionDistribution(weak_fraction=0.5, floor_ms=64.0, weak_high_ms=512.0, strong_value_ms=1024.0),
            vrt=VrtModel(enabled=True, affected_fraction=0.5, low_factor=low_factor,
                         p_high_to_low=0.3, p_low_to_high=0.3),
            dpd=DpdModel(enabled=dpd, num_patterns=4, worst_pattern_factor=worst),
        )
        cfg = ProfilerConfig(mode="measured", patterns_tested=patterns_tested, rounds=3, profiling_window_span=6,
                             guard_band_factor=guard)
        exact = profile_rows(gt, cfg).dense()
        edges = data.draw(st.lists(st.one_of(st.floats(16.0, 1100.0), st.sampled_from(exact.tolist())),
                                   min_size=1, max_size=4))
        bins = BinConfig(thresholds_ms=tuple(sorted(set(edges))))
        binned = profile_rows(gt, cfg, bins).dense()
        assert np.array_equal(bins.classify(binned), bins.classify(exact))
        under = exact < gt.device.trefw_ms
        assert np.array_equal(binned < gt.device.trefw_ms, under)
        assert np.array_equal(binned[under], exact[under])

    def test_campaign_walks_exactly_the_straddling_rows(self, monkeypatch):
        vrt = VrtModel(enabled=True, affected_fraction=0.5, low_factor=0.5, p_high_to_low=0.3, p_low_to_high=0.3)
        gt = make_gt(
            num_rows=2000,
            seed=5,
            dist=RetentionDistribution(weak_fraction=0.3),
            vrt=vrt,
            dpd=DpdModel(enabled=True, num_patterns=4, worst_pattern_factor=0.8),
        )
        # sampled windows 0 and 1: a low state entered at window 1 is seen
        cfg = ProfilerConfig(mode="measured", patterns_tested=2, rounds=2, profiling_window_span=2,
                             guard_band_factor=1.5)
        bins = BinConfig()
        # each VRT row's two possible values, from campaigns that never and
        # that always see its low state
        never = profile_rows(replace(gt, vrt=replace(vrt, p_high_to_low=0.0)), cfg).dense()
        always = profile_rows(replace(gt, vrt=replace(vrt, p_high_to_low=1.0, p_low_to_high=0.0)), cfg).dense()
        toggling = vrt_rows_of(gt)
        straddle = (bins.classify(never[toggling]) != bins.classify(always[toggling])) | (
            always[toggling] < gt.device.trefw_ms
        )
        walked = []
        walk = profiler.vrt_low_seen

        def recording(seed, vrt, rows, cfg):
            walked.append(rows.copy())
            return walk(seed, vrt, rows, cfg)

        monkeypatch.setattr(profiler, "vrt_low_seen", recording)
        profile_rows(gt, cfg, bins)
        assert 0 < np.count_nonzero(straddle) < toggling.size
        assert np.array_equal(np.concatenate(walked), toggling[straddle])


class TestMisclassification:
    def test_oracle_guard_one_perfect(self):
        gt = make_gt(
            dist=RetentionDistribution(weak_fraction=0.3, floor_ms=128.0),
            vrt=VrtModel(enabled=True, affected_fraction=0.2, low_factor=0.9),
            dpd=DpdModel(enabled=True, worst_pattern_factor=0.9),
            seed=17,
        )
        prof = profile(gt, ProfilerConfig(mode="oracle", guard_band_factor=1.0))
        rep = misclassification_report(prof, gt, BinConfig())
        assert rep.unsafe == 0
        assert rep.wasteful == 0
        assert rep.exact == gt.num_rows

    def test_saturating_guard_all_shortest_bin(self):
        # all-weak population; guard >= longest/floor pushes every row to bin 0
        gt = make_gt(dist=RetentionDistribution(weak_fraction=1.0), seed=4)
        guard = 256.0 / 64.0
        prof = profile(gt, ProfilerConfig(mode="oracle", guard_band_factor=guard))
        rep = misclassification_report(prof, gt, BinConfig())
        assert rep.unsafe == 0
        true_bin0 = int(np.count_nonzero(gt.min_possible().dense() < 128.0))
        assert rep.wasteful == gt.num_rows - true_bin0
        assert rep.exact == true_bin0

    def test_unsafe_probability_from_markov_hitting(self):
        # all strong rows at 600 ms, all with a 0.3x low state: a row is
        # profiled unsafe iff it never leaves high during the span, i.e.
        # with probability (1 - p_h2l)^(span - 1) from the fresh start
        n, p_h2l, span = 2000, 0.3, 4
        gt = make_gt(
            num_rows=n,
            dist=RetentionDistribution(weak_fraction=0.0, strong_value_ms=600.0),
            vrt=VrtModel(enabled=True, affected_fraction=1.0, low_factor=0.3,
                         p_high_to_low=p_h2l, p_low_to_high=0.0),
            seed=29,
        )
        prof = profile(
            gt,
            ProfilerConfig(mode="measured", rounds=span, profiling_window_span=span),
        )
        rep = misclassification_report(prof, gt, BinConfig())
        expect_p = (1 - p_h2l) ** (span - 1)
        sigma = math.sqrt(n * expect_p * (1 - expect_p))
        assert abs(rep.unsafe - n * expect_p) < 4 * sigma
        assert rep.unsafe + rep.exact == n

    def test_intervals_are_taken_from_the_device(self):
        # with one threshold at 64 ms, bin 0 and the default bin share the
        # 64 ms interval on a 64 ms device, but bin 0 is 32 ms on a 32 ms one
        weak = RetentionDistribution(weak_fraction=1.0, floor_ms=64.0, weak_high_ms=256.0)
        guard = ProfilerConfig(mode="oracle", guard_band_factor=2.0)
        bins = BinConfig(thresholds_ms=(64.0,))
        for trefw_ms in (64.0, 32.0):
            gt = make_gt(device=DeviceConfig.from_rows(1000, trefw_ms=trefw_ms), dist=weak, seed=6)
            rep = misclassification_report(profile(gt, guard), gt, bins)
            demoted = int(np.count_nonzero(gt.min_possible().dense() < 128.0))
            assert 0 < demoted < gt.num_rows
            assert rep.unsafe == 0
            assert rep.wasteful == (demoted if trefw_ms == 32.0 else 0)
            assert rep.exact == gt.num_rows - rep.wasteful

    def test_shape_mismatch_rejected(self):
        gt = make_gt(num_rows=10)
        other = make_gt(num_rows=20)
        prof = profile(other, ProfilerConfig())
        with pytest.raises(ValueError):
            misclassification_report(prof, gt, BinConfig())

    def test_report_totals(self):
        rep = MisclassificationReport(unsafe=1, wasteful=2, exact=3)
        assert rep.total == 6
