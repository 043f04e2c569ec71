import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raidrsim import rng
from raidrsim.retention import (
    DeviceConfig,
    DpdModel,
    RetentionDistribution,
    VrtModel,
    generate_ground_truth,
    vrt_step,
    vrt_walk,
)


def make_gt(num_rows=1000, seed=0, **kw):
    defaults = dict(
        device=DeviceConfig.from_rows(num_rows),
        dist=RetentionDistribution(),
        vrt=VrtModel(),
        dpd=DpdModel(),
    )
    defaults.update(kw)
    return generate_ground_truth(seed=seed, **defaults)


class TestDeviceConfig:
    def test_num_rows_derivation(self):
        dev = DeviceConfig(density_bits=8192 * 1000, row_size_bits=8192)
        assert dev.num_rows == 1000

    def test_indivisible_density_rejected(self):
        with pytest.raises(ValueError):
            DeviceConfig(density_bits=8193, row_size_bits=8192)

    def test_table_monotonicity_rejected(self):
        with pytest.raises(ValueError):
            DeviceConfig(trfc_table_ns={1.0: 200.0, 2.0: 100.0})

    def test_default_density_is_a_million_rows(self):
        assert DeviceConfig().num_rows == 1_000_000


class TestGeneration:
    def test_weak_fraction_zero_all_strong(self):
        gt = make_gt(dist=RetentionDistribution(weak_fraction=0.0))
        assert np.all(gt.base_retention_ms == 2560.0)

    def test_point_mass_weak_law(self):
        dist = RetentionDistribution(
            weak_fraction=1.0, floor_ms=100.0, weak_high_ms=100.0000001, strong_value_ms=1000.0
        )
        gt = make_gt(dist=dist)
        assert np.allclose(gt.base_retention_ms, 100.0, atol=1e-3)

    def test_weak_count_binomial(self):
        n, p = 1_000_000, 1e-3
        gt = make_gt(num_rows=n, dist=RetentionDistribution(weak_fraction=p), seed=42)
        weak = int(np.count_nonzero(gt.base_retention_ms < 2560.0))
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(weak - n * p) < 4 * sigma

    def test_weak_support(self):
        gt = make_gt(dist=RetentionDistribution(weak_fraction=0.5), seed=3)
        weak = gt.base_retention_ms[gt.base_retention_ms < 2560.0]
        assert weak.size > 0
        assert weak.min() >= 64.0
        assert weak.max() < 256.0

    def test_lognormal_tail_support(self):
        dist = RetentionDistribution(
            kind="lognormal-tail", weak_fraction=1.0, floor_ms=64.0, weak_high_ms=256.0
        )
        gt = make_gt(dist=dist, seed=5)
        assert gt.base_retention_ms.min() >= 64.0
        assert gt.base_retention_ms.max() < 256.0

    def test_floor_below_trefw_rejected(self):
        with pytest.raises(ValueError, match="unrefreshable"):
            make_gt(dist=RetentionDistribution(floor_ms=32.0))

    def test_determinism_and_row_stream_independence(self):
        a = make_gt(seed=7, dist=RetentionDistribution(weak_fraction=0.3))
        b = make_gt(seed=7, dist=RetentionDistribution(weak_fraction=0.3))
        assert np.array_equal(a.base_retention_ms, b.base_retention_ms)
        # per-row re-derivation from the stream primitives (order independent)
        for row in (0, 17, 999):
            u = rng.uniform01(7, rng.TAG_WEAK_SELECT, row)
            if u < 0.3:
                ub = rng.uniform01(7, rng.TAG_BASE_RETENTION, row)
                expected = 64.0 + ub * (256.0 - 64.0)
            else:
                expected = 2560.0
            assert a.base_retention_ms[row] == expected

    def test_seed_changes_output(self):
        a = make_gt(seed=1, dist=RetentionDistribution(weak_fraction=0.5))
        b = make_gt(seed=2, dist=RetentionDistribution(weak_fraction=0.5))
        assert not np.array_equal(a.base_retention_ms, b.base_retention_ms)


class TestTrueMinRetention:
    def test_no_noise_equals_base(self):
        gt = make_gt()
        for row in (0, 5, 999):
            assert gt.true_min_retention(row, 0) == float(gt.base_retention_ms[row])

    def test_vrt_low_halves_dpd_adjusted_base(self):
        vrt = VrtModel(enabled=True, affected_fraction=1.0, low_factor=0.5, p_high_to_low=1.0, p_low_to_high=1.0)
        dpd = DpdModel(enabled=True, worst_pattern_factor=0.8)
        gt = make_gt(vrt=vrt, dpd=dpd, num_rows=10)
        base0 = float(gt.base_retention_ms[0])
        assert gt.true_min_retention(0, 0) == base0 * 0.8
        gt.step_vrt(1)  # p_high_to_low = 1: everyone drops low
        assert gt.true_min_retention(0, 1) == base0 * 0.8 * 0.5

    def test_row_out_of_range(self):
        gt = make_gt(num_rows=10)
        with pytest.raises(IndexError):
            gt.true_min_retention(10, 0)

    def test_window_mismatch_rejected(self):
        gt = make_gt(num_rows=10)
        with pytest.raises(ValueError, match="window"):
            gt.true_min_retention(0, 3)

    def test_constant_over_windows_without_noise(self):
        gt = make_gt(num_rows=50)
        r0 = [gt.true_min_retention(r, 0) for r in range(50)]
        for w in range(1, 20):
            gt.step_vrt(w)
        assert [gt.true_min_retention(r, 19) for r in range(50)] == r0

    def test_retention_never_below_global_floor(self):
        vrt = VrtModel(enabled=True, affected_fraction=0.5, low_factor=0.5, p_high_to_low=0.5, p_low_to_high=0.5)
        dpd = DpdModel(enabled=True, worst_pattern_factor=0.7)
        dist = RetentionDistribution(weak_fraction=0.5)
        gt = make_gt(vrt=vrt, dpd=dpd, dist=dist, num_rows=2000, seed=11)
        floor = 64.0 * 0.5 * 0.7
        for w in range(1, 30):
            gt.step_vrt(w)
            assert min(gt.true_min_retention(r, w) for r in range(gt.num_rows)) >= floor - 1e-9


def make_all_vrt_gt(num_rows, seed=0, **vrt_kw):
    """Ground truth in which every row toggles, so vrt_rows_low[r] is row r's state."""
    gt = make_gt(vrt=VrtModel(enabled=True, affected_fraction=1.0, **vrt_kw), num_rows=num_rows, seed=seed)
    assert np.array_equal(gt.vrt_rows, np.arange(num_rows))
    return gt


class TestVrtChain:
    def test_absorbing_high(self):
        gt = make_all_vrt_gt(500, p_high_to_low=0.0, p_low_to_high=0.5)
        for w in range(1, 50):
            gt.step_vrt(w)
            assert not gt.vrt_rows_low.any()

    def test_deterministic_alternation(self):
        gt = make_all_vrt_gt(100, p_high_to_low=1.0, p_low_to_high=1.0)
        for w in range(1, 9):
            gt.step_vrt(w)
            expected = w % 2 == 1
            assert gt.vrt_rows_low.all() == expected and gt.vrt_rows_low.any() == expected

    def test_steps_follow_the_scalar_row_window_stream(self):
        # window w draws uniform01(seed, TAG_VRT_STEP, row, w) for each row
        vrt = VrtModel(enabled=True, affected_fraction=0.5, p_high_to_low=0.3, p_low_to_high=0.4)
        gt = make_gt(vrt=vrt, num_rows=200, seed=13)
        rows = [int(r) for r in gt.vrt_rows]
        assert rows == np.flatnonzero(gt.has_vrt).tolist()
        low = {r: False for r in rows}
        for w in range(1, 7):
            gt.step_vrt(w)
            for r in rows:
                u = rng.uniform01(13, rng.TAG_VRT_STEP, r, w)
                low[r] = u >= 0.4 if low[r] else u < 0.3
            assert gt.vrt_rows_low.tolist() == [low[r] for r in rows]

    def test_out_of_order_step_rejected(self):
        gt = make_gt(num_rows=10)
        with pytest.raises(ValueError, match="consecutive"):
            gt.step_vrt(5)

    def test_stationary_occupancy_ensemble(self):
        # two-state chain with p=q=0.1: stationary low occupancy 1/2
        gt = make_all_vrt_gt(10_000, seed=21, p_high_to_low=0.1, p_low_to_high=0.1)
        occ = []
        for w in range(1, 10_001):
            gt.step_vrt(w)
            if w > 100:  # discard burn-in from the all-high start
                occ.append(gt.vrt_rows_low.mean())
        assert abs(float(np.mean(occ)) - 0.5) < 0.025

    def test_stationary_occupancy_single_row_time_average(self):
        gt = make_all_vrt_gt(1, seed=33, p_high_to_low=0.1, p_low_to_high=0.1)
        low_windows = 0
        for w in range(1, 10_001):
            gt.step_vrt(w)
            low_windows += int(gt.vrt_rows_low[0])
        assert abs(low_windows / 10_000 - 0.5) < 0.05

    def test_asymmetric_stationary(self):
        p, q = 0.3, 0.1  # stationary low occupancy p/(p+q) = 0.75
        gt = make_all_vrt_gt(5000, seed=8, p_high_to_low=p, p_low_to_high=q)
        occ = []
        for w in range(1, 2001):
            gt.step_vrt(w)
            if w > 200:
                occ.append(gt.vrt_rows_low.mean())
        assert abs(float(np.mean(occ)) - 0.75) < 0.75 * 0.05


def _ulp_neighbours(p):
    return st.sampled_from([float(np.nextafter(p, 0.0)), p, float(np.nextafter(p, 1.0))])


# probabilities on the 2**-53 grid of the uniform and one ulp either side,
# the ends, subnormals and anything else in [0, 1]
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.0**-53]),
    st.integers(0, 2**53).map(lambda k: k * 2.0**-53).flatmap(_ulp_neighbours),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, 1.0),
)


@st.composite
def hashes_near(draw, p):
    """A 64-bit hash whose uniform lies on or next to p's grid point."""
    k = min(max(int(p * 2.0**53) + draw(st.integers(-1, 2)), 0), 2**53 - 1)
    return (k << 11) | draw(st.integers(0, 2**11 - 1))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_vrt_step_is_the_uniform_threshold_rule(data):
    p_hl, p_lh = data.draw(probabilities), data.draw(probabilities)
    vrt = VrtModel(enabled=True, p_high_to_low=p_hl, p_low_to_high=p_lh)
    hashes = [data.draw(hashes_near(p)) for p in (p_hl, p_lh) for _ in range(3)]
    hashes += data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=8))
    h = np.array(hashes * 2, dtype=np.uint64)
    low = np.repeat([False, True], len(hashes))
    u = rng.uniform01_of(h)
    assert np.array_equal(vrt_step(low, h, vrt), np.where(low, u >= p_lh, u < p_hl))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_vrt_walk_is_repeated_vrt_step(data):
    # equal probabilities make stay == ~drop on every hash
    p_hl = data.draw(probabilities)
    p_lh = data.draw(st.just(p_hl) | probabilities)
    vrt = VrtModel(enabled=True, p_high_to_low=p_hl, p_low_to_high=p_lh)
    windows, rows = data.draw(st.integers(1, 70)), data.draw(st.integers(0, 40))
    low = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    h = rng.extend_hash_vec(rng.hash_words_vec(data.draw(st.integers(0, 2**64 - 1)), np.arange(rows)),
                            np.arange(windows)[:, None])
    before = low.copy(), h.copy()
    walked = vrt_walk(low, h, vrt)
    assert walked.shape == (windows, rows) and walked.dtype == bool
    state = low
    for t in range(windows):
        state = vrt_step(state, h[t], vrt)
        assert np.array_equal(walked[t], state), t
    assert np.array_equal(low, before[0]) and np.array_equal(h, before[1])
