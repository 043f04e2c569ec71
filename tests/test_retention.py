import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raidrsim import retention, rng
from raidrsim.experiment import ConfigError, ExperimentSpec
from raidrsim.retention import (
    DeviceConfig,
    DpdModel,
    RetentionDistribution,
    RowBuffer,
    SparseRows,
    VrtModel,
    vrt_tiles,
    vrt_walk,
)

from reference_sim import ground_truth, next_low, uniform01, vrt_rows_of


def make_gt(num_rows=1000, seed=0, **kw):
    defaults = dict(
        device=DeviceConfig.from_rows(num_rows),
        dist=RetentionDistribution(),
        vrt=VrtModel(),
        dpd=DpdModel(),
    )
    defaults.update(kw)
    return ground_truth(seed=seed, **defaults)


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
        assert np.all(gt.base.dense() == 2560.0)

    def test_point_mass_weak_law(self):
        dist = RetentionDistribution(
            weak_fraction=1.0, floor_ms=100.0, weak_high_ms=100.0000001, strong_value_ms=1000.0
        )
        gt = make_gt(dist=dist)
        assert np.allclose(gt.base.dense(), 100.0, atol=1e-3)

    def test_weak_count_binomial(self):
        n, p = 1_000_000, 1e-3
        gt = make_gt(num_rows=n, dist=RetentionDistribution(weak_fraction=p), seed=42)
        weak = int(np.count_nonzero(gt.base.dense() < 2560.0))
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(weak - n * p) < 4 * sigma

    def test_weak_support(self):
        gt = make_gt(dist=RetentionDistribution(weak_fraction=0.5), seed=3)
        weak = gt.base.dense()[gt.base.dense() < 2560.0]
        assert weak.size > 0
        assert weak.min() >= 64.0
        assert weak.max() < 256.0

    def test_lognormal_tail_support(self):
        dist = RetentionDistribution(
            kind="lognormal-tail", weak_fraction=1.0, floor_ms=64.0, weak_high_ms=256.0
        )
        gt = make_gt(dist=dist, seed=5)
        assert gt.base.dense().min() >= 64.0
        assert gt.base.dense().max() < 256.0

    def test_floor_below_trefw_rejected(self):
        with pytest.raises(ConfigError, match="unrefreshable"):
            ExperimentSpec(dist=RetentionDistribution(floor_ms=32.0))

    def test_determinism_and_row_stream_independence(self):
        a = make_gt(seed=7, dist=RetentionDistribution(weak_fraction=0.3))
        b = make_gt(seed=7, dist=RetentionDistribution(weak_fraction=0.3))
        assert np.array_equal(a.base.dense(), b.base.dense())
        # per-row re-derivation from the stream primitives (order independent)
        for row in (0, 17, 999):
            u = uniform01(7, rng.TAG_WEAK_SELECT, row)
            if u < 0.3:
                ub = uniform01(7, rng.TAG_BASE_RETENTION, row)
                expected = 64.0 + ub * (256.0 - 64.0)
            else:
                expected = 2560.0
            assert a.base.dense()[row] == expected

    def test_seed_changes_output(self):
        a = make_gt(seed=1, dist=RetentionDistribution(weak_fraction=0.5))
        b = make_gt(seed=2, dist=RetentionDistribution(weak_fraction=0.5))
        assert not np.array_equal(a.base.dense(), b.base.dense())


class TestTrueMinRetention:
    """The record's retentions, which the engine reads, against their definition.

    A row's retention is its base at its worst data pattern, times
    low_factor while its toggle is low.
    """

    def test_no_noise_equals_base(self):
        gt = make_gt()
        assert np.array_equal(gt.min_possible().dense(), gt.base.dense())
        assert vrt_rows_of(gt).size == gt.vrt_retention_high.size == 0 and not gt.toggles.any()

    def test_vrt_low_halves_dpd_adjusted_base(self):
        vrt = VrtModel(enabled=True, affected_fraction=1.0, low_factor=0.5, p_high_to_low=1.0, p_low_to_high=1.0)
        dpd = DpdModel(enabled=True, worst_pattern_factor=0.8)
        gt = make_gt(vrt=vrt, dpd=dpd, num_rows=10)
        base0 = float(gt.base.dense()[0])
        assert gt.vrt_retention_high[0] == base0 * 0.8
        # the engine takes the low retention as the high one times low_factor
        assert gt.vrt_retention_high[0] * 0.5 == gt.min_possible().dense()[0] == base0 * 0.8 * 0.5

    def test_constant_over_windows_without_noise(self):
        # the record holds no toggle state and cannot be changed, so without
        # VRT every row's retention is its base in every window
        gt = make_gt(num_rows=50)
        assert vrt_rows_of(gt).size == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            gt.start = 1
        assert np.array_equal(gt.min_possible().dense(), gt.base.dense())

    def test_retention_never_below_global_floor(self):
        vrt = VrtModel(enabled=True, affected_fraction=0.5, low_factor=0.5, p_high_to_low=0.5, p_low_to_high=0.5)
        dpd = DpdModel(enabled=True, worst_pattern_factor=0.7)
        dist = RetentionDistribution(weak_fraction=0.5)
        gt = make_gt(vrt=vrt, dpd=dpd, dist=dist, num_rows=2000, seed=11)
        floor = 64.0 * 0.5 * 0.7
        vrt_rows = vrt_rows_of(gt)
        assert vrt_rows.size > 0
        assert gt.min_possible().dense().min() >= floor - 1e-9
        assert np.array_equal(gt.vrt_retention_high * 0.5, gt.min_possible().dense()[vrt_rows])

    def test_own_rows_are_the_weak_and_vrt_rows(self):
        # base.at holds each weak or VRT row once, toggles marks the VRT
        # rows, and a VRT row that is not weak holds the plain value
        vrt = VrtModel(enabled=True, affected_fraction=0.3)
        gt = make_gt(vrt=vrt, dist=RetentionDistribution(weak_fraction=0.3), num_rows=3000, seed=4)
        weak = np.flatnonzero(gt.base.dense() < 2560.0)
        vrt_rows = vrt_rows_of(gt)
        assert 0 < np.intersect1d(weak, vrt_rows).size < min(weak.size, vrt_rows.size)
        assert gt.base.at.tolist() == sorted(set(weak.tolist()) | set(vrt_rows.tolist()))
        assert gt.base.at[gt.toggles].tolist() == vrt_rows.tolist()
        assert gt.base.plain == 2560.0 and np.all(gt.base.values[~np.isin(gt.base.at, weak)] == 2560.0)
        assert gt.toggles.dtype == bool and gt.toggles.size == gt.base.at.size


def walk(num_rows, windows, seed=0, **vrt_kw):
    """Every row's toggle state at windows 1..windows, from the fresh (high) state, one tile at a time.

    Yields vrt_tiles' (windows, states) of the stream TAG_VRT_STEP of rows
    0..num_rows-1.
    """
    vrt = VrtModel(enabled=True, affected_fraction=1.0, **vrt_kw)
    prefix = rng.hash_words_vec(seed, rng.TAG_VRT_STEP, np.arange(num_rows))
    yield from vrt_tiles(prefix, np.zeros(num_rows, dtype=bool), vrt, 1, windows + 1)


def occupancy(num_rows, windows, burn_in, **kw):
    """The mean share of rows low over windows burn_in + 1..windows."""
    total = 0
    for tile_windows, lows in walk(num_rows, windows, **kw):
        total += int(np.count_nonzero(lows[tile_windows > burn_in]))
    return total / (num_rows * (windows - burn_in))


class TestVrtChain:
    def test_absorbing_high(self):
        for _, lows in walk(500, 49, p_high_to_low=0.0, p_low_to_high=0.5):
            assert not lows.any()

    def test_deterministic_alternation(self):
        lows = np.concatenate([lows for _, lows in walk(100, 8, p_high_to_low=1.0, p_low_to_high=1.0)])
        for w, line in enumerate(lows, start=1):
            expected = w % 2 == 1
            assert line.all() == expected and line.any() == expected

    def test_steps_follow_the_scalar_row_window_stream(self):
        # window w draws uniform01(seed, TAG_VRT_STEP, row, w) for each row;
        # the scalar rule steps each row alone, as a Python bool
        vrt = VrtModel(enabled=True, affected_fraction=0.5, p_high_to_low=0.3, p_low_to_high=0.4)
        gt = make_gt(vrt=vrt, num_rows=200, seed=13)
        rows = vrt_rows_of(gt).tolist()
        assert rows == gt.base.at[gt.toggles].tolist()
        prefix = rng.hash_words_vec(13, rng.TAG_VRT_STEP, np.array(rows))
        lows = vrt_walk(np.zeros(len(rows), dtype=bool), rng.extend_hash_vec(prefix, np.arange(1, 7)[:, None]), vrt)
        low = {r: False for r in rows}
        for w, line in enumerate(lows, start=1):
            for r in rows:
                low[r] = next_low(low[r], uniform01(13, rng.TAG_VRT_STEP, r, w), vrt)
            assert line.tolist() == [low[r] for r in rows]

    def test_stationary_occupancy_ensemble(self):
        # two-state chain with p=q=0.1: stationary low occupancy 1/2; the
        # first 100 windows are burn-in from the all-high start
        occ = occupancy(10_000, 10_000, 100, seed=21, p_high_to_low=0.1, p_low_to_high=0.1)
        assert abs(occ - 0.5) < 0.025

    def test_stationary_occupancy_single_row_time_average(self):
        occ = occupancy(1, 10_000, 0, seed=33, p_high_to_low=0.1, p_low_to_high=0.1)
        assert abs(occ - 0.5) < 0.05

    def test_asymmetric_stationary(self):
        p, q = 0.3, 0.1  # stationary low occupancy p/(p+q) = 0.75
        occ = occupancy(5000, 2000, 200, seed=8, p_high_to_low=p, p_low_to_high=q)
        assert abs(occ - 0.75) < 0.75 * 0.05


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


def uniform_of(h: int) -> float:
    """The uniform of the 64-bit hash h, as uniform01 takes it."""
    return (h >> 11) * 2.0**-53


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_vrt_step_is_the_uniform_threshold_rule(data):
    # one step of vrt_walk from each state is the scalar rule on the uniform
    p_hl, p_lh = data.draw(probabilities), data.draw(probabilities)
    vrt = VrtModel(enabled=True, p_high_to_low=p_hl, p_low_to_high=p_lh)
    hashes = [data.draw(hashes_near(p)) for p in (p_hl, p_lh) for _ in range(3)]
    hashes += data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=8))
    low = [False] * len(hashes) + [True] * len(hashes)
    stepped = vrt_walk(np.array(low), np.array([hashes * 2], dtype=np.uint64), vrt)
    assert stepped.tolist() == [[next_low(lo, uniform_of(h), vrt) for lo, h in zip(low, hashes * 2)]]


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
    state = low.tolist()
    for t in range(windows):
        state = [next_low(lo, uniform_of(int(x)), vrt) for lo, x in zip(state, h[t])]
        assert walked[t].tolist() == state, t
    assert np.array_equal(low, before[0]) and np.array_equal(h, before[1])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_vrt_tiles_are_the_scalar_chain_in_bounded_tiles(data):
    # from any states, over any windows, in tiles of one window (TILE_PAIRS
    # 1), of a few (7 pairs over a few rows) or of every window (2**15)
    p_hl, p_lh = data.draw(probabilities), data.draw(probabilities)
    vrt = VrtModel(enabled=True, p_high_to_low=p_hl, p_low_to_high=p_lh)
    rows, start = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 5))
    stop = data.draw(st.integers(start, start + 70))
    tile_pairs = data.draw(st.sampled_from([1, 7, 2**15]))
    seed = data.draw(st.integers(0, 2**64 - 1))
    low = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    before = low.copy()
    prefix = rng.hash_words_vec(seed, rng.TAG_VRT_STEP, np.arange(rows))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retention, "TILE_PAIRS", tile_pairs)
        tiles = list(vrt_tiles(prefix, low, vrt, start, stop))
    assert np.array_equal(low, before)
    if rows == 0:
        assert tiles == []
        return
    assert [int(w) for windows, _ in tiles for w in windows] == list(range(start, stop))
    state = low.tolist()
    for windows, lows in tiles:
        assert 1 <= windows.size <= max(1, tile_pairs // rows) and lows.shape == (windows.size, rows)
        for w, line in zip(windows.tolist(), lows):
            if w > 0:  # window 0 is the fresh state
                state = [next_low(lo, uniform01(seed, rng.TAG_VRT_STEP, r, w), vrt) for r, lo in enumerate(state)]
            assert line.tolist() == state, w


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bernoulli_is_the_uniform_below_p(data):
    # the weak, VRT and pattern selections compare on the integers
    p = data.draw(probabilities)
    seed = data.draw(st.integers(0, 2**64 - 1))
    keys = data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    drawn = rng.bernoulli_vec(p, seed, 3, np.array(keys, dtype=np.uint64))
    assert drawn.tolist() == [uniform01(seed, 3, k) < p for k in keys]


@st.composite
def sparse_rows(draw):
    """SparseRows of up to 40 rows, with any subset of them holding its own value."""
    n = draw(st.integers(0, 40))
    at = sorted(draw(st.sets(st.integers(0, n - 1)))) if n else []
    values = draw(st.lists(st.floats(1.0, 1000.0), min_size=len(at), max_size=len(at)))
    return SparseRows(draw(st.integers(0, 10**6)), n, 2560.0, np.array(at, dtype=np.intp), np.array(values))


@given(sparse_rows())
@settings(max_examples=150, deadline=None)
def test_sparse_rows_against_their_dense_form(rows):
    own = dict(zip(rows.at.tolist(), rows.values.tolist()))
    plain = [i for i in range(rows.num_rows) if i not in own]
    dense = rows.dense()
    assert dense.tolist() == [own.get(i, 2560.0) for i in range(rows.num_rows)]
    assert rows.num_plain == len(plain)
    assert rows.first_plain() == (plain[0] if plain else rows.num_rows)


@given(st.lists(st.lists(st.integers(0, 2**40), max_size=30), max_size=12))
@settings(max_examples=100, deadline=None)
def test_row_buffer_is_the_concatenation(pieces):
    buffer = RowBuffer(np.int64)
    for piece in pieces:
        buffer.extend(np.array(piece, dtype=np.int64))
    assert buffer.array().dtype == np.int64
    assert buffer.array().tolist() == [x for piece in pieces for x in piece]
    assert buffer.size == sum(map(len, pieces))
