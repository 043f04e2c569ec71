import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raidrsim import bloom, rng
from raidrsim.bloom import BloomFilter, BloomParams, analytic_fpr
from raidrsim.experiment import ExperimentSpec, SimConfig
from raidrsim.profiler import ProfilerConfig
from raidrsim.raidr import (
    BinConfig,
    UnbinnableRowError,
    member_rows,
    pack_members,
    refreshes_in_horizon,
)
from raidrsim.retention import DeviceConfig, DpdModel, RetentionDistribution, SparseRows, VrtModel
from raidrsim.simulate import RefreshSimulation

from reference_sim import bin_blocks, build_bins, ground_truth, profile, query


def query_many(bins, rows) -> np.ndarray:
    """Bin per row through the engine's vectorised query."""
    return bins.first_claims(bins.claims(rows), rows.size)


BASE_MS = 64.0  # the default device.trefw_ms


def profile_of(values_ms) -> np.ndarray:
    return np.asarray(values_ms, dtype=np.float64)


class TestBinConfig:
    def test_default_intervals_and_multipliers(self):
        cfg = BinConfig()
        assert cfg.intervals_ms(BASE_MS) == (64.0, 128.0, 256.0)
        assert cfg.multipliers(BASE_MS) == (1, 2, 4)

    def test_intervals_follow_the_base(self):
        cfg = BinConfig(thresholds_ms=(96.0, 192.0))
        assert cfg.intervals_ms(48.0) == (48.0, 96.0, 192.0)
        assert cfg.multipliers(48.0) == (1, 2, 4)
        assert cfg.intervals_ms(32) == (32.0, 96.0, 192.0)
        assert cfg.multipliers(32.0) == (1, 3, 6)

    def test_threshold_classification(self):
        cfg = BinConfig()
        assert cfg.classify(70.0) == 0
        assert cfg.classify(130.0) == 1
        assert cfg.classify(300.0) == 2
        assert cfg.classify(128.0) == 1  # boundary goes to the bin it opens
        assert cfg.classify(256.0) == 2

    def test_non_multiple_threshold_rejected(self):
        cfg = BinConfig(thresholds_ms=(100.0, 256.0))
        with pytest.raises(ValueError, match="multiple"):
            cfg.multipliers(BASE_MS)
        with pytest.raises(ValueError, match="multiple"):
            build_bins(profile_of([300.0]), cfg, BASE_MS)
        with pytest.raises(ValueError, match="multiple"):
            BinConfig(thresholds_ms=(96.0, 192.0)).multipliers(64.0)
        # a threshold a hair under a multiple is no multiple: the bin would
        # be refreshed past its lower edge
        with pytest.raises(ValueError, match="multiple"):
            BinConfig(thresholds_ms=(127.99999999, 256.0)).multipliers(64.0)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            BinConfig(thresholds_ms=(256.0, 128.0))

    def test_single_threshold_baseline_equivalent(self):
        cfg = BinConfig(thresholds_ms=(64.0,))
        assert cfg.multipliers(BASE_MS) == (1, 1)

    def test_empty_thresholds_pure_baseline(self):
        cfg = BinConfig(thresholds_ms=())
        assert cfg.intervals_ms(BASE_MS) == (64.0,)
        assert cfg.multipliers(BASE_MS) == (1,)


class TestBuildBins:
    def test_three_row_example(self):
        bins = build_bins(profile_of([70.0, 130.0, 300.0]), BinConfig(), BASE_MS, 1e-3)
        assert bins.counts == (1, 1, 1)
        assert query(bins, 0) == 0
        assert query(bins, 1) in (0, 1)  # false positive may only demote
        assert query(bins, 2) in (0, 1, 2)
        # no false negatives: inserted rows never land above their bin
        assert query(bins, 0) <= 0 and query(bins, 1) <= 1

    def test_all_strong_filters_empty(self):
        bins = build_bins(profile_of([300.0, 500.0, 2560.0]), BinConfig(), BASE_MS, 1e-3)
        assert bins.counts == (0, 0, 3)
        assert all(not f.words.any() for f in bins.filters)
        assert all(query(bins, r) == 2 for r in range(3))

    def test_empty_bins_hash_nothing(self, monkeypatch):
        # bin 0 receives no row, so its filter claims nothing and is not
        # queried: only bin 1's filter hashes the rows, through the probe
        # kernel, which gets one probe's prefix or a column of them
        bins = build_bins(profile_of([130.0, 300.0, 140.0]), BinConfig(), BASE_MS, 1e-3)
        assert bins.counts == (0, 2, 1)
        prefixes = []
        probe_positions = bloom._probe_positions

        def counting(prefix, keys, m):
            prefixes.extend(np.ravel(prefix).tolist())
            return probe_positions(prefix, keys, m)

        monkeypatch.setattr(bloom, "_probe_positions", counting)
        rows = np.arange(1000, dtype=np.uint64)
        claims = bins.claims(rows)
        assert claims[0].dtype == np.intp and claims[0].size == 0
        assert {0, 2} <= set(claims[1].tolist())
        params = bins.filters[1].params
        assert prefixes and set(prefixes) <= {rng.hash_words(params.seed, i + 1) for i in range(params.k)}

    def test_unbinnable_row(self):
        with pytest.raises(UnbinnableRowError) as err:
            build_bins(profile_of([50.0, 130.0]), BinConfig(), BASE_MS, 1e-3)
        assert err.value.row == 0
        assert err.value.count == 1
        assert err.value.base_ms == BASE_MS

    def test_base_sets_the_unbinnable_bound_and_the_intervals(self):
        bins = build_bins(profile_of([50.0, 130.0]), BinConfig(thresholds_ms=(64.0, 128.0)), 32.0)
        assert bins.counts == (1, 0, 1)
        assert bins.intervals_ms == (32.0, 64.0, 128.0)
        assert bins.multipliers == (1, 2, 4)

    def test_explicit_params_budget(self):
        params = BloomParams(m=512, k=4, seed=77)
        bins = build_bins(profile_of([70.0, 130.0, 300.0]), BinConfig(), BASE_MS, params)
        assert all(f.params == params for f in bins.filters)

    def test_deterministic_build(self):
        vals = [70.0, 90.0, 130.0, 200.0, 300.0, 2000.0]
        a = build_bins(profile_of(vals), BinConfig(), BASE_MS, 1e-3, seed=5)
        b = build_bins(profile_of(vals), BinConfig(), BASE_MS, 1e-3, seed=5)
        for fa, fb in zip(a.filters, b.filters):
            assert np.array_equal(fa.words, fb.words)


class TestQueryOrder:
    def test_inserted_row_always_its_bin_or_shorter(self):
        rng_cases = np.linspace(64.0, 255.9, 500)
        bins = build_bins(profile_of(rng_cases), BinConfig(), BASE_MS, 1e-3)
        idx = bins.bin_cfg.classify(rng_cases)
        queried = query_many(bins, np.arange(500, dtype=np.uint64))
        assert np.all(queried <= idx)  # safety direction

    def test_first_claims_matches_scalar(self):
        vals = np.concatenate([np.linspace(64, 255, 64), np.full(200, 2560.0)])
        bins = build_bins(profile_of(vals), BinConfig(), BASE_MS, 1e-2)
        rows = np.arange(vals.size, dtype=np.uint64)
        vec = query_many(bins, rows)
        assert [query(bins, int(r)) for r in rows] == list(vec)

    def test_default_rows_false_positive_rate(self):
        # large default population probed against smaller bins: the measured
        # demotion rate tracks the analytic filter FPRs (generous MC band,
        # since per-realization FPR spread is wide for small filters)
        n_weak, n_strong = 1200, 60_000
        vals = np.concatenate([
            np.linspace(64.0, 255.9, n_weak),
            np.full(n_strong, 2560.0),
        ])
        bins = build_bins(profile_of(vals), BinConfig(), BASE_MS, 1e-3, seed=3)
        strong_rows = np.arange(n_weak, n_weak + n_strong, dtype=np.uint64)
        queried = query_many(bins, strong_rows)
        demoted = float(np.count_nonzero(queried != 2) / n_strong)
        expected = sum(analytic_fpr(f.params.m, f.params.k, c)
                       for f, c in zip(bins.filters, bins.counts[:2]))
        assert demoted <= 3.0 * expected
        assert demoted >= expected / 3.0


def run_bins_only(num_rows, dist, horizon=64):
    return RefreshSimulation(ExperimentSpec(
        device=DeviceConfig.from_rows(num_rows), dist=dist, sim=SimConfig(horizon_windows=horizon),
    )).run()


class TestSavings:
    def test_all_default_bin_75_percent(self):
        # the all-strong limit with zero realized false positives
        rep = run_bins_only(4096, RetentionDistribution(weak_fraction=0.0))
        assert rep.savings_fraction == 0.75

    def test_all_bin0_zero_savings(self):
        all_bin0 = RetentionDistribution(weak_fraction=1.0, floor_ms=64.0, weak_high_ms=128.0)
        rep = run_bins_only(256, all_bin0)
        assert rep.savings_fraction == 0.0

    def test_closed_form_matches_window_count(self):
        # direct window-by-window counting vs the per-row ceil formula
        n = 10_000
        dev = DeviceConfig.from_rows(n)
        gt = ground_truth(
            dev, RetentionDistribution(weak_fraction=1e-3), VrtModel(), DpdModel(), seed=2
        )
        prof = profile(gt, ProfilerConfig())
        bins = build_bins(prof, BinConfig(), dev.trefw_ms, 1e-3, seed=2)
        horizon = 16
        mult = np.asarray(bins.multipliers)[query_many(bins, np.arange(n, dtype=np.uint64))]
        direct = sum(int(np.count_nonzero(w % mult == 0)) for w in range(horizon))
        closed = int(refreshes_in_horizon(horizon, mult).sum())
        assert direct == closed

    def test_monotone_cost_when_rows_move_to_shorter_bins(self):
        n = 1000
        slow = run_bins_only(n, RetentionDistribution(weak_fraction=0.0))
        fast = run_bins_only(
            n, RetentionDistribution(weak_fraction=0.1, floor_ms=64.0, weak_high_ms=128.0)
        )
        assert fast.bin_counts[0] > 0
        assert fast.savings_fraction <= slow.savings_fraction


@given(st.lists(st.floats(min_value=64.0, max_value=4096.0), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_query_interval_never_longer_than_profiled(vals):
    bins = build_bins(profile_of(vals), BinConfig(), BASE_MS, 1e-2)
    intervals = np.asarray(bins.intervals_ms)
    queried_iv = intervals[query_many(bins, np.arange(len(vals), dtype=np.uint64))]
    profiled_iv = intervals[bins.bin_cfg.classify(np.asarray(vals))]
    assert np.all(queried_iv <= profiled_iv)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_blocks_build_the_filters_of_their_dense_form(data):
    # a block's plain rows join the plain value's bin, a filter bin
    # included, beside the own rows of that bin and no others; any cut of
    # the device into blocks builds the filters of its one dense block
    n = data.draw(st.integers(1, 60))
    values = st.sampled_from([70.0, 100.0, 130.0, 200.0, 300.0, 2560.0])
    plain = data.draw(values)
    own = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    dense = np.array([data.draw(values) if o else plain for o in own])
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        at = np.flatnonzero(own[lo:hi])
        blocks.append(SparseRows(lo, hi - lo, plain, at, dense[lo:hi][at]))
    sparse = bin_blocks(blocks, BinConfig(), BASE_MS, 1e-3, seed=3)
    full = build_bins(dense, BinConfig(), BASE_MS, 1e-3, seed=3)
    assert sparse.counts == full.counts
    for a, b in zip(sparse.filters, full.filters):
        assert a.params == b.params
        assert np.array_equal(a.words, b.words)


DENSITIES = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_member_forms_round_trip_in_the_smaller_form(data):
    # offsets take one byte per member in a block of up to 256 rows, two
    # beyond; a bitmap takes a bit per row of the block.  Members given as
    # offsets or as a mask pack alike, and unpack to device indices
    n = data.draw(st.sampled_from([1, 7, 8, 9, 255, 256, 257, 1000, 1 << 16]))
    density = data.draw(st.sampled_from(DENSITIES))
    mask = np.random.default_rng(data.draw(st.integers(0, 2**32))).random(n) < density
    offsets = np.flatnonzero(mask)
    start = data.draw(st.integers(0, 2**40))
    offset_bytes = offsets.size * (1 if n <= 256 else 2)
    for members in (offsets, mask):
        bitmap, packed = pack_members(members, n)
        assert bitmap == (offset_bytes > -(-n // 8))
        assert packed.nbytes == min(offset_bytes, -(-n // 8))
        rows = member_rows(start, n, bitmap, packed)
        assert rows.dtype == np.uint64
        assert rows.tolist() == (offsets + start).tolist()


@st.composite
def member_blocks(draw):
    """SparseRows blocks that cover a device in row order, and each row's value.

    Blocks hold 200 or 300 rows, so offsets take one byte or two, and the
    last one is often short.  Each block has its own plain value and its
    own rows at one of DENSITIES, so a bin's members in a block run from
    none to every row of it (the plain rows binned, no own row elsewhere),
    and fall on either side of the switch between the two forms.
    """
    size = draw(st.sampled_from([200, 300]))
    sizes = [size] * draw(st.integers(0, 3)) + [draw(st.integers(1, size))]
    values = [70.0, 100.0, 130.0, 200.0, 300.0, 2560.0]
    seed = draw(st.integers(0, 2**32))
    rand = np.random.default_rng(seed)
    blocks, dense, start = [], [], 0
    for n in sizes:
        plain = draw(st.sampled_from(values))
        at = np.flatnonzero(rand.random(n) < draw(st.sampled_from(DENSITIES)))
        own = rand.choice(values, size=at.size)
        blocks.append(SparseRows(start, n, plain, at, own))
        block = np.full(n, plain)
        block[at] = own
        dense.append(block)
        start += n
    return blocks, np.concatenate(dense)


@given(member_blocks())
@settings(max_examples=100, deadline=None)
def test_member_forms_build_the_filters_of_a_flat_member_list(case):
    # each filter is built from offsets and bitmaps, a quarter block at a
    # time; inserting its bin's rows in one flat list sets the same words
    blocks, dense = case
    cfg = BinConfig()
    bins = bin_blocks(blocks, cfg, BASE_MS, 1e-3, seed=5)
    of_row = cfg.classify(dense)
    assert bins.counts == tuple(np.bincount(of_row, minlength=cfg.num_filter_bins + 1).tolist())
    for b, filt in enumerate(bins.filters):
        flat = BloomFilter(filt.params)
        flat.insert_many(np.flatnonzero(of_row == b).astype(np.uint64))
        assert np.array_equal(filt.words, flat.words)
