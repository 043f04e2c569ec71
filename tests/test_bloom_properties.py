import numpy as np
from hypothesis import example, given, settings, strategies as st

from raidrsim import rng
from raidrsim.bloom import BloomFilter, BloomParams, analytic_fpr, plan_params

params_st = st.builds(
    BloomParams,
    m=st.integers(min_value=1, max_value=4096),
    k=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
keys_st = st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=64)


@given(params_st, keys_st)
@settings(max_examples=60, deadline=None)
def test_no_false_negatives(params, keys):
    f = BloomFilter(params)
    for key in keys:
        f.insert(key)
    assert all(f.contains(key) for key in keys)


@given(params_st, keys_st, st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_monotone_bits_and_membership(params, keys, probe):
    f = BloomFilter(params)
    seen = f.contains(probe)
    prev_words = f.words.copy()
    for key in keys:
        f.insert(key)
        assert np.all(f.words & prev_words == prev_words)  # no bit ever clears
        now = f.contains(probe)
        assert now or not seen  # membership never flips true -> false
        seen = now
        prev_words = f.words.copy()


@given(params_st, keys_st)
@settings(max_examples=40, deadline=None)
def test_popcount_bound(params, keys):
    f = BloomFilter(params)
    for key in keys:
        f.insert(key)
    bits_set = int(np.unpackbits(f.words.view(np.uint8)).sum())
    assert bits_set <= min(params.m, params.k * len(keys))


@given(params_st, keys_st)
@settings(max_examples=30, deadline=None)
def test_deterministic_rebuild(params, keys):
    a = BloomFilter(params)
    b = BloomFilter(params)
    for key in keys:
        a.insert(key)
        b.insert(key)
    assert np.array_equal(a.words, b.words)


@given(
    st.floats(min_value=1e-6, max_value=0.9),
    st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=60, deadline=None)
def test_plan_meets_target(target, n):
    p = plan_params(target, n)
    assert analytic_fpr(p.m, p.k, n) <= target


@given(st.integers(min_value=2, max_value=10_000), st.integers(min_value=1, max_value=32))
@settings(max_examples=60, deadline=None)
def test_fpr_monotone_in_n(m, k):
    values = [analytic_fpr(m, k, n) for n in (0, 1, 2, 4, 64)]
    assert values == sorted(values)
    assert all(0.0 <= v <= 1.0 for v in values)



small_params_st = st.builds(
    BloomParams,
    m=st.one_of(st.integers(min_value=1, max_value=300), st.sampled_from([1, 2, 64, 128, 256])),
    k=st.one_of(st.just(1), st.integers(min_value=1, max_value=64)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


@given(
    small_params_st,
    # inserted keys: from an empty filter to one with every bit set
    st.one_of(st.integers(min_value=0, max_value=100), st.just(2000)),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@example(BloomParams(m=1, k=1), 0, 0, 0)  # empty keys
@settings(max_examples=150, deadline=None)
def test_contains_many_matches_scalar_contains(params, n_inserted, n_probes, probe_seed):
    f = BloomFilter(params)
    inserted = rng.hash_words_vec(params.seed, np.arange(n_inserted, dtype=np.uint64))
    f.insert_many(inserted)
    probes = rng.hash_words_vec(probe_seed, np.arange(n_probes, dtype=np.uint64))
    keys = np.concatenate([probes, inserted[:16]])
    assert f.contains_many(keys).tolist() == [f.contains(int(key)) for key in keys]
