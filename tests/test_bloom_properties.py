import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from raidrsim import rng
from raidrsim.bloom import (
    DEFAULT_PLAN_CEILING_BITS,
    TABLE_MAX_BITS,
    BloomFilter,
    BloomParams,
    _mod,
    analytic_fpr,
    plan_params,
)

from reference_sim import contains

params_st = st.builds(
    BloomParams,
    m=st.integers(min_value=1, max_value=4096),
    k=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
keys_st = st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=64)


def insert(f: BloomFilter, *keys: int) -> None:
    f.insert_many(np.array(keys, dtype=np.uint64))


def member(f: BloomFilter, key: int) -> bool:
    return f.claimed(np.array([key], dtype=np.uint64)).size == 1


@given(params_st, keys_st)
@settings(max_examples=60, deadline=None)
def test_no_false_negatives(params, keys):
    f = BloomFilter(params)
    insert(f, *keys)
    assert f.claimed(np.array(keys, dtype=np.uint64)).size == len(keys)


@given(params_st, keys_st, st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_monotone_bits_and_membership(params, keys, probe):
    f = BloomFilter(params)
    seen = member(f, probe)
    prev_words = f.words.copy()
    for key in keys:
        insert(f, key)
        assert np.all(f.words & prev_words == prev_words)  # no bit ever clears
        now = member(f, probe)
        assert now or not seen  # membership never flips true -> false
        seen = now
        prev_words = f.words.copy()


@given(params_st, keys_st)
@settings(max_examples=40, deadline=None)
def test_popcount_bound(params, keys):
    f = BloomFilter(params)
    for key in keys:
        insert(f, key)
    bits_set = int(np.unpackbits(f.words.view(np.uint8)).sum())
    assert bits_set <= min(params.m, params.k * len(keys))


@given(params_st, keys_st)
@settings(max_examples=30, deadline=None)
def test_deterministic_rebuild(params, keys):
    a = BloomFilter(params)
    b = BloomFilter(params)
    insert(a, *keys)
    for key in keys:
        insert(b, key)
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



def _remainder_cases(m: int) -> np.ndarray:
    # both ends of the word, and each side of a few multiples of m up to the top
    near = [c * m + d for c in (1, 2, 3, (2**64 - 1) // m) for d in (-1, 0, 1)]
    return np.array([x for x in [0, 1, 2**64 - 1, *near] if 0 <= x < 2**64], dtype=np.uint64)


@pytest.mark.parametrize("m", [1, 2, 3, 2**31 - 1, DEFAULT_PLAN_CEILING_BITS])
def test_remainder_matches_mod(m):
    x = _remainder_cases(m)
    assert _mod(x, np.uint64(m)).tolist() == [int(v) % m for v in x.tolist()]


@given(st.integers(min_value=1, max_value=2**64 - 1), st.lists(st.integers(0, 2**64 - 1), max_size=32))
@settings(max_examples=100, deadline=None)
def test_remainder_matches_mod_for_random_m(m, extra):
    x = np.concatenate([_remainder_cases(m), np.array(extra, dtype=np.uint64)])
    before = x.tobytes()
    assert _mod(x, np.uint64(m)).tolist() == [int(v) % m for v in x.tolist()]
    assert x.tobytes() == before


small_params_st = st.builds(
    BloomParams,
    m=st.one_of(
        st.integers(min_value=1, max_value=300),
        st.sampled_from([1, 2, 64, 128, 256]),
        # powers of two divide 2**64, so mod m keeps a hash's low bits; the larger
        # m spread the gathers over many pages
        st.integers(min_value=0, max_value=20).map(lambda e: 2**e),
        st.integers(min_value=301, max_value=2**20),
    ),
    k=st.one_of(st.just(1), st.integers(min_value=1, max_value=64)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


def probe_cases(test):
    """Draw a filter, how many keys it holds, how many fresh keys to probe and their seed."""
    test = settings(max_examples=150, deadline=None)(test)
    test = example(BloomParams(m=2**20 - 3, k=5, seed=1), 2000, 200, 7)(test)
    # the largest filter tested through a byte table, and the smallest tested packed
    test = example(BloomParams(m=TABLE_MAX_BITS, k=5, seed=1), 2000, 200, 7)(test)
    test = example(BloomParams(m=TABLE_MAX_BITS + 1, k=5, seed=1), 2000, 200, 7)(test)
    test = example(BloomParams(m=2**20, k=5, seed=1), 2000, 200, 7)(test)
    test = example(BloomParams(m=1, k=1), 0, 0, 0)(test)  # empty keys
    return given(
        small_params_st,
        # inserted keys: from an empty filter to one with every bit set
        st.one_of(st.integers(min_value=0, max_value=100), st.just(2000)),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=2**64 - 1),
    )(test)


def filter_and_probes(params, n_inserted, n_probes, probe_seed):
    """A filter of params holding n_inserted keys, and fresh probe keys followed by up to 16 inserted ones."""
    f = BloomFilter(params)
    inserted = rng.hash_words_vec(params.seed, np.arange(n_inserted, dtype=np.uint64))
    f.insert_many(inserted)
    probes = rng.hash_words_vec(probe_seed, np.arange(n_probes, dtype=np.uint64))
    return f, np.concatenate([probes, inserted[:16]])


@probe_cases
def test_contains_many_matches_scalar_contains(params, n_inserted, n_probes, probe_seed):
    # membership as a mask over the keys: a batch claimed() and one claimed()
    # per key both agree with the scalar contains
    f, keys = filter_and_probes(params, n_inserted, n_probes, probe_seed)
    mask = np.zeros(keys.size, dtype=bool)
    mask[f.claimed(keys)] = True
    expected = [contains(f, int(key)) for key in keys]
    assert mask.tolist() == expected
    assert [member(f, int(key)) for key in keys] == expected


@probe_cases
def test_claimed_offsets_are_the_scalar_members(params, n_inserted, n_probes, probe_seed):
    # the offsets form the engine queries: ascending positions of the keys
    # whose every scalar probe finds its bit set
    f, keys = filter_and_probes(params, n_inserted, n_probes, probe_seed)
    claimed = f.claimed(keys)
    assert claimed.dtype == np.intp
    assert claimed.tolist() == [i for i, key in enumerate(keys) if contains(f, int(key))]
