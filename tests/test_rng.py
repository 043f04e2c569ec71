import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raidrsim import rng
from raidrsim.bloom import BloomFilter, BloomParams

from reference_sim import uniform01


def test_scalar_vector_agreement():
    rows = np.arange(2000, dtype=np.uint64)
    vec = rng.hash_words_vec(987654321, 5, rows, 17)
    for r in (0, 1, 2, 999, 1999):
        assert int(vec[r]) == rng.hash_words(987654321, 5, r, 17)


def test_uniform_scalar_vector_agreement():
    rows = np.arange(512, dtype=np.uint64)
    vec = rng.uniform01_vec(2**63 + 3, 9, rows)
    for r in (0, 100, 511):
        assert float(vec[r]) == uniform01(2**63 + 3, 9, r)


def test_extend_hash_matches_full_hash():
    rows = np.arange(3000, dtype=np.uint64)
    prefix = rng.hash_words_vec(2**64 - 5, rng.TAG_VRT_STEP, rows)
    for window in (0, 1, 17, 4095, 2**64 - 1):
        ext = rng.extend_hash_vec(prefix, window)
        assert np.array_equal(ext, rng.hash_words_vec(2**64 - 5, rng.TAG_VRT_STEP, rows, window))
        for r in (0, 1, 2999):
            assert int(ext[r]) == rng.hash_words(2**64 - 5, rng.TAG_VRT_STEP, r, window)
        assert np.array_equal(
            rng.uniform01_of(ext), rng.uniform01_vec(2**64 - 5, rng.TAG_VRT_STEP, rows, window)
        )


@given(
    seed=st.integers(0, 2**64 - 1),
    rows=st.integers(0, 40),
    windows=st.lists(st.integers(0, 2**64 - 1), max_size=70),
)
@settings(max_examples=60, deadline=None)
def test_extend_hash_over_a_column_of_windows(seed, rows, windows):
    # one call over a (windows, 1) column equals one call per window, line by line
    prefix = rng.hash_words_vec(seed, rng.TAG_VRT_STEP, np.arange(rows, dtype=np.uint64))
    before = prefix.tobytes()
    column = np.array(windows, dtype=np.uint64)[:, None]
    tile = rng.extend_hash_vec(prefix, column)
    assert tile.shape == (len(windows), rows) and tile.dtype == np.uint64
    for line, w in zip(tile, windows):
        assert np.array_equal(line, rng.extend_hash_vec(prefix, w))
    assert prefix.tobytes() == before
    assert np.array_equal(column, np.array(windows, dtype=np.uint64)[:, None])


def test_order_sensitivity():
    assert rng.hash_words(1, 2) != rng.hash_words(2, 1)
    assert rng.hash_words(0) != rng.hash_words(0, 0)


def test_determinism_across_calls():
    a = rng.hash_words_vec(3, np.arange(100, dtype=np.uint64))
    b = rng.hash_words_vec(3, np.arange(100, dtype=np.uint64))
    assert np.array_equal(a, b)


def test_uniform_range_and_moments():
    u = rng.uniform01_vec(77, np.arange(200_000, dtype=np.uint64))
    assert u.min() >= 0.0 and u.max() < 1.0
    # 4-sigma bands for 2e5 samples of U[0,1)
    assert abs(u.mean() - 0.5) < 4 * (1 / 12) ** 0.5 / 200_000**0.5
    assert abs(u.var() - 1 / 12) < 0.002


def test_tags_are_distinct():
    # two quantities sharing a tag would draw from the same per-row stream
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(tags) >= 8
    assert len(set(tags.values())) == len(tags)


def test_normal_moments():
    z = rng.standard_normal_vec(11, np.arange(100_000, dtype=np.uint64))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_known_value_pinned():
    # cross-platform regression pin for the stream definition
    assert rng.hash_words(0) == rng.mix64(0x9E3779B97F4A7C15)
    assert rng.hash_words(1, 2, 3) == rng.hash_words(1, 2, 3)


def _extremes(dtype) -> np.ndarray:
    info = np.iinfo(dtype)
    values = [0, 1, 2, 100, info.max, info.max // 3, info.min, info.min // 3, -1]
    return np.array([v for v in values if info.min <= v <= info.max], dtype=dtype)


ARRAY_WORDS = {
    "uint64": _extremes(np.uint64),
    "int64": _extremes(np.int64),
    "uint32": _extremes(np.uint32),
    "int8": _extremes(np.int8),
    "bool": np.array([False, True, True, False]),
    # every other element of a reversed int64 array, negatives included
    "strided": np.arange(-(2**62), 2**62, 2**59, dtype=np.int64)[::-2],
    "0-d": np.asarray(np.int64(-(2**63))),
}


@pytest.mark.parametrize("kind", list(ARRAY_WORDS))
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_vec_matches_scalar_wherever_the_array_word_sits(kind, at):
    # each element wraps to 64 bits as hash_words masks an int: signed
    # words by two's complement, never through float64
    arr = ARRAY_WORDS[kind]
    scalars = [2**64 - 1, 7]
    words = {"first": [arr, *scalars], "middle": [scalars[0], arr, scalars[1]], "last": [*scalars, arr]}[at]
    vec = rng.hash_words_vec(*words)
    assert isinstance(vec, np.ndarray) and vec.dtype == np.uint64 and vec.shape == arr.shape
    for e, got in zip(arr.reshape(-1).tolist(), vec.reshape(-1).tolist()):
        assert got == rng.hash_words(*(e if w is arr else w for w in words))


def test_vec_of_a_0d_word():
    zero_d = np.asarray(np.int64(-3))
    for words in [(zero_d,), (5, zero_d), (zero_d, 9), (5, zero_d, 9)]:
        vec = rng.hash_words_vec(*words)
        assert isinstance(vec, np.ndarray) and vec.shape == ()
        assert int(vec) == rng.hash_words(*(-3 if w is zero_d else w for w in words))
    ext = rng.extend_hash_vec(rng.hash_words_vec(5, zero_d), 11)
    assert isinstance(ext, np.ndarray) and int(ext) == rng.hash_words(5, -3, 11)


def test_vec_rejects_a_second_array_word():
    # a 0-d or one-element array would otherwise pass int() and hash as a scalar;
    # extend_hash_vec is the way to hash in a second array
    rows = np.arange(10, dtype=np.uint64)
    for words in [(rows, rows), (3, rows, 4, np.asarray(np.uint64(5))), (rows, 1, rows[:1])]:
        with pytest.raises(TypeError, match="one array word"):
            rng.hash_words_vec(*words)


def test_all_scalar_vec_is_a_0d_array():
    vec = rng.hash_words_vec(1, 2, 2**64 - 1)
    assert isinstance(vec, np.ndarray) and vec.shape == () and vec.dtype == np.uint64
    assert int(vec) == rng.hash_words(1, 2, 2**64 - 1)


def test_kernels_leave_their_inputs_unchanged():
    # the engine passes its own arrays, such as _v_prefix, to these kernels
    arrays = [
        np.arange(1000, dtype=np.uint64) * np.uint64(2654435761),
        np.arange(-500, 500, dtype=np.int64),
        np.arange(1000, dtype=np.uint32),
        np.asarray(np.uint64(42)),
    ]
    for arr in arrays:
        before = arr.tobytes()
        rng.hash_words_vec(3, arr, 4)
        rng.hash_words_vec(arr)
        assert arr.tobytes() == before
    prefix = rng.hash_words_vec(9, rng.TAG_VRT_STEP, np.arange(1000, dtype=np.uint64))
    before = prefix.tobytes()
    rng.extend_hash_vec(prefix, 17)
    assert prefix.tobytes() == before
    for params in (BloomParams(m=1000, k=7, seed=3), BloomParams(m=1024, k=7, seed=3)):
        f = BloomFilter(params)
        keys = rng.hash_words_vec(5, np.arange(300, dtype=np.uint64))
        before = keys.tobytes()
        f.insert_many(keys)
        f.claimed(keys)
        assert keys.tobytes() == before
