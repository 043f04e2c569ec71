"""Counter-based deterministic random streams.

Every draw is a pure function of (seed, purpose tag, coordinates), so values
are reproducible across runs and do not depend on the order in which rows
are visited.  The mixer is the splitmix64 finalizer; scalar and vectorized
paths produce bit-identical results.  The hashes and uniforms are the same
bits on every platform; the normal deviates are not: np.log1p and np.cos
return last bits that depend on numpy's version and CPU dispatch.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_V_GAMMA = np.uint64(_GAMMA)
_V_MUL1 = np.uint64(_MUL1)
_V_MUL2 = np.uint64(_MUL2)

# Purpose tags keep the per-row streams for different quantities independent.
TAG_WEAK_SELECT = 0x01
TAG_BASE_RETENTION = 0x02
TAG_VRT_FLAG = 0x04
TAG_VRT_STEP = 0x05
TAG_PROFILE_VRT_STEP = 0x07
TAG_PROFILE_PATTERNS = 0x08
TAG_PROFILER_SEED = 0x09
TAG_FILTER_SEED = 0x0A


def mix64(x: int) -> int:
    """splitmix64 finalizer of a 64-bit word."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK
    return x ^ (x >> 31)


def hash_words(*words: int) -> int:
    """Fold a tuple of integers into one 64-bit hash (order-sensitive)."""
    h = 0
    for w in words:
        h = mix64((h + _GAMMA + (int(w) & _MASK)) & _MASK)
    return h


def _mix64_into(x: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 of every element of the uint64 array x, in place; tmp is scratch of x's shape."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _V_MUL1
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _V_MUL2
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


def hash_words_vec(*words) -> np.ndarray:
    """Vectorized hash_words; at most one word may be a numpy array of integers.

    The scalar words before the array are folded as Python ints by
    hash_words' own chain.  From there the hash is one uint64 array that
    this call owns: every later word is added and mixed in place, so the
    only temporaries are that array and one scratch array, and the input
    array is never written.  Arithmetic intentionally wraps mod 2**64, so
    a call mixing scalars and arrays agrees element-wise with the scalar
    path; array arithmetic wraps without a warning.  An all-scalar call
    returns a 0-d array.  A second array word raises TypeError: hash it in
    with extend_hash_vec, which broadcasts.
    """
    h = 0
    for lead, w in enumerate(words):
        if isinstance(w, np.ndarray):
            break
        h = mix64((h + _GAMMA + (int(w) & _MASK)) & _MASK)
    else:
        return np.array(h, dtype=np.uint64)
    rest = words[lead + 1:]
    if any(isinstance(w, np.ndarray) for w in rest):
        raise TypeError("hash_words_vec takes at most one array word; extend_hash_vec adds another")
    x = words[lead].astype(np.uint64)  # a copy, even of a uint64 array
    x += np.uint64((h + _GAMMA) & _MASK)
    tmp = np.empty_like(x)
    _mix64_into(x, tmp)
    for w in rest:
        x += np.uint64((_GAMMA + int(w)) & _MASK)
        _mix64_into(x, tmp)
    return x


def extend_hash_vec(h: np.ndarray, word) -> np.ndarray:
    """hash_words_vec(*words, word) from h = hash_words_vec(*words).

    Lets a caller that hashes the same prefix every step (a per-row stream
    indexed by window) hash the prefix once.  word may be an integer array
    that broadcasts against h: a column of windows against a row of
    prefixes hashes every (window, row) pair in one call, as a
    (windows, rows) array.  h is left unchanged.
    """
    if isinstance(word, np.ndarray):
        w = word.astype(np.uint64)
        w += _V_GAMMA
    else:
        w = np.uint64((_GAMMA + int(word)) & _MASK)
    x = np.add(h, w, out=np.empty(np.broadcast_shapes(np.shape(h), np.shape(w)), np.uint64))
    _mix64_into(x, np.empty_like(x))
    return x


def uniform01_of(h: np.ndarray) -> np.ndarray:
    """The uniform in [0, 1) that uniform01_vec derives from the hash h."""
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform01_vec(*words) -> np.ndarray:
    return uniform01_of(hash_words_vec(*words))


def uniform_threshold(p: float) -> np.uint64:
    """The k for which uniform01_of(h) < p exactly when h >> 11 < k.

    The uniform is (h >> 11) * 2**-53, and p * 2**53 is exact for p in
    [0, 1], a power-of-two scaling, so `u < p` is `h >> 11 < ceil(p * 2**53)`.
    """
    return np.uint64(math.ceil(p * 2.0**53))


def bernoulli_vec(p: float, *words) -> np.ndarray:
    """uniform01_vec(*words) < p, compared on the integers without forming the uniform."""
    h = hash_words_vec(*words)
    h >>= np.uint64(11)
    return h < uniform_threshold(p)


def standard_normal_vec(*words) -> np.ndarray:
    """Box-Muller normal deviates from two derived uniform streams."""
    u1 = uniform01_vec(*words, 1)
    u2 = uniform01_vec(*words, 2)
    # 1 - u1 lies in (0, 1], keeping the log finite
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
