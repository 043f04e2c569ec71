"""Bloom filters used to store retention bins, plus sizing tools.

The hash family is enhanced double hashing: position i of a key is
(g1 + i * g2 + C(i,3)) mod 2**64 mod m, where g1 and g2 are the hashes
rng.hash_words(seed, 1, key) and rng.hash_words(seed, 2, key).  The
cubic term breaks the arithmetic-progression structure of plain double
hashing, whose false-positive rate runs several times above the
analytic value for filters a few hundred bits long.  When
m is a power of two, g2 is forced odd so the probe sequence walks the
whole table; otherwise g2 is reduced mod m and bumped away from zero.
Bits live in packed 64-bit words (bit i sits in word i // 64 at position
i % 64).

Batch queries exit early per key: probe 0 needs only g1, and each later
probe runs over just the keys every earlier probe found set.  At the
planned fill about half the keys survive each probe, so a batch costs
about 2n probes and one g2 hash per surviving key instead of k*n probes
and two hashes per key.  The survivors of the last probe are the batch's
answer: claimed() returns their offsets, which stay ascending.

What a probe costs is the numpy passes it makes, not their number of
calls, so each step is one cheap pass over an array the kernel owns.  A
position is reduced as x - (x // m) * m: numpy divides by a scalar with
a multiply and shifts, where % runs a hardware divide per element.  The
bit is a byte gathered with take() through an intp index view, then
shifted and masked in place in u8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import hash_words_vec

_MASK = (1 << 64) - 1

MAX_HASHES = 64
DEFAULT_PLAN_CEILING_BITS = 2**32


class PlanUnsatisfiableError(ValueError):
    """Raised when no filter within the bit ceiling can meet the FPR target."""


def _probe_offset(i: int) -> int:
    # C(i,3): the enhanced-double-hashing cubic term
    return (i * (i - 1) * (i - 2)) // 6


@dataclass(frozen=True)
class BloomParams:
    """Filter geometry: m bits, k hash functions, hash-family seed."""

    m: int
    k: int
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"bloom m must be >= 1, got {self.m}")
        if not 1 <= self.k <= MAX_HASHES:
            raise ValueError(f"bloom k must be in [1, {MAX_HASHES}], got {self.k}")
        if not 0 <= self.seed <= _MASK:
            raise ValueError("bloom seed must fit in 64 bits")


class BloomFilter:
    """Append-only membership filter over 64-bit keys.

    No deletion and no counting: bins are built once per profiling pass.
    After construction and inserts the filter is immutable in practice and
    may be probed concurrently.
    """

    __slots__ = ("params", "words")

    def __init__(self, params: BloomParams):
        self.params = params
        self.words = np.zeros((params.m + 63) // 64, dtype=np.uint64)

    # -- hashing ---------------------------------------------------------

    def _g2_vec(self, keys: np.ndarray) -> np.ndarray:
        m = self.params.m
        g2 = hash_words_vec(self.params.seed, 2, keys)
        if m & (m - 1) == 0:
            g2 |= np.uint64(1)
        else:
            g2 = _mod(g2, np.uint64(m))
            np.maximum(g2, np.uint64(1), out=g2)  # 0 becomes 1
        return g2

    # -- mutation --------------------------------------------------------

    def insert_many(self, keys: np.ndarray) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        g1 = hash_words_vec(self.params.seed, 1, keys)
        g2 = self._g2_vec(keys)
        for i in range(self.params.k):
            pos = _probe_positions(g1, g2, i, self.params.m)
            np.bitwise_or.at(
                self.words,
                (pos >> np.uint64(6)).view(np.intp),
                np.uint64(1) << (pos & np.uint64(63)),
            )

    # -- queries ---------------------------------------------------------

    def _bits_at(self, pos: np.ndarray) -> np.ndarray:
        """The filter's bit at each position, as bool; pos is overwritten.

        Bit i is bit i % 8 of byte i // 8 in the little-endian word layout,
        and byte gathers and shifts run several times faster than 64-bit
        ones.  pos >> 3 is gathered through an intp view, which spares
        take() a conversion of the whole index array; the view is safe
        because every position is below m, so pos >> 3 indexes the
        filter's own bytes.
        """
        octets = np.ascontiguousarray(self.words, dtype="<u8").view(np.uint8)
        shift = pos.astype(np.uint8)
        shift &= np.uint8(7)
        pos >>= np.uint64(3)
        byte = octets.take(pos.view(np.intp))
        byte >>= shift
        byte &= np.uint8(1)
        return byte.view(bool)

    def claimed(self, keys: np.ndarray) -> np.ndarray:
        """The flat offsets of the keys that are members, ascending, probe by probe over the keys still unrejected.

        Probe 0 is g1 mod m (C(0,3) = 0), so g2 is hashed only for the keys
        that pass it, and each later probe sees only the survivors of the
        one before.  Positions are those insert_many sets.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1)
        m = self.params.m
        g1 = hash_words_vec(self.params.seed, 1, keys)
        live = np.flatnonzero(self._bits_at(_probe_positions(g1, None, 0, m)))
        if self.params.k > 1 and live.size:
            g1 = g1[live]
            g2 = self._g2_vec(keys[live])
            for i in range(1, self.params.k):
                keep = np.flatnonzero(self._bits_at(_probe_positions(g1, g2, i, m)))
                live, g1, g2 = live[keep], g1[keep], g2[keep]
                if not live.size:
                    break
        return live


def _mod(x: np.ndarray, m: np.uint64) -> np.ndarray:
    """x % m for a uint64 array x, computed as x - (x // m) * m in one new array.

    numpy divides by a scalar with a multiply and shifts, while % runs a
    hardware divide per element; the remainder is the same.
    """
    r = x // m
    r *= m
    np.subtract(x, r, out=r)
    return r


def _probe_positions(g1: np.ndarray, g2: np.ndarray | None, i: int, m: int) -> np.ndarray:
    """Probe i of every key, (g1 + i*g2 + C(i,3)) mod 2**64 mod m, in a new array.

    The one probe kernel, which both insert_many and claimed use;
    g2 is not read for probe 0.
    """
    if i == 0:
        return _mod(g1, np.uint64(m))
    pos = g2 * np.uint64(i)  # array arithmetic wraps mod 2**64
    pos += g1
    offset = _probe_offset(i)
    if offset:
        pos += np.uint64(offset)
    return _mod(pos, np.uint64(m))


def analytic_fpr(m: int, k: int, n: int) -> float:
    """Expected false-positive probability after n inserts: (1-(1-1/m)^(k n))^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0
    if m == 1:
        return 1.0
    return (1.0 - math.exp(k * n * math.log1p(-1.0 / m))) ** k


def _k_for(m: int, n: int) -> int:
    # conventional rounding; round() would banker-round .5 cases
    return max(1, min(MAX_HASHES, int(math.floor(m / n * math.log(2) + 0.5))))


def plan_params(
    target_fpr: float,
    n_expected: int,
    seed: int = 0,
    ceiling_bits: int = DEFAULT_PLAN_CEILING_BITS,
) -> BloomParams:
    """Smallest m (with k = round(m/n * ln 2)) whose analytic FPR meets target_fpr.

    Starts from the closed-form optimum m = ceil(-n ln p / (ln 2)^2) and
    searches locally, since rounding k perturbs the exact boundary.  The C
    library's math functions give the FPRs: m is platform-dependent only
    where an FPR lands within an ulp of target_fpr.
    """
    if not 0.0 < target_fpr < 1.0:
        raise ValueError("target_fpr must be in (0, 1)")
    if n_expected < 1:
        raise ValueError("n_expected must be >= 1")

    m = max(1, math.ceil(-n_expected * math.log(target_fpr) / math.log(2) ** 2))
    if analytic_fpr(m, _k_for(m, n_expected), n_expected) > target_fpr:
        # grow geometrically until feasible, then bisect back
        lo, hi = m, m
        while analytic_fpr(hi, _k_for(hi, n_expected), n_expected) > target_fpr:
            hi *= 2
            if hi > ceiling_bits:
                raise PlanUnsatisfiableError(
                    f"no filter below {ceiling_bits} bits meets fpr {target_fpr} at n={n_expected}"
                )
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if analytic_fpr(mid, _k_for(mid, n_expected), n_expected) <= target_fpr:
                hi = mid
            else:
                lo = mid
        m = hi
    # k rounding makes feasibility only near-monotone in m; finish locally
    while m > 1 and analytic_fpr(m - 1, _k_for(m - 1, n_expected), n_expected) <= target_fpr:
        m -= 1
    if m > ceiling_bits:
        raise PlanUnsatisfiableError(
            f"required {m} bits exceeds ceiling {ceiling_bits} for fpr {target_fpr}, n={n_expected}"
        )
    return BloomParams(m=m, k=_k_for(m, n_expected), seed=seed)
