"""Bloom filters used to store retention bins, plus sizing tools.

Probe i of a key is rng.hash_words(seed, i + 1, key) mod m: every probe
is a hash of its own, so a filter realizes the independent-probe FPR
that plan_params sizes it by.  Bits live in packed 64-bit words (bit i
sits in word i // 64 at position i % 64).

Batch queries exit early per key: each probe hashes only the keys every
earlier probe found set.  At fill f a key survives a probe with
probability f, so a query hashes about 1/(1 - f) times per key, and an
insert hashes k times per key.  The survivors of the last probe are the
batch's answer: claimed() returns their offsets, which stay ascending.

What a probe costs is the numpy passes it makes, not their number of
calls, so each step is one cheap pass over an array the kernel owns.  A
position is reduced as x - (x // m) * m: numpy divides by a scalar with
a multiply and shifts, where % runs a hardware divide per element.

A filter of at most TABLE_MAX_BITS bits tests a bit with one take() from
a byte-per-bit bool table, unpacked from the words on the first query
after the last insert: one gather per probe instead of a gather, a shift
and a mask over packed bytes.  On a 2-vCPU Xeon a 2**16-key query of a
k = 10 filter at its planned fill ran about 11% faster through the table
from 2**15 to 2**18 bits, 6% at 2**19, 1-3% between 2**19 and 2**20, and
slower from 2**20 on, where a table of m bytes gathers from far more
memory than the packed words do.  The bound stops at the sizes shown to
win, and it bounds the table's memory: at most 512 KiB, the size of one
engine block temporary (8 B per row for 2**16 rows).  Filters planned
for many members at a device scale reach 10**8 bits, 13 MB packed and
107 MB as bytes, so a larger filter keeps the packed test: the bit is a
byte gathered with take() through an intp index view, then shifted and
masked in place in u8.  The words stay the filter's one stored state;
the table is derived from them and insert_many drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import hash_words_vec

_MASK = (1 << 64) - 1

MAX_HASHES = 64
DEFAULT_PLAN_CEILING_BITS = 2**32
# the largest filter whose bits are tested through a byte-per-bit table;
# measured to win up to here, and at most one block temporary's size
TABLE_MAX_BITS = 2**19


class PlanUnsatisfiableError(ValueError):
    """Raised when no filter within the bit ceiling can meet the FPR target."""


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
    may be probed concurrently: queries that race to build the bit table
    build the same one.
    """

    __slots__ = ("params", "words", "_table")

    def __init__(self, params: BloomParams):
        self.params = params
        self.words = np.zeros((params.m + 63) // 64, dtype=np.uint64)
        self._table = None  # the byte-per-bit table, built from words on a query

    # -- mutation --------------------------------------------------------

    def insert_many(self, keys: np.ndarray) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        self._table = None
        for i in range(self.params.k):
            pos = _probe_positions(self.params.seed, i, keys, self.params.m)
            np.bitwise_or.at(
                self.words,
                (pos >> np.uint64(6)).view(np.intp),
                np.uint64(1) << (pos & np.uint64(63)),
            )

    # -- queries ---------------------------------------------------------

    def _octets(self) -> np.ndarray:
        """The words' bytes in little-endian order: bit i is bit i % 8 of byte i // 8."""
        return np.ascontiguousarray(self.words, dtype="<u8").view(np.uint8)

    def _bits_at(self, pos: np.ndarray) -> np.ndarray:
        """The filter's bit at each position, as bool; pos may be overwritten.

        A filter of at most TABLE_MAX_BITS bits answers with one take()
        from its byte-per-bit table, built here on the first query after
        the last insert.  A larger one would gain nothing from a table
        eight times its packed size (see the module docstring), so it
        gathers bytes: byte gathers and shifts run several times faster
        than 64-bit ones.  pos >> 3 is gathered through an intp view,
        which spares take() a conversion of the whole index array; the
        view is safe because every position is below m, so pos >> 3
        indexes the filter's own bytes.
        """
        m = self.params.m
        if m <= TABLE_MAX_BITS:
            if self._table is None:
                self._table = np.unpackbits(self._octets(), count=m, bitorder="little").view(bool)
            return self._table.take(pos.view(np.intp))
        shift = pos.astype(np.uint8)
        shift &= np.uint8(7)
        pos >>= np.uint64(3)
        byte = self._octets().take(pos.view(np.intp))
        byte >>= shift
        byte &= np.uint8(1)
        return byte.view(bool)

    def claimed(self, keys: np.ndarray) -> np.ndarray:
        """The flat offsets of the keys that are members, ascending, probe by probe over the keys still unrejected.

        Each probe hashes only the keys that passed the one before, taken
        from keys by their offsets.  Positions are those insert_many sets.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1)
        seed, m = self.params.seed, self.params.m
        live = np.flatnonzero(self._bits_at(_probe_positions(seed, 0, keys, m)))
        for i in range(1, self.params.k):
            if not live.size:
                break
            keep = np.flatnonzero(self._bits_at(_probe_positions(seed, i, keys.take(live), m)))
            live = live.take(keep)
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


def _probe_positions(seed: int, i: int, keys: np.ndarray, m: int) -> np.ndarray:
    """Probe i of every key, hash_words(seed, i + 1, key) mod m, in a new array.

    The one probe kernel, which both insert_many and claimed use.
    """
    return _mod(hash_words_vec(seed, i + 1, keys), np.uint64(m))


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


def plan_params(target_fpr: float, n_expected: int, seed: int = 0) -> BloomParams:
    """Smallest m (with k = round(m/n * ln 2)) whose analytic FPR meets target_fpr.

    Starts from the closed-form optimum m = ceil(-n ln p / (ln 2)^2) and
    searches locally, since rounding k perturbs the exact boundary.  The C
    library's math functions give the FPRs: m is platform-dependent only
    where an FPR lands within an ulp of target_fpr.  It raises
    PlanUnsatisfiableError where m would exceed DEFAULT_PLAN_CEILING_BITS.
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
            if hi > DEFAULT_PLAN_CEILING_BITS:
                raise PlanUnsatisfiableError(
                    f"no filter below {DEFAULT_PLAN_CEILING_BITS} bits meets fpr {target_fpr} at n={n_expected}"
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
    if m > DEFAULT_PLAN_CEILING_BITS:
        raise PlanUnsatisfiableError(
            f"required {m} bits exceeds ceiling {DEFAULT_PLAN_CEILING_BITS} for fpr {target_fpr}, n={n_expected}"
        )
    return BloomParams(m=m, k=_k_for(m, n_expected), seed=seed)
