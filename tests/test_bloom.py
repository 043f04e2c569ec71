import math

import numpy as np
import pytest

from raidrsim import rng
from raidrsim.bloom import (
    TABLE_MAX_BITS,
    BloomFilter,
    BloomParams,
    PlanUnsatisfiableError,
    analytic_fpr,
    plan_params,
)

from reference_sim import contains, probes


def fresh_keys(tag: int, n: int) -> np.ndarray:
    return rng.hash_words_vec(tag, np.arange(n, dtype=np.uint64))


def keys_of(*keys: int) -> np.ndarray:
    return np.array(keys, dtype=np.uint64)


class TestParams:
    def test_empty_construction(self):
        f = BloomFilter(BloomParams(m=64, k=2, seed=7))
        assert not f.words.any()
        assert f.claimed(keys_of(123)).size == 0

    def test_minimal_size(self):
        f = BloomFilter(BloomParams(m=1, k=1, seed=0))
        f.insert_many(keys_of(5))
        assert f.claimed(keys_of(5, 6)).tolist() == [0, 1]  # single bit saturates

    @pytest.mark.parametrize("m,k", [(0, 2), (5, 0), (5, 65), (-1, 1)])
    def test_invalid_params(self, m, k):
        with pytest.raises(ValueError):
            BloomParams(m=m, k=k, seed=7)


class TestInsertContains:
    def test_insert_then_contains(self):
        f = BloomFilter(BloomParams(m=256, k=4, seed=1))
        f.insert_many(keys_of(42))
        assert f.claimed(keys_of(42)).tolist() == [0]

    def test_double_insert_idempotent_bits(self):
        f = BloomFilter(BloomParams(m=256, k=4, seed=1))
        f.insert_many(keys_of(42))
        before = f.words.copy()
        f.insert_many(keys_of(42))
        assert np.array_equal(f.words, before)

    def test_popcount_bound_one_insert(self):
        f = BloomFilter(BloomParams(m=8, k=8, seed=3))
        f.insert_many(keys_of(99))
        assert np.unpackbits(f.words.view(np.uint8)).sum() <= 8

    def test_empty_filter_all_negative(self):
        f = BloomFilter(BloomParams(m=512, k=3, seed=9))
        assert f.claimed(fresh_keys(1, 1000)).size == 0

    @pytest.mark.parametrize("m", [590, TABLE_MAX_BITS, TABLE_MAX_BITS + 1])
    def test_query_between_inserts_sees_the_later_keys(self, m):
        # a query builds the bit table of a small filter; the next insert
        # must not leave it behind the words
        keys = fresh_keys(4, 64)
        f = BloomFilter(BloomParams(m=m, k=4, seed=5))
        f.insert_many(keys[:1])
        for i in range(1, keys.size):
            assert f.claimed(keys[:i]).size == i
            f.insert_many(keys[i:i + 1])
        assert f.claimed(keys).size == keys.size

    def test_insert_many_matches_scalar_inserts(self):
        # insert_many sets exactly the bits of the scalar probe sequence, in
        # a power-of-two filter (odd g2) and in another
        keys = fresh_keys(2, 200)
        for m in (1024, 1000):
            f = BloomFilter(BloomParams(m=m, k=5, seed=4))
            f.insert_many(keys)
            bits = np.zeros(m, dtype=bool)
            for key in keys:
                bits[probes(f.params, int(key))] = True
            assert np.array_equal(np.unpackbits(f.words.view(np.uint8), bitorder="little")[:m].view(bool), bits)

    def test_claimed_matches_scalar(self):
        f = BloomFilter(BloomParams(m=590, k=10, seed=44))
        keys = fresh_keys(3, 400)
        f.insert_many(keys[:150])
        assert f.claimed(keys).tolist() == [i for i, k in enumerate(keys) if contains(f, int(k))]


class TestAnalyticFpr:
    def test_empty_is_zero(self):
        assert analytic_fpr(1024, 4, 0) == 0.0

    def test_single_bit_saturates(self):
        assert analytic_fpr(1, 1, 1) == 1.0

    def test_formula_value(self):
        # (1 - (15/16)^4)^2, from direct evaluation
        assert analytic_fpr(16, 2, 2) == pytest.approx(0.05176708125509322, rel=1e-12)
        assert analytic_fpr(1024, 4, 100) == pytest.approx(0.01095145470342034, rel=1e-12)

    def test_small_filter_fpr_pooled_over_seeds(self):
        # m=16, k=2, two keys inserted; pooled over hash families so the
        # per-realization spread of such a tiny filter averages out
        hits, total = 0, 0
        for seed in range(500):
            f = BloomFilter(BloomParams(m=16, k=2, seed=seed))
            f.insert_many(keys_of(111, 222))
            probes = rng.hash_words_vec(3, seed, np.arange(200, dtype=np.uint64))
            hits += f.claimed(probes).size
            total += 200
        expected = analytic_fpr(16, 2, 2)
        sigma = math.sqrt(expected * (1 - expected) / total)
        assert abs(hits / total - expected) < max(4 * sigma, 0.1 * expected)

    def test_monte_carlo_within_ten_percent(self):
        # frozen pre-build oracle run: empirical 0.009945 over 2e6 probes
        f = BloomFilter(BloomParams(m=1024, k=4, seed=99))
        f.insert_many(rng.hash_words_vec(1, np.arange(100, dtype=np.uint64)))
        probes = rng.hash_words_vec(2, np.arange(2_000_000, dtype=np.uint64))
        measured = f.claimed(probes).size / probes.size
        expected = analytic_fpr(1024, 4, 100)
        assert abs(measured - expected) <= 0.10 * expected


class TestPlan:
    def test_loose_target_minimal_filter(self):
        p = plan_params(1 - 1e-9, 1)
        assert p.m in (1, 2)
        assert p.k == 1

    def test_textbook_point(self):
        # closed-form oracle: m0 = ceil(-n ln p / ln2^2) = 9586; k rounding
        # pushes the smallest feasible m to 9594 (verified by exhaustive scan)
        p = plan_params(0.01, 1000)
        assert (p.m, p.k) == (9594, 7)
        closed_form = math.ceil(-1000 * math.log(0.01) / math.log(2) ** 2)
        assert closed_form == 9586
        assert abs(p.m - closed_form) <= 0.10 * closed_form
        assert analytic_fpr(p.m, p.k, 1000) <= 0.01

    def test_half_target_exhaustive_oracle(self):
        def k_for(m, n):
            return max(1, min(64, int(math.floor(m / n * math.log(2) + 0.5))))

        best = next(
            m for m in range(1, 65) if analytic_fpr(m, k_for(m, 1), 1) <= 0.5
        )
        p = plan_params(0.5, 1)
        assert p.m == best == 2
        assert analytic_fpr(p.m, p.k, 1) <= 0.5

    @pytest.mark.parametrize("target,n", [(0.01, 10), (0.001, 500), (0.2, 3), (1e-6, 100)])
    def test_planned_filters_meet_target(self, target, n):
        p = plan_params(target, n)
        assert analytic_fpr(p.m, p.k, n) <= target
        if p.m > 1:
            # minimality up to the local search contract
            assert analytic_fpr(p.m - 1, max(1, min(64, int(math.floor((p.m - 1) / n * math.log(2) + 0.5)))), n) > target

    def test_unsatisfiable(self):
        # about 4.3e10 bits, past the 2**32-bit ceiling
        with pytest.raises(PlanUnsatisfiableError):
            plan_params(1e-9, 10**9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_params(0.0, 10)
        with pytest.raises(ValueError):
            plan_params(1.0, 10)
        with pytest.raises(ValueError):
            plan_params(0.1, 0)
