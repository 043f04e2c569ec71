"""The model's statistics against their closed forms.

The exactness tests compare the engine with an oracle that shares its
streams and its build pass, so they cannot see a stream that is wrong in
distribution.  These checks compare sampled statistics with exact
probabilities instead: the rows the generator selects, and the rows the
profiling campaign misses, and the values the weak law draws.  The seeds
were fixed before the first run, and each bound is 5 sigma or a tail
probability below 1e-7: a failure is a finding about the model or its
streams, not a reason to re-seed.
"""

import math

import numpy as np
import pytest

from raidrsim.profiler import ProfilerConfig, _round_windows, vrt_low_seen
from raidrsim.retention import (
    DeviceConfig,
    DpdModel,
    RetentionDistribution,
    VrtModel,
    draw_vrt_rows,
    generate_rows,
    locate_rows,
)

SEEDS = (5, 6)
SIGMAS = 5.0


def miss_probability(vrt: VrtModel, cfg: ProfilerConfig) -> float:
    """The exact probability that the two-state chain, high at window 0, is high at every sampled window.

    A forward recursion over windows of the chain's mass that has not yet
    been seen low; a sampled window removes the low mass.
    """
    sampled = set(_round_windows(cfg.profiling_window_span, cfg.rounds).tolist())
    p, q = vrt.p_high_to_low, vrt.p_low_to_high
    high, low = 1.0, 0.0
    for w in range(1, max(sampled) + 1):
        high, low = high * (1 - p) + low * q, high * p + low * (1 - q)
        if w in sampled:
            low = 0.0
    return high


@pytest.mark.parametrize("vrt, cfg", [
    # guard-sweep's toggle and its 8 rounds, over a span of 64 windows, not
    # 512: a sample every 8 windows, close to the chain's mixing time of
    # 1 / (p + q) = 4 windows, so that consecutive samples are correlated
    (VrtModel(enabled=True, p_high_to_low=0.05, p_low_to_high=0.2),
     ProfilerConfig(mode="measured", rounds=8, profiling_window_span=64)),
    # a fast, asymmetric toggle, sampled at uneven gaps 3, 3, 4, 3
    (VrtModel(enabled=True, p_high_to_low=0.15, p_low_to_high=0.5),
     ProfilerConfig(mode="measured", rounds=5, profiling_window_span=17)),
])
def test_campaign_miss_fraction_matches_the_chain(vrt, cfg):
    n = 100_000
    rows = np.arange(n)
    p = miss_probability(vrt, cfg)
    assert 0.05 < p < 0.95
    sigma = math.sqrt(n * p * (1 - p))
    for seed in SEEDS:
        misses = n - int(np.count_nonzero(vrt_low_seen(seed, vrt, rows, cfg, tile_pairs=1 << 20)))
        assert abs(misses - n * p) < SIGMAS * sigma, (seed, misses, n * p)


def within_binomial(count: int, n: int, p: float) -> bool:
    return abs(count - n * p) < SIGMAS * math.sqrt(n * p * (1 - p))


@pytest.mark.parametrize("weak_fraction, affected_fraction", [
    (1e-3, 0.02),  # dense-64gb's weak fraction and the benchmark's VRT share
    (0.3, 0.5),
])
def test_weak_and_vrt_row_counts_are_binomial(weak_fraction, affected_fraction):
    # one Bernoulli draw per row selects the weak rows, and one the VRT
    # rows, on independent streams: each count, and that of the rows that
    # are both, is binomial
    n = 1_000_000
    dist = RetentionDistribution(weak_fraction=weak_fraction)
    vrt = VrtModel(enabled=True, affected_fraction=affected_fraction)
    for seed in SEEDS:
        vrt_rows = draw_vrt_rows(vrt, seed, 0, n)
        gt = generate_rows(DeviceConfig.from_rows(n), dist, vrt, DpdModel(), seed, 0, n, vrt_rows)
        # base.at holds the VRT rows too; the weak law's support lies below
        # strong_value_ms, the plain value
        weak = gt.base.at[gt.base.values < gt.base.plain]
        both = int(np.count_nonzero(locate_rows(weak, vrt_rows)[1]))
        for count, p in ((weak.size, weak_fraction), (vrt_rows.size, affected_fraction),
                         (both, weak_fraction * affected_fraction)):
            assert within_binomial(count, n, p), (seed, count, n * p)


# the Kolmogorov limit law's tail at x, 2 * sum (-1)^(k-1) exp(-2 k^2 x^2),
# is about 9.9e-8 at 2.9
KS_BOUND = 2.9


def test_two_population_weak_values_are_uniform():
    # the weak rows' base retentions against uniform on [floor_ms,
    # weak_high_ms), by the Kolmogorov-Smirnov statistic of the sample
    n = 1_000_000
    dist = RetentionDistribution(weak_fraction=0.3, floor_ms=64.0, weak_high_ms=256.0)
    vrt = VrtModel(enabled=True, affected_fraction=0.02)
    for seed in SEEDS:
        gt = generate_rows(DeviceConfig.from_rows(n), dist, vrt, DpdModel(), seed, 0, n,
                           draw_vrt_rows(vrt, seed, 0, n))
        x = np.sort(gt.base.values[gt.base.values < gt.base.plain])
        cdf = (x - dist.floor_ms) / (dist.weak_high_ms - dist.floor_ms)
        i = np.arange(1, x.size + 1)
        d = max(float(np.max(i / x.size - cdf)), float(np.max(cdf - (i - 1) / x.size)))
        assert x[0] >= dist.floor_ms and x[-1] < dist.weak_high_ms
        assert math.sqrt(x.size) * d < KS_BOUND, (seed, x.size, d)
