"""The model's statistics against their closed forms.

The exactness tests compare the engine with an oracle that shares its
streams and its build pass, so they cannot see a stream that is wrong in
distribution.  These checks compare sampled statistics with exact
probabilities instead: the rows the generator selects, the rows the
profiling campaign misses, the values the weak law draws, the engine's VRT
failures, and the independence of the engine's and the campaign's toggle
streams.  The seeds were fixed before the first run, and each bound is 5
sigma or a tail probability below 1e-7: a failure is a finding about the
model or its streams, not a reason to re-seed.
"""

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

from raidrsim import rng
from raidrsim.experiment import ExperimentSpec, SimConfig
from raidrsim.profiler import ProfilerConfig, _round_windows, vrt_low_seen
from raidrsim.retention import (
    DeviceConfig,
    DpdModel,
    RetentionDistribution,
    VrtModel,
    generate_rows,
)
from raidrsim.simulate import RefreshSimulation

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
        misses = n - int(np.count_nonzero(vrt_low_seen(seed, vrt, rows, cfg)))
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
        gt = generate_rows(DeviceConfig.from_rows(n), dist, vrt, DpdModel(), seed, 0, n)
        vrt_rows = gt.base.at[gt.toggles]
        # base.at holds the VRT rows too; the weak law's support lies below
        # strong_value_ms, the plain value
        weak = gt.base.at[gt.base.values < gt.base.plain]
        both = np.intersect1d(weak, vrt_rows).size
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
        gt = generate_rows(DeviceConfig.from_rows(n), dist, vrt, DpdModel(), seed, 0, n)
        x = np.sort(gt.base.values[gt.base.values < gt.base.plain])
        cdf = (x - dist.floor_ms) / (dist.weak_high_ms - dist.floor_ms)
        i = np.arange(1, x.size + 1)
        d = max(float(np.max(i / x.size - cdf)), float(np.max(cdf - (i - 1) / x.size)))
        assert x[0] >= dist.floor_ms and x[-1] < dist.weak_high_ms
        assert math.sqrt(x.size) * d < KS_BOUND, (seed, x.size, d)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_lognormal_tail_edges_and_median():
    # guard-sweep's law: median 440 ms, sigma 0.4, clipped into [320, 960).
    # The draws below the floor pile at floor_ms, those at or above
    # weak_high_ms at the largest double below it, and half lie at or
    # below the median
    n = 1_000_000
    dist = RetentionDistribution(kind="lognormal-tail", weak_fraction=0.3, floor_ms=320.0, weak_high_ms=960.0,
                                 lognormal_median_ms=440.0, lognormal_sigma=0.4)
    top = np.nextafter(dist.weak_high_ms, 0.0)
    for seed in SEEDS:
        gt = generate_rows(DeviceConfig.from_rows(n), dist, VrtModel(), DpdModel(), seed, 0, n)
        x = gt.base.values  # VRT is off, so the own rows are the weak rows
        for count, p in (
            (np.count_nonzero(x == dist.floor_ms), normal_cdf(math.log(320.0 / 440.0) / 0.4)),
            (np.count_nonzero(x == top), 1.0 - normal_cdf(math.log(960.0 / 440.0) / 0.4)),
            (np.count_nonzero(x <= dist.lognormal_median_ms), 0.5),
        ):
            assert within_binomial(int(count), x.size, p), (seed, count, x.size * p)
        assert x.min() >= dist.floor_ms and x.max() == top


def chain_failures(vrt: VrtModel, m: int, fails_at: set[int], horizon: int) -> tuple[float, float]:
    """P(a VRT row fails at least once) and its expected failures, by a forward recursion over (low, seen, failed).

    The row is refreshed every m windows from window 0 and is high at
    window 0; its toggle steps into each later window.  It fails at a
    window whose phase (w % m) is in fails_at when it has been low at some
    window since its last refresh, that window included.
    """
    p, q = vrt.p_high_to_low, vrt.p_low_to_high
    mass = {(False, False, False): 1.0}
    expected = 0.0
    for w in range(horizon):
        phase = w % m
        nxt = defaultdict(float)
        for (low, seen, failed), pr in mass.items():
            leave = (q if low else p) if w else 0.0
            for now, pt in ((not low, leave), (low, 1.0 - leave)):
                now_seen = now or (seen and phase != 0)
                fails = now_seen and phase in fails_at
                expected += pr * pt * fails
                nxt[(now, now_seen, failed or fails)] += pr * pt
        mass = nxt
    return sum(pr for (_, _, failed), pr in mass.items() if failed), expected


def test_engine_vrt_failures_match_the_chain():
    # every row is a VRT row at 600 ms, low at 180 ms.  A campaign of one
    # round at window 0 sees no row low, so every row is profiled at 600 ms
    # into the 256 ms default bin and the filters stay empty.  A row then
    # fails exactly at phases 2 and 3 (192 and 256 ms past its refresh) of
    # a window in which it has been low since its last refresh; at most in
    # 32 of the 64 windows, so a row's failures have variance <= 32 E.  A
    # row low at any window fails in its refresh interval, so P(unsafe) is
    # 1 - (1 - p_high_to_low)^63, about 0.47; the failures depend on both
    # toggle probabilities
    n, horizon = 100_000, 64
    vrt = VrtModel(enabled=True, affected_fraction=1.0, low_factor=0.3, p_high_to_low=0.01, p_low_to_high=0.2)
    spec = ExperimentSpec(
        device=DeviceConfig.from_rows(n),
        dist=RetentionDistribution(weak_fraction=0.0, strong_value_ms=600.0),
        vrt=vrt,
        profiler=ProfilerConfig(mode="measured", rounds=1, profiling_window_span=1),
        sim=SimConfig(horizon_windows=horizon),
    )
    trefw_ms = spec.device.trefw_ms
    m = spec.bins.multipliers(trefw_ms)[-1]
    fails_at = {phase for phase in range(m) if (phase + 1) * trefw_ms > 600.0 * vrt.low_factor}
    assert m == 4 and fails_at == {2, 3}
    p_unsafe, per_row = chain_failures(vrt, m, fails_at, horizon)
    assert 0.05 < p_unsafe < 0.95
    for seed in SEEDS:
        sim = RefreshSimulation(dataclasses.replace(spec, seed=seed))
        rep = sim.run()
        assert sim.bins.counts == (0, 0, n)
        assert within_binomial(rep.unsafe_rows, n, p_unsafe), (seed, rep.unsafe_rows, n * p_unsafe)
        sigma = math.sqrt(32 * n * per_row)
        assert abs(rep.retention_failures - n * per_row) < SIGMAS * sigma, (seed, rep.retention_failures, n * per_row)


def test_engine_and_campaign_toggle_streams_are_uncorrelated():
    # at equal (row, window) the engine's toggle (TAG_VRT_STEP) and the
    # campaign's (TAG_PROFILE_VRT_STEP) draw independent uniforms, so both
    # lie below 1/2 in a quarter of the pairs
    rows, windows = np.arange(100_000), np.arange(1, 9)[:, None]
    n = rows.size * windows.size
    for seed in SEEDS:
        u, v = (rng.uniform01_of(rng.extend_hash_vec(rng.hash_words_vec(seed, tag, rows), windows))
                for tag in (rng.TAG_VRT_STEP, rng.TAG_PROFILE_VRT_STEP))
        both = int(np.count_nonzero((u < 0.5) & (v < 0.5)))
        assert within_binomial(both, n, 0.25), (seed, both, n / 4)
