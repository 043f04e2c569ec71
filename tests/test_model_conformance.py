"""The model's statistics against their closed forms.

The exactness tests compare the engine with an oracle that shares its
streams and its build pass, so they cannot see a stream that is wrong in
distribution.  These checks compare sampled statistics with exact
probabilities instead.  The seeds were fixed before the first run, and
each bound is 5 sigma: a failure is a finding about the model or its
streams, not a reason to re-seed.
"""

import math

import numpy as np
import pytest

from raidrsim.profiler import ProfilerConfig, _round_windows, vrt_low_seen
from raidrsim.retention import VrtModel

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
