"""Embedded invariant suite: a fast sanity gate runnable from the CLI.

Each property runs at small scale and prints one line.  The optional
fault name corrupts a structure on purpose so the gate itself can be
tested end to end.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .bloom import BloomFilter, BloomParams, analytic_fpr
from .experiment import ConfigError, ExperimentSpec, SimConfig
from .profiler import ProfilerConfig
from .retention import DeviceConfig, DpdModel, RetentionDistribution, VrtModel
from .simulate import RefreshSimulation, check_report_invariants

FAULT_CORRUPT_BLOOM = "corrupt-bloom"
KNOWN_FAULTS = (FAULT_CORRUPT_BLOOM,)


def _check_no_false_negatives(fault: str | None) -> str | None:
    filt = BloomFilter(BloomParams(m=4096, k=6, seed=17))
    keys = rng.hash_words_vec(21, np.arange(400, dtype=np.uint64))
    filt.insert_many(keys)
    if fault == FAULT_CORRUPT_BLOOM:
        set_words = np.flatnonzero(filt.words)
        w = int(set_words[0])
        bit = int(np.uint64(filt.words[w]).item().bit_length()) - 1
        filt.words[w] ^= np.uint64(1 << bit)
    if filt.claimed(keys).size != keys.size:
        return "an inserted key reported absent"
    return None


def _check_run(spec: ExperimentSpec, floor: float = 0.0) -> str | None:
    """The report invariants of one run of `spec`, and a floor under its savings."""
    report = RefreshSimulation(spec).run()
    problems = check_report_invariants(report, spec)
    if problems:
        return "; ".join(problems)
    if report.savings_fraction < floor:
        return f"savings {report.savings_fraction} implausibly low, below {floor}"
    return None


def _check_oracle_safety(_: str | None) -> str | None:
    return _check_run(ExperimentSpec(
        seed=11,
        device=DeviceConfig.from_rows(20_000),
        dist=RetentionDistribution(weak_fraction=0.01, floor_ms=128.0),
        vrt=VrtModel(enabled=True, affected_fraction=0.05, low_factor=0.8),
        dpd=DpdModel(enabled=True, worst_pattern_factor=0.8),
        profiler=ProfilerConfig(mode="oracle", guard_band_factor=1.0),
        sim=SimConfig(horizon_windows=64),
    ))


def _check_savings_bound(_: str | None) -> str | None:
    return _check_run(ExperimentSpec(
        seed=5,
        device=DeviceConfig.from_rows(20_000),
        dist=RetentionDistribution(weak_fraction=1e-3),
        sim=SimConfig(horizon_windows=64),
    ), floor=0.70)


def _check_fpr_calibration(_: str | None) -> str | None:
    m, k, n = 4096, 4, 512
    filt = BloomFilter(BloomParams(m=m, k=k, seed=3))
    filt.insert_many(rng.hash_words_vec(31, np.arange(n, dtype=np.uint64)))
    probes = rng.hash_words_vec(32, np.arange(200_000, dtype=np.uint64))
    measured = filt.claimed(probes).size / probes.size
    expected = analytic_fpr(m, k, n)
    if abs(measured - expected) > 0.25 * expected:
        return f"measured fpr {measured:.4g} vs analytic {expected:.4g}"
    return None


def _check_determinism(_: str | None) -> str | None:
    spec = ExperimentSpec(seed=9, device=DeviceConfig.from_rows(10_000), sim=SimConfig(horizon_windows=32))
    a = RefreshSimulation(spec).run().to_text()
    b = RefreshSimulation(spec).run().to_text()
    if a != b:
        return "two identical runs produced different reports"
    return None


_PROPERTIES = (
    ("bloom-no-false-negatives", _check_no_false_negatives),
    ("oracle-safety", _check_oracle_safety),
    ("savings-bound", _check_savings_bound),
    ("fpr-calibration", _check_fpr_calibration),
    ("determinism", _check_determinism),
)


def run_selftest(fault: str | None = None) -> list[str]:
    """Run every property; returns the names of the ones that failed."""
    if fault is not None and fault not in KNOWN_FAULTS:
        raise ConfigError(f"unknown fault {fault!r}; known: {', '.join(KNOWN_FAULTS)}")
    failures = []
    for name, check in _PROPERTIES:
        problem = check(fault)
        if problem:
            failures.append(name)
            print(f"selftest {name}: FAIL ({problem})")
        else:
            print(f"selftest {name}: ok")
    return failures
