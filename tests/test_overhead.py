import warnings

import numpy as np
import pytest

from raidrsim.overhead import (
    POLICY_BASELINE,
    POLICY_RAIDR,
    OverheadConfig,
    check,
    density_sweep,
    policy_points,
    refresh_energy_fraction,
    throughput_loss,
    trfc_ns,
)
from raidrsim.retention import DeviceConfig

DEV = DeviceConfig()
CFG = OverheadConfig()


def trfc(d):
    return trfc_ns(DEV, CFG, d)


class TestTrfc:
    def test_table_points_exact(self):
        assert trfc(1) == 110.0
        assert trfc(2) == 160.0
        assert trfc(4) == 260.0
        assert trfc(8) == 350.0

    def test_interpolation_between_points(self):
        assert trfc(6) == pytest.approx(305.0)

    def test_extrapolation_proportional_from_anchor(self):
        # 260 ns at 4 Gb scales to 4160 ns at 64 Gb
        assert trfc(64) == pytest.approx(4160.0)

    def test_extrapolation_monotone_across_table_edge(self):
        densities = [7.9, 8.0, 8.1, 9, 16, 64, 128]
        vals = [trfc(d) for d in densities]
        assert vals == sorted(vals)

    def test_bad_anchor_rejected(self):
        cfg = OverheadConfig(extrapolation_anchor_gbit=3.0)
        with pytest.raises(ValueError, match="anchor"):
            check(DEV, cfg)
        with pytest.raises(ValueError, match="anchor"):
            throughput_loss(DEV, cfg)


class TestThroughputLoss:
    def test_4gb_arithmetic(self):
        # 8192 * 260 ns / 64 ms
        assert throughput_loss(DEV, CFG, density_gbit=4) == pytest.approx(0.03328, abs=1e-6)

    def test_8gb_arithmetic(self):
        assert throughput_loss(DEV, CFG, density_gbit=8) == pytest.approx(0.0448, abs=1e-6)

    def test_64gb_near_half(self):
        loss = throughput_loss(DEV, CFG, density_gbit=64)
        assert loss == pytest.approx(0.53248, abs=1e-6)
        assert 0.35 <= loss <= 0.55

    def test_raidr_scales_by_one_minus_savings(self):
        loss = throughput_loss(DEV, CFG, savings=0.75, density_gbit=64)
        assert loss == pytest.approx(0.13312, abs=1e-6)
        for d in (2, 8, 32):
            base = throughput_loss(DEV, CFG, density_gbit=d)
            assert throughput_loss(DEV, CFG, 0.6, d) == pytest.approx(0.4 * base)

    def test_clamped_to_one_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = throughput_loss(DEV, CFG, density_gbit=200)
        assert loss == 1.0

    def test_unknown_policy(self):
        # a policy is its savings, so an unknown policy is savings outside [0, 1]
        with pytest.raises(ValueError, match="savings"):
            throughput_loss(DEV, CFG, savings=1.5)


class TestEnergy:
    def test_zero_refresh_energy(self):
        cfg = OverheadConfig(e_refresh_cmd_nj_per_gbit=0.0)
        assert refresh_energy_fraction(DEV, cfg, density_gbit=64) == 0.0

    def test_64gb_calibration_band(self):
        frac = refresh_energy_fraction(DEV, CFG, density_gbit=64)
        assert 0.4 <= frac <= 0.5

    def test_monotone_in_density(self):
        vals = [refresh_energy_fraction(DEV, CFG, density_gbit=d) for d in (1, 2, 4, 8, 16, 32, 64)]
        assert vals == sorted(vals)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_raidr_reduces_fraction(self):
        base = refresh_energy_fraction(DEV, CFG, density_gbit=64)
        raidr = refresh_energy_fraction(DEV, CFG, 0.75, density_gbit=64)
        assert raidr < base


class TestSweep:
    def test_monotone_baseline_series(self):
        points = density_sweep(DEV, OverheadConfig(densities_gbit=(8, 16, 32, 64)))
        losses = [p.throughput_loss for p in points if p.policy == POLICY_BASELINE]
        assert losses == sorted(losses)
        assert len(losses) == 4

    def test_raidr_curve_is_quarter_of_baseline(self):
        points = density_sweep(DEV, OverheadConfig(densities_gbit=(8, 16, 32, 64)))
        by_policy = {}
        for p in points:
            by_policy.setdefault(p.policy, []).append(p)
        for b, r in zip(by_policy[POLICY_BASELINE], by_policy[POLICY_RAIDR]):
            assert r.throughput_loss == pytest.approx(0.25 * b.throughput_loss)

    def test_unsorted_densities_rejected(self):
        with pytest.raises(ValueError):
            density_sweep(DEV, OverheadConfig(densities_gbit=(16, 8)))

    def test_point_fields(self):
        p, r = density_sweep(DEV, OverheadConfig(densities_gbit=(4,)))
        assert p.density_bits == 4 * 2**30
        assert p.trfc_ns_used == 260.0
        assert (p.policy, p.savings) == (POLICY_BASELINE, 0.0)
        assert (r.policy, r.savings) == (POLICY_RAIDR, 0.75)

    def test_policy_points_at_device_density(self):
        base, raidr = policy_points(DEV, CFG, 0.5)
        assert base.density_gbit == DEV.density_gbit
        assert base.throughput_loss == throughput_loss(DEV, CFG)
        assert raidr.throughput_loss == throughput_loss(DEV, CFG, 0.5)
        assert raidr.refresh_energy_fraction == refresh_energy_fraction(DEV, CFG, 0.5)
        assert not base.clamped and not raidr.clamped


@pytest.mark.parametrize("cfg, match", [
    (OverheadConfig(extrapolation_anchor_gbit=3.0), "anchor"),
    (OverheadConfig(e_background_mw=-1.0), "e_background_mw"),
    (OverheadConfig(densities_gbit=()), "positive"),
    (OverheadConfig(densities_gbit=(0.0, 2.0)), "positive"),
    (OverheadConfig(densities_gbit=(4.0, 2.0)), "ascending"),
    (OverheadConfig(raidr_savings=-0.1), "savings"),
])
def test_library_callers_refused_what_the_spec_refuses(cfg, match):
    for call in (check, density_sweep, throughput_loss, refresh_energy_fraction):
        with pytest.raises(ValueError, match=match):
            call(DEV, cfg)


@pytest.mark.parametrize("density", [-1, 0])
@pytest.mark.parametrize("fn", [throughput_loss, refresh_energy_fraction, policy_points])
def test_non_positive_density_refused(fn, density):
    with pytest.raises(ValueError, match="density must be positive"):
        fn(DEV, CFG, 0.5, density)
