import warnings

import numpy as np
import pytest

from raidrsim.overhead import (
    POLICY_BASELINE,
    POLICY_RAIDR,
    OverheadInputs,
    density_sweep,
    refresh_energy_fraction,
    throughput_loss,
)
from raidrsim.retention import DeviceConfig


@pytest.fixture
def inputs():
    return OverheadInputs(device=DeviceConfig())


class TestTrfc:
    def test_table_points_exact(self, inputs):
        assert inputs.trfc_ns(1) == 110.0
        assert inputs.trfc_ns(2) == 160.0
        assert inputs.trfc_ns(4) == 260.0
        assert inputs.trfc_ns(8) == 350.0

    def test_interpolation_between_points(self, inputs):
        assert inputs.trfc_ns(6) == pytest.approx(305.0)

    def test_extrapolation_proportional_from_anchor(self, inputs):
        # 260 ns at 4 Gb scales to 4160 ns at 64 Gb
        assert inputs.trfc_ns(64) == pytest.approx(4160.0)

    def test_extrapolation_monotone_across_table_edge(self, inputs):
        densities = [7.9, 8.0, 8.1, 9, 16, 64, 128]
        vals = [inputs.trfc_ns(d) for d in densities]
        assert vals == sorted(vals)

    def test_bad_anchor_rejected(self):
        with pytest.raises(ValueError, match="anchor"):
            OverheadInputs(device=DeviceConfig(), extrapolation_anchor_gbit=3.0)


class TestThroughputLoss:
    def test_4gb_arithmetic(self, inputs):
        # 8192 * 260 ns / 64 ms
        assert throughput_loss(inputs, density_gbit=4) == pytest.approx(0.03328, abs=1e-6)

    def test_8gb_arithmetic(self, inputs):
        assert throughput_loss(inputs, density_gbit=8) == pytest.approx(0.0448, abs=1e-6)

    def test_64gb_near_half(self, inputs):
        loss = throughput_loss(inputs, density_gbit=64)
        assert loss == pytest.approx(0.53248, abs=1e-6)
        assert 0.35 <= loss <= 0.55

    def test_raidr_scales_by_one_minus_savings(self, inputs):
        loss = throughput_loss(inputs, POLICY_RAIDR, savings=0.75, density_gbit=64)
        assert loss == pytest.approx(0.13312, abs=1e-6)
        for d in (2, 8, 32):
            base = throughput_loss(inputs, density_gbit=d)
            assert throughput_loss(inputs, POLICY_RAIDR, 0.6, d) == pytest.approx(0.4 * base)

    def test_clamped_to_one_without_warning(self, inputs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = throughput_loss(inputs, density_gbit=200)
        assert loss == 1.0

    def test_unknown_policy(self, inputs):
        with pytest.raises(ValueError):
            throughput_loss(inputs, "turbo")
        with pytest.raises(ValueError):
            throughput_loss(inputs, POLICY_RAIDR, savings=1.5)


class TestEnergy:
    def test_zero_refresh_energy(self):
        inp = OverheadInputs(device=DeviceConfig(), e_refresh_cmd_nj_per_gbit=0.0)
        assert refresh_energy_fraction(inp, density_gbit=64) == 0.0

    def test_64gb_calibration_band(self, inputs):
        frac = refresh_energy_fraction(inputs, density_gbit=64)
        assert 0.4 <= frac <= 0.5

    def test_monotone_in_density(self, inputs):
        vals = [refresh_energy_fraction(inputs, density_gbit=d) for d in (1, 2, 4, 8, 16, 32, 64)]
        assert vals == sorted(vals)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_raidr_reduces_fraction(self, inputs):
        base = refresh_energy_fraction(inputs, density_gbit=64)
        raidr = refresh_energy_fraction(inputs, POLICY_RAIDR, 0.75, density_gbit=64)
        assert raidr < base


class TestSweep:
    def test_monotone_baseline_series(self, inputs):
        points = density_sweep(inputs, [8, 16, 32, 64], policies=((POLICY_BASELINE, 0.0),))
        losses = [p.throughput_loss for p in points]
        assert losses == sorted(losses)
        assert len(losses) == 4

    def test_raidr_curve_is_quarter_of_baseline(self, inputs):
        points = density_sweep(inputs, [8, 16, 32, 64])
        by_policy = {}
        for p in points:
            by_policy.setdefault(p.policy, []).append(p)
        for b, r in zip(by_policy[POLICY_BASELINE], by_policy[POLICY_RAIDR]):
            assert r.throughput_loss == pytest.approx(0.25 * b.throughput_loss)

    def test_unsorted_densities_rejected(self, inputs):
        with pytest.raises(ValueError):
            density_sweep(inputs, [16, 8])

    def test_point_fields(self, inputs):
        (p,) = density_sweep(inputs, [4], policies=((POLICY_BASELINE, 0.0),))
        assert p.density_bits == 4 * 2**30
        assert p.trfc_ns_used == 260.0
        assert p.savings == 0.0
