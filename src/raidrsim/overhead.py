"""Analytic refresh overhead versus chip density.

Throughput loss is the fraction of the refresh window the device spends
executing refresh commands; the energy fraction splits a window's budget
into refresh, background, and activity terms with per-command refresh
energy growing linearly in density.  Table densities use the configured
tRFC values (piecewise-linear between entries); densities beyond the
table scale proportionally from an anchor entry, which projects DDR3-era
latencies to high capacities.  Those projected points are a calibrated
band, not vendor data, and every report echoes the constants used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .retention import DeviceConfig

POLICY_BASELINE = "baseline"
POLICY_RAIDR = "raidr"


@dataclass(frozen=True)
class OverheadInputs:
    device: DeviceConfig = field(default_factory=DeviceConfig)
    extrapolation_anchor_gbit: float = 4.0
    e_refresh_cmd_nj_per_gbit: float = 22.5
    e_background_mw: float = 75.0
    e_activity_mw: float = 150.0

    def __post_init__(self):
        if self.extrapolation_anchor_gbit not in self.device.trfc_table_ns:
            raise ValueError(
                f"extrapolation anchor {self.extrapolation_anchor_gbit} Gb has no tRFC table entry"
            )
        for name in ("e_refresh_cmd_nj_per_gbit", "e_background_mw", "e_activity_mw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def trfc_ns(self, density_gbit: float | None = None) -> float:
        """Per-command refresh latency at the given (or device) density."""
        d = self.device.density_gbit if density_gbit is None else float(density_gbit)
        if d <= 0:
            raise ValueError("density must be positive")
        table = self.device.trfc_table_ns
        keys = sorted(table)
        if d <= keys[-1]:
            return float(np.interp(d, keys, [table[k] for k in keys]))
        anchor = self.extrapolation_anchor_gbit
        projected = table[anchor] * d / anchor
        # keep the projection monotone across the table boundary
        return max(projected, table[keys[-1]])


def _check_policy(policy: str, savings: float) -> None:
    if policy not in (POLICY_BASELINE, POLICY_RAIDR):
        raise ValueError(f"unknown policy {policy!r}")
    if policy == POLICY_RAIDR and not 0.0 <= savings <= 1.0:
        raise ValueError("savings must be in [0, 1]")


def throughput_loss(
    inputs: OverheadInputs,
    policy: str = POLICY_BASELINE,
    savings: float = 0.0,
    density_gbit: float | None = None,
) -> float:
    """Fraction of the window consumed by refresh commands, clamped to 1.0."""
    _check_policy(policy, savings)
    dev = inputs.device
    d = dev.density_gbit if density_gbit is None else float(density_gbit)
    loss = dev.refresh_cmds_per_window * inputs.trfc_ns(d) / (dev.trefw_ms * 1e6)
    if policy == POLICY_RAIDR:
        loss *= 1.0 - savings
    return min(loss, 1.0)


def refresh_energy_fraction(
    inputs: OverheadInputs,
    policy: str = POLICY_BASELINE,
    savings: float = 0.0,
    density_gbit: float | None = None,
) -> float:
    """Refresh share of one window's energy: E_r / (E_r + E_bg + E_act)."""
    _check_policy(policy, savings)
    dev = inputs.device
    d = dev.density_gbit if density_gbit is None else float(density_gbit)
    e_refresh_uj = dev.refresh_cmds_per_window * inputs.e_refresh_cmd_nj_per_gbit * d / 1e3
    if policy == POLICY_RAIDR:
        e_refresh_uj *= 1.0 - savings
    e_background_uj = inputs.e_background_mw * dev.trefw_ms
    e_activity_uj = inputs.e_activity_mw * dev.trefw_ms
    total = e_refresh_uj + e_background_uj + e_activity_uj
    if total <= 0.0:
        return 0.0
    return e_refresh_uj / total  # in [0, 1]: OverheadInputs keeps every term non-negative


@dataclass(frozen=True)
class OverheadPoint:
    density_gbit: float
    density_bits: int
    policy: str
    savings: float
    throughput_loss: float
    refresh_energy_fraction: float
    trfc_ns_used: float

    @property
    def clamped(self) -> bool:  # the refresh load fills the whole window
        return self.throughput_loss == 1.0


def check_sweep(densities_gbit, policies) -> list[float]:
    """The densities as floats, once the sweep's arguments pass its checks.

    Raises ValueError unless there is at least one density, every density
    is positive and ascending, and every policy is known with its savings
    in [0, 1].
    """
    densities = [float(d) for d in densities_gbit]
    if not densities or any(d <= 0 for d in densities):
        raise ValueError("densities must be positive")
    if densities != sorted(densities):
        raise ValueError("densities must be sorted ascending")
    for policy, savings in policies:
        _check_policy(policy, savings)
    return densities


def density_sweep(
    inputs: OverheadInputs,
    densities_gbit,
    policies=((POLICY_BASELINE, 0.0), (POLICY_RAIDR, 0.75)),
) -> list[OverheadPoint]:
    """Overhead metrics per (density, policy) pair, densities ascending."""
    densities = check_sweep(densities_gbit, policies)
    points = []
    for d in densities:
        for policy, savings in policies:
            points.append(
                OverheadPoint(
                    density_gbit=d,
                    density_bits=int(d * 2**30),
                    policy=policy,
                    savings=float(savings) if policy == POLICY_RAIDR else 0.0,
                    throughput_loss=throughput_loss(inputs, policy, savings, d),
                    refresh_energy_fraction=refresh_energy_fraction(inputs, policy, savings, d),
                    trfc_ns_used=inputs.trfc_ns(d),
                )
            )
    return points
