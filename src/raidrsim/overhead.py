"""Analytic refresh overhead versus chip density.

Throughput loss is the fraction of the refresh window the device spends
executing refresh commands; the energy fraction splits a window's budget
into refresh, background, and activity terms with per-command refresh
energy growing linearly in density.  Table densities use the configured
tRFC values (piecewise-linear between entries); densities beyond the
table scale proportionally from an anchor entry, which projects DDR3-era
latencies to high capacities.  Those projected points are a calibrated
band, not vendor data, and every report echoes the constants used.

A policy is its savings: the fraction of refresh commands it skips.
The baseline skips none (savings 0) and RAIDR skips `raidr_savings`, or
the savings a simulation measured, so both terms scale by 1 - savings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .retention import DeviceConfig

POLICY_BASELINE = "baseline"
POLICY_RAIDR = "raidr"


@dataclass(frozen=True)
class OverheadConfig:
    densities_gbit: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    extrapolation_anchor_gbit: float = 4.0
    e_refresh_cmd_nj_per_gbit: float = 22.5
    e_background_mw: float = 75.0
    e_activity_mw: float = 150.0
    raidr_savings: float = 0.75


def check(device: DeviceConfig, cfg: OverheadConfig, savings: float = 0.0) -> None:
    """Raise ValueError unless the model can evaluate `cfg` on `device` at `savings`.

    The anchor needs a tRFC table entry, every energy term is non-negative,
    the densities are non-empty, positive and ascending, and both
    `cfg.raidr_savings` and `savings` lie in [0, 1].
    """
    if cfg.extrapolation_anchor_gbit not in device.trfc_table_ns:
        raise ValueError(
            f"extrapolation anchor {cfg.extrapolation_anchor_gbit} Gb has no tRFC table entry"
        )
    for name in ("e_refresh_cmd_nj_per_gbit", "e_background_mw", "e_activity_mw"):
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be non-negative")
    densities = list(cfg.densities_gbit)
    if not densities or any(d <= 0 for d in densities):
        raise ValueError("densities must be positive")
    if densities != sorted(densities):
        raise ValueError("densities must be sorted ascending")
    for s in (cfg.raidr_savings, savings):
        if not 0.0 <= s <= 1.0:
            raise ValueError("savings must be in [0, 1]")


def _density(device: DeviceConfig, density_gbit: float | None) -> float:
    """The density to evaluate at, the device's by default; it must be positive."""
    d = device.density_gbit if density_gbit is None else float(density_gbit)
    if d <= 0:
        raise ValueError("density must be positive")
    return d


def trfc_ns(device: DeviceConfig, cfg: OverheadConfig, density_gbit: float) -> float:
    """Per-command refresh latency at the given density."""
    d = _density(device, density_gbit)
    table = device.trfc_table_ns
    keys = sorted(table)
    if d <= keys[-1]:
        return float(np.interp(d, keys, [table[k] for k in keys]))
    anchor = cfg.extrapolation_anchor_gbit
    projected = table[anchor] * d / anchor
    # keep the projection monotone across the table boundary
    return max(projected, table[keys[-1]])


def throughput_loss(
    device: DeviceConfig,
    cfg: OverheadConfig,
    savings: float = 0.0,
    density_gbit: float | None = None,
) -> float:
    """Fraction of the window consumed by refresh commands, clamped to 1.0."""
    check(device, cfg, savings)
    d = _density(device, density_gbit)
    loss = device.refresh_cmds_per_window * trfc_ns(device, cfg, d) / (device.trefw_ms * 1e6)
    return min(loss * (1.0 - savings), 1.0)


def refresh_energy_fraction(
    device: DeviceConfig,
    cfg: OverheadConfig,
    savings: float = 0.0,
    density_gbit: float | None = None,
) -> float:
    """Refresh share of one window's energy: E_r / (E_r + E_bg + E_act)."""
    check(device, cfg, savings)
    d = _density(device, density_gbit)
    e_refresh_uj = device.refresh_cmds_per_window * cfg.e_refresh_cmd_nj_per_gbit * d / 1e3
    e_refresh_uj *= 1.0 - savings
    e_background_uj = cfg.e_background_mw * device.trefw_ms
    e_activity_uj = cfg.e_activity_mw * device.trefw_ms
    total = e_refresh_uj + e_background_uj + e_activity_uj
    if total <= 0.0:
        return 0.0
    return e_refresh_uj / total  # in [0, 1]: check keeps every term non-negative


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


def policy_points(
    device: DeviceConfig, cfg: OverheadConfig, savings: float, density_gbit: float | None = None
) -> tuple[OverheadPoint, OverheadPoint]:
    """The baseline and RAIDR points at one density (the device's by default)."""
    d = _density(device, density_gbit)
    trfc = trfc_ns(device, cfg, d)
    baseline, raidr = (
        OverheadPoint(
            density_gbit=d,
            density_bits=int(d * 2**30),
            policy=policy,
            savings=s,
            throughput_loss=throughput_loss(device, cfg, s, d),
            refresh_energy_fraction=refresh_energy_fraction(device, cfg, s, d),
            trfc_ns_used=trfc,
        )
        for policy, s in ((POLICY_BASELINE, 0.0), (POLICY_RAIDR, float(savings)))
    )
    return baseline, raidr


def density_sweep(device: DeviceConfig, cfg: OverheadConfig) -> list[OverheadPoint]:
    """Baseline and RAIDR points at each of `cfg.densities_gbit`, ascending."""
    check(device, cfg)
    return [p for d in cfg.densities_gbit for p in policy_points(device, cfg, cfg.raidr_savings, d)]
