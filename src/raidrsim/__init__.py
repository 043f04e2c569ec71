"""Retention-aware multi-rate DRAM refresh: bins, Bloom filters, simulation."""

from .bloom import BloomFilter, BloomParams, analytic_fpr, plan_params
from .experiment import ConfigError, ExperimentSpec, SimConfig, spec_from_flat
from .overhead import OverheadConfig, density_sweep, refresh_energy_fraction, throughput_loss
from .profiler import ProfilerConfig, misclassification_report, profile
from .raidr import BinConfig, BinSet, UnbinnableRowError, build_bins
from .retention import (
    DeviceConfig,
    DpdModel,
    RetentionDistribution,
    RetentionGroundTruth,
    VrtModel,
    generate_ground_truth,
)
from .simulate import CheckpointError, RefreshSimulation, SimReport

__all__ = [
    "BloomFilter", "BloomParams", "analytic_fpr", "plan_params",
    "ConfigError", "ExperimentSpec", "spec_from_flat",
    "OverheadConfig", "density_sweep", "refresh_energy_fraction", "throughput_loss",
    "ProfilerConfig", "misclassification_report", "profile",
    "BinConfig", "BinSet", "UnbinnableRowError", "build_bins",
    "DeviceConfig", "DpdModel", "RetentionDistribution", "RetentionGroundTruth",
    "VrtModel", "generate_ground_truth",
    "CheckpointError", "RefreshSimulation", "SimConfig", "SimReport",
]

__version__ = "0.1.0"
