"""Retention-aware multi-rate DRAM refresh: bins, Bloom filters, simulation."""

from .experiment import ConfigError, ExperimentSpec, SimConfig, spec_from_flat
from .overhead import OverheadConfig, density_sweep, refresh_energy_fraction, throughput_loss
from .profiler import ProfilerConfig
from .retention import DeviceConfig, RetentionDistribution, VrtModel
from .simulate import CheckpointError, RefreshSimulation

# the README's Library section and the scripts/ experiments use these
__all__ = [
    "ConfigError", "ExperimentSpec", "SimConfig", "spec_from_flat",
    "OverheadConfig", "density_sweep", "refresh_energy_fraction", "throughput_loss",
    "ProfilerConfig",
    "DeviceConfig", "RetentionDistribution", "VrtModel",
    "CheckpointError", "RefreshSimulation",
]

__version__ = "0.1.0"
