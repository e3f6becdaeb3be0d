"""The GRAMER accelerator: configuration, simulator, and side models."""

from .bfs_model import BFSModeEstimate, estimate_bfs_mode
from .clockmodel import ClockModelParams, clock_rate_mhz, table4_design_points
from .config import ALVEO_U250_BRAM_BYTES, GramerConfig
from .energy import (
    EnergyBreakdown,
    EnergyParams,
    cpu_energy,
    gramer_energy,
)
from .resources import (
    FPGA_XCU250,
    FPGAPart,
    ResourceReport,
    estimate_resources,
)
from .sim import (
    DEFAULT_ENGINE,
    ENGINES,
    AncestorBufferOverflowError,
    GramerSimulator,
    SimResult,
    make_simulator,
)
from .turbosim import TurboGramerSimulator
from .stats import SimStats

__all__ = [
    "BFSModeEstimate",
    "estimate_bfs_mode",
    "ClockModelParams",
    "clock_rate_mhz",
    "table4_design_points",
    "ALVEO_U250_BRAM_BYTES",
    "GramerConfig",
    "EnergyBreakdown",
    "EnergyParams",
    "cpu_energy",
    "gramer_energy",
    "FPGA_XCU250",
    "FPGAPart",
    "ResourceReport",
    "estimate_resources",
    "AncestorBufferOverflowError",
    "GramerSimulator",
    "TurboGramerSimulator",
    "make_simulator",
    "ENGINES",
    "DEFAULT_ENGINE",
    "SimResult",
    "SimStats",
]
