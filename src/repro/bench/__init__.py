"""Benchmark harness: microbench primitives and experiments R1-R23."""

from .microbench import (
    LatencyStats,
    bandwidth_mpi,
    bandwidth_photon,
    msgrate_mpi,
    msgrate_photon,
    overlap_mpi,
    overlap_photon,
    pingpong_mpi,
    pingpong_mpi_rma,
    pingpong_photon,
)
from .result import ExperimentResult

__all__ = [
    "LatencyStats", "ExperimentResult",
    "bandwidth_mpi", "bandwidth_photon",
    "msgrate_mpi", "msgrate_photon",
    "overlap_mpi", "overlap_photon",
    "pingpong_mpi", "pingpong_mpi_rma", "pingpong_photon",
]
