"""Deterministic discrete-event simulation kernel used by every substrate."""

from .core import (
    AllOf,
    Condition,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Signal, Store, poll_until
from .rng import RngRegistry
from .trace import Counters

__all__ = [
    "AllOf",
    "Condition",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "Signal",
    "Store",
    "poll_until",
    "RngRegistry",
    "Counters",
]
