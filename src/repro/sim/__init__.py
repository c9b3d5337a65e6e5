"""Deterministic discrete-event simulation kernel used by every substrate."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Signal, Store, poll_until
from .rng import RngRegistry, stream
from .trace import Counters, Tracer, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Signal",
    "Store",
    "poll_until",
    "RngRegistry",
    "stream",
    "Counters",
    "Tracer",
    "TraceRecord",
]
