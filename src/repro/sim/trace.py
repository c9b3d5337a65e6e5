"""The null metrics scope.

A :class:`Counters` object accumulates named integers (bytes on the wire,
packets, cache hits, ...) for a component built without a cluster, and
defines the rest of the metrics-scope surface (:meth:`observe`,
:meth:`set_gauge`, :meth:`span`, :meth:`log`) as no-ops, so model code
can instrument unconditionally.  The real implementations — and the
bounded trace-record ring :meth:`log` feeds — live in
:mod:`repro.obs.registry`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Counters"]


@dataclass
class Counters:
    """Named integer accumulators shared across a subsystem."""

    values: Counter = field(default_factory=Counter)

    def add(self, name: str, amount: int = 1) -> None:
        self.values[name] += amount

    def get(self, name: str) -> int:
        return self.values.get(name, 0)

    def set_max(self, name: str, value: int) -> None:
        """Raise a high-water-mark counter to ``value`` (never lowers it)."""
        if value > self.values.get(name, 0):
            self.values[name] = value

    # ------------------------------------------------------- obs hook surface
    def observe(self, name: str, value: float) -> None:
        """Histogram observation — no-op without a metrics registry."""

    def set_gauge(self, name: str, value: float) -> None:
        """Gauge update — no-op without a metrics registry."""

    def span(self, name: str, t_start: int, peer: Optional[int] = None,
             nbytes: int = 0):
        """Open an op span — returns None without a metrics registry."""
        return None

    def log(self, time: int, category: str, **fields: Any) -> None:
        """Trace record — no-op without a metrics registry."""
