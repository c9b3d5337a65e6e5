"""Lightweight event tracing and counters.

A :class:`Tracer` collects ``(time, category, fields)`` records and a
:class:`Counters` object accumulates named integers (bytes on the wire,
packets, cache hits, ...).  Both are cheap no-ops unless enabled, so model
code can instrument unconditionally.

The tracer's record store is a bounded ring: long trace-enabled runs
(e.g. lossy-mode fault sweeps) can no longer grow without bound.  The
default cap is high enough that the golden-trace determinism suite never
drops a record; when the cap is hit the *oldest* records are discarded
and ``dropped`` counts them.

:class:`Counters` also defines the observability hook surface
(:meth:`observe`, :meth:`set_gauge`, :meth:`span`, :meth:`set_max`) as
no-ops, so components built without a metrics registry — default
``Counters()`` construction in unit tests — keep working unchanged.  The
real implementations live in
:class:`repro.obs.registry.ScopedCounters`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

__all__ = ["Tracer", "Counters", "TraceRecord", "DEFAULT_TRACE_CAP"]

#: default ring capacity — far above what any in-repo workload records
#: (the golden-trace suite peaks in the low tens of thousands)
DEFAULT_TRACE_CAP = 1_000_000


@dataclass(frozen=True)
class TraceRecord:
    time: int
    category: str
    fields: Tuple[Tuple[str, Any], ...]

    def as_dict(self) -> Dict[str, Any]:
        d = dict(self.fields)
        d["time"] = self.time
        d["category"] = self.category
        return d


class Tracer:
    """Collects trace records when enabled; :meth:`select` filters them
    by category prefix.

    ``max_records`` bounds memory: once the ring is full each new record
    evicts the oldest one and increments :attr:`dropped`.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.max_records = DEFAULT_TRACE_CAP
        self.records: Deque[TraceRecord] = deque()
        #: records evicted from the full ring (oldest-first)
        self.dropped = 0

    def log(self, time: int, category: str, **fields: Any) -> None:
        if not self.enabled:
            return
        if len(self.records) >= self.max_records:
            self.records.popleft()
            self.dropped += 1
        self.records.append(TraceRecord(time, category, tuple(fields.items())))


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
