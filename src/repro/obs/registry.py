"""Hierarchical metrics registry with per-rank scoping.

This is the observability core the rest of the stack hangs off
(``photon_get_dev_stats`` analogue, grown into a real subsystem):

- **Counters** live in :class:`ScopedCounters` — one per rank plus one
  ``fabric`` scope for hardware shared between ranks (links, switches) —
  and each count is kept once, in its scope.  The cluster-wide figures
  (``cluster.counters``) are :class:`AggregateCounters`, a read-only view
  that answers from the scopes: a name's sum over every scope, or its
  max for ``set_max`` names.  Nothing can write around a scope, so the
  per-rank attribution always adds up (the golden-trace suite hashes the
  view).
- **Gauges** are last-value-wins per scope (queue depths, occupancy).
- **Histograms** are fixed-bucket (power-of-two upper bounds), so memory
  is bounded no matter how many values are observed.
- **Spans** are start/end op records keyed to the *simulated* clock
  (pwc/gwc/eager/rendezvous/retry), carrying peer and byte counts.  They
  are pure host-side bookkeeping: recording a span never advances the
  simulation, consumes RNG, or reorders events, so enabling them cannot
  perturb golden traces.  Completed spans live in a bounded ring
  (:attr:`MetricsRegistry.max_spans`, oldest dropped first) and feed both
  the per-op latency histograms and the JSONL trace export.
- **Trace records** are ``(time, category, fields)`` events (NIC tx/rx,
  chaos faults, health verdicts) a scope appends with :meth:`log` when
  the cluster was built with ``trace=True``.  They share one bounded
  ring per registry (:attr:`MetricsRegistry.max_records`, oldest dropped
  first), so long trace-enabled runs cannot grow without bound.

Everything here is disabled-cheap: with ``spans_enabled`` off (the
default) ``scope.span(...)`` is one attribute load and a ``return None``,
and ``observe``/``set_gauge`` are a dict update at most.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..sim.trace import Counters

__all__ = ["MetricsRegistry", "ScopedCounters", "AggregateCounters",
           "Histogram", "Span", "TraceRecord", "FABRIC_SCOPE",
           "DEFAULT_SPAN_CAP", "DEFAULT_TRACE_CAP"]

#: scope label for non-rank-attributable hardware (links, switch ports)
FABRIC_SCOPE = "fabric"

#: default completed-span ring capacity (bounded memory for long runs)
DEFAULT_SPAN_CAP = 65_536

#: default trace-record ring capacity — far above what any in-repo
#: workload records (the golden-trace suite peaks in the low tens of
#: thousands)
DEFAULT_TRACE_CAP = 1_000_000

#: histogram bucket upper bounds: powers of two, 64 ns .. ~1.1 s, plus +inf
_BUCKET_BOUNDS = tuple(1 << k for k in range(6, 31))


class Histogram:
    """Fixed-bucket histogram (power-of-two upper bounds, ns-oriented)."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self):
        self.counts = [0] * (len(_BUCKET_BOUNDS) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        v = int(value)
        # bucket index via bit_length: first bound >= v (bounds start at 2^6)
        idx = max(0, (v - 1).bit_length() - 6) if v > 0 else 0
        if idx > len(_BUCKET_BOUNDS):
            idx = len(_BUCKET_BOUNDS)
        self.counts[idx] += 1
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def snapshot(self) -> Dict[str, object]:
        buckets = {str(_BUCKET_BOUNDS[i]): n
                   for i, n in enumerate(self.counts[:-1]) if n}
        if self.counts[-1]:
            buckets["+inf"] = self.counts[-1]
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max, "buckets": buckets}


@dataclass(frozen=True)
class TraceRecord:
    """One logged event: the simulated instant, a dotted category and
    the fields in the order they were logged."""

    time: int
    category: str
    fields: Tuple[Tuple[str, Any], ...]

    def as_dict(self) -> Dict[str, Any]:
        d = dict(self.fields)
        d["time"] = self.time
        d["category"] = self.category
        return d


class Span:
    """One timed operation (open until :meth:`end` is called)."""

    __slots__ = ("name", "scope", "peer", "nbytes", "t_start", "t_end",
                 "status", "extra")

    def __init__(self, name: str, scope: "ScopedCounters", t_start: int,
                 peer: Optional[int], nbytes: int):
        self.name = name
        self.scope = scope
        self.peer = peer
        self.nbytes = nbytes
        self.t_start = t_start
        self.t_end: Optional[int] = None
        self.status = "open"
        self.extra: Optional[Dict[str, object]] = None

    @property
    def duration_ns(self) -> Optional[int]:
        return None if self.t_end is None else self.t_end - self.t_start

    def end(self, t_end: int, status: str = "ok", **extra: object) -> None:
        """Close the span (idempotent; the first close wins)."""
        if self.t_end is not None:
            return
        self.t_end = t_end
        self.status = status
        if extra:
            self.extra = extra
        self.scope._close_span(self)

    def as_dict(self) -> Dict[str, object]:
        d = {"span": self.name, "rank": self.scope.label, "peer": self.peer,
             "bytes": self.nbytes, "t_start": self.t_start,
             "t_end": self.t_end, "duration_ns": self.duration_ns,
             "status": self.status}
        if self.extra:
            d.update(self.extra)
        return d


class ScopedCounters(Counters):
    """One scope's counters, plus live gauge/histogram/span recording.

    API-compatible with :class:`~repro.sim.trace.Counters` (components
    take either).
    """

    def __init__(self, registry: "MetricsRegistry", label: object):
        super().__init__(values=Counter())
        self.registry = registry
        #: rank number, or :data:`FABRIC_SCOPE`
        self.label = label
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------- counters
    # (both spelled out here, not inherited, so the layer ledger books
    # the cost of counting to obs)
    def add(self, name: str, amount: int = 1) -> None:
        self.values[name] += amount

    def set_max(self, name: str, value: int) -> None:
        self.registry._max_names.add(name)
        if value > self.values.get(name, 0):
            self.values[name] = value

    # ------------------------------------------------------------- gauges
    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # ------------------------------------------------------------- histograms
    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------- spans
    def span(self, name: str, t_start: int, peer: Optional[int] = None,
             nbytes: int = 0) -> Optional[Span]:
        """Open a span, or return None when span recording is disabled."""
        if not self.registry.spans_enabled:
            return None
        return Span(name, self, t_start, peer, nbytes)

    def _close_span(self, span: Span) -> None:
        self.observe(f"{span.name}.latency_ns", span.duration_ns)
        self.registry._record_span(span)

    # ------------------------------------------------------------- trace
    def log(self, time: int, category: str, **fields: Any) -> None:
        """Append a trace record to the registry's ring (a no-op unless
        trace recording is on)."""
        reg = self.registry
        if not reg.trace_enabled:
            return
        if len(reg.records) >= reg.max_records:
            reg.records.popleft()
            reg.records_dropped += 1
        reg.records.append(TraceRecord(time, category, tuple(fields.items())))

    # ------------------------------------------------------------- snapshots
    def metrics_snapshot(self) -> Dict[str, object]:
        """JSON-serializable view of this scope's metrics."""
        return {
            "counters": dict(self.values),
            "gauges": dict(self.gauges),
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self.histograms.items())},
        }


class AggregateCounters:
    """Read-only cluster-wide counters, answered from the scopes: a name's
    sum over every scope, or its max over them for ``set_max`` names."""

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry

    def get(self, name: str) -> int:
        reg = self._registry
        counts = [s.values.get(name, 0) for s in reg._scopes()]
        return max(counts) if name in reg._max_names else sum(counts)

    @property
    def values(self) -> Counter:
        reg = self._registry
        scopes = reg._scopes()
        total: Counter = Counter()
        for scope in scopes:
            total.update(scope.values)
        for name in reg._max_names:
            peaks = [s.values[name] for s in scopes if name in s.values]
            if peaks:
                total[name] = max(peaks)
        return total

    def snapshot(self) -> Dict[str, int]:
        return dict(self.values)


class MetricsRegistry:
    """One registry per cluster: rank scopes, a fabric scope, the
    read-only aggregate over them, and the bounded rings of completed
    spans and trace records."""

    def __init__(self, n_ranks: int, spans_enabled: bool = False,
                 trace_enabled: bool = False):
        if n_ranks < 1:
            raise ValueError("registry needs at least one rank")
        self.n_ranks = n_ranks
        self.spans_enabled = spans_enabled
        self.trace_enabled = trace_enabled
        #: span ring capacity (a long measurement run may raise it)
        self.max_spans = DEFAULT_SPAN_CAP
        #: the cluster-wide counters (``cluster.counters``)
        self.aggregate = AggregateCounters(self)
        self.ranks: List[ScopedCounters] = [
            ScopedCounters(self, r) for r in range(n_ranks)]
        self.fabric = ScopedCounters(self, FABRIC_SCOPE)
        self.spans: Deque[Span] = deque()
        #: completed spans evicted from the full ring (oldest-first)
        self.spans_dropped = 0
        #: trace-record ring capacity
        self.max_records = DEFAULT_TRACE_CAP
        self.records: Deque[TraceRecord] = deque()
        #: trace records evicted from the full ring (oldest-first)
        self.records_dropped = 0
        #: names with high-water-mark (max) semantics: the aggregate is the
        #: max over scopes, not the sum
        self._max_names: set = set()

    # ------------------------------------------------------------- scopes
    def scope(self, rank: Optional[int] = None) -> ScopedCounters:
        """The counter scope for ``rank`` (None → the fabric scope)."""
        return self.fabric if rank is None else self.ranks[rank]

    def _scopes(self) -> List[ScopedCounters]:
        return self.ranks + [self.fabric]

    # ------------------------------------------------------------- spans
    def _record_span(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.spans.popleft()
            self.spans_dropped += 1
        self.spans.append(span)

    def span_durations(self, name: Optional[str] = None,
                       rank: Optional[int] = None) -> List[int]:
        """Raw durations of completed spans, filtered by name/rank — feed
        these to :func:`repro.util.stats.percentile` for exact latency
        percentiles."""
        return [s.duration_ns for s in self.spans
                if (name is None or s.name == name)
                and (rank is None or s.scope.label == rank)]

    def attribution_gaps(self) -> Dict[str, int]:
        """Counts no scope accounts for: none, since the aggregate is read
        from the scopes."""
        return {}
