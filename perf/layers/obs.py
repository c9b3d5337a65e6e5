"""obs: what one counter increment and one recorded span cost."""

from __future__ import annotations

import time

from repro.obs.registry import MetricsRegistry

ADDS = 50_000
SPANS = 20_000


def counter_add():
    """ScopedCounters.add: scope write + aggregate mirror."""
    scope = MetricsRegistry(2).scope(0)
    add = scope.add
    t0 = time.perf_counter()
    for _ in range(ADDS):
        add("perf.probe")
    dt = time.perf_counter() - t0
    if scope.get("perf.probe") != ADDS:
        raise RuntimeError("counter lost increments")
    return ADDS, dt


def span_record():
    """Open + close one span with recording on: Span object, latency
    histogram observe, bounded ring append."""
    registry = MetricsRegistry(2, spans_enabled=True)
    scope = registry.scope(0)
    t0 = time.perf_counter()
    for i in range(SPANS):
        scope.span("perf.probe", i, peer=1, nbytes=64).end(i + 100)
    dt = time.perf_counter() - t0
    if len(registry.spans) != SPANS:
        raise RuntimeError("span ring lost records")
    return SPANS, dt


BENCHES = {
    "obs.counter_add_ns": counter_add,
    "obs.span_ns": span_record,
}
