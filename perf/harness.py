"""Run shape shared by every workload: blocks, timing, aggregation.

A run is one discarded warm-up block plus ``BLOCKS`` measured blocks.
Block *i* builds fresh clusters from seed ``seed * 1000 + i``, does its
set-up (timed as ``setup_s``), then a timed region of a fixed number of
application ops.  Host time is ``time.perf_counter`` around the timed
region with a ``gc.collect()`` before it and the collector left on;
kernel events are the ``total_events_processed()`` delta over the same
region.  Draining and output verification happen after the clock stops.

Ops per block scale with ``--seconds`` (1:1 at ``REFERENCE_SECONDS``) so
the eight timed regions total about that long on the reference box; for
a given ``(seed, seconds, blocks)`` the work — and therefore every
simulated-time metric — is identical from run to run.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.core import total_events_processed

from .catalog import BLOCKS, REFERENCE_SECONDS
from .trace import HostTrace

__all__ = ["BlockResult", "run_block", "run_blocks", "aggregate",
           "percentile", "tail_percentile", "quartiles", "WARMUP_SCALE"]

#: the warm-up block does a tenth of a measured block's ops: enough to
#: import every module, fill the allocator's arenas and the sim freelists
WARMUP_SCALE = 0.1


@dataclass
class BlockResult:
    """What one block's workload hands back after verification."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    #: simulated ns covered by the timed region (summed over its phases)
    sim_ns: int = 0
    #: verified payload bytes delivered
    payload_bytes: int = 0
    #: latency class -> simulated ns samples
    latency_ns: Dict[str, List[int]] = field(default_factory=dict)
    #: classes pooled into sim_p50_us / sim_p99_us (closed-loop samples)
    pooled: Sequence[str] = ()
    #: output-verification failures (empty = correct)
    errors: List[str] = field(default_factory=list)
    #: workload-side tallies for the layer ledger (e.g. KV ClientStats)
    extra: Dict[str, int] = field(default_factory=dict)
    # --- filled by run_block ---
    setup_s: float = 0.0
    host_s: float = 0.0
    events: int = 0
    counters: Counter = field(default_factory=Counter)
    spans_ns: Dict[str, List[int]] = field(default_factory=dict)
    profile: Optional[cProfile.Profile] = None


def _counter_totals(clusters) -> Counter:
    total: Counter = Counter()
    for cl in clusters:
        total.update(cl.counters.values)
    return total


def run_block(workload_cls, block_seed: int, scale: float,
              spans: bool = False, profile: bool = False,
              trace: Optional[HostTrace] = None) -> BlockResult:
    """Set up, time and verify one block of ``workload_cls``."""
    trace = trace or HostTrace(enabled=False)
    t0 = time.perf_counter()
    with trace.span("setup"):
        block = workload_cls(block_seed, scale, spans=spans, trace=trace)
    setup_s = time.perf_counter() - t0
    clusters = block.clusters
    if spans:
        counters0 = _counter_totals(clusters)
        spans0 = [len(cl.metrics.spans) for cl in clusters]
    prof = cProfile.Profile() if profile else None
    gc.collect()
    events0 = total_events_processed()
    if prof is not None:
        prof.enable()
    t1 = time.perf_counter()
    with trace.span("timed_region") as region:
        block.run(region)
    host_s = time.perf_counter() - t1
    if prof is not None:
        prof.disable()
    events = total_events_processed() - events0
    counters: Counter = Counter()
    spans_ns: Dict[str, List[int]] = {}
    if spans:
        counters = _counter_totals(clusters)
        counters.subtract(counters0)
        for cl, n0 in zip(clusters, spans0):
            if cl.metrics.spans_dropped:
                raise RuntimeError("span ring overflowed inside a block")
            for sp in islice(cl.metrics.spans, n0, None):
                spans_ns.setdefault(sp.name, []).append(sp.duration_ns)
    with trace.span("verify"):
        result: BlockResult = block.finish()
        for cl in clusters:
            gaps = cl.metrics.attribution_gaps()
            if gaps:
                result.errors.append(f"attribution gaps: {gaps}")
    result.setup_s = setup_s
    result.host_s = host_s
    result.events = events
    result.counters = counters
    result.spans_ns = spans_ns
    result.profile = prof
    # clusters are cyclic garbage holding 64 MiB mmaps per rank: free
    # them now, off every clock, instead of inside the next block
    del block, clusters
    gc.collect()
    return result


def run_blocks(workload_cls, seed: int, seconds: float, blocks: int = BLOCKS,
               scale: Optional[float] = None) -> List[BlockResult]:
    """The end-to-end run: warm-up block, then ``blocks`` measured ones."""
    if scale is None:
        scale = seconds / REFERENCE_SECONDS
    run_block(workload_cls, seed * 1000, scale * WARMUP_SCALE)
    return [run_block(workload_cls, seed * 1000 + i, scale)
            for i in range(1, blocks + 1)]


# ------------------------------------------------------------- statistics


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of ``samples`` (p in 0..100)."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


def tail_percentile(n: int) -> float:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 50.0


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def aggregate(results: List[BlockResult]) -> Dict[str, object]:
    """Fold measured blocks into the nine end-to-end metrics + detail."""
    completed = sum(r.completed for r in results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    sim_s = sum(r.sim_ns for r in results) / 1e9
    classes: Dict[str, List[int]] = {}
    for r in results:
        for cls, xs in r.latency_ns.items():
            classes.setdefault(cls, []).extend(xs)
    pooled_names = results[0].pooled
    pooled = [x for cls in pooled_names for x in classes.get(cls, ())]
    errors = [e for r in results for e in r.errors]
    if not pooled:
        # nothing to take a rate or a percentile of: the run is void
        return {"errors": errors + ["no op completed"], "metrics": {},
                "attempted": attempted, "completed": completed,
                "failed": failed}
    rates = [r.completed / r.host_s for r in results]
    setups = [r.setup_s for r in results]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metric(value: float, unit: str) -> Dict[str, object]:
        return {"value": value, "unit": unit}

    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        # upper quartile, not median: interference on a shared box only
        # ever slows a block down and comes in bursts of seconds, so the
        # fast quartile tracks the machine and the median the bursts
        "ops_per_host_s": metric(quartiles(rates)[2], "1/s"),
        "sim_ops_per_s": metric(completed / sim_s, "1/s"),
        "sim_p50_us": metric(percentile(pooled, 50.0) / 1e3, "us"),
        "sim_p99_us": metric(percentile(pooled, 99.0) / 1e3, "us"),
        "sim_goodput_mb_s": metric(
            sum(r.payload_bytes for r in results) / sim_s / 1e6, "MB/s"),
        "ok_share": metric(completed / attempted, "share"),
        "events_per_op": metric(
            sum(r.events for r in results) / completed, "count"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }
    class_rows = {}
    for cls, xs in sorted(classes.items()):
        tail = tail_percentile(len(xs))
        class_rows[cls] = {
            "n": len(xs), "pooled": cls in pooled_names,
            "p50_us": percentile(xs, 50.0) / 1e3,
            "tail_pct": tail, "tail_us": percentile(xs, tail) / 1e3,
        }
    return {
        "metrics": metrics,
        "attempted": attempted, "completed": completed, "failed": failed,
        "errors": errors,
        "samples": {"pooled_latency": len(pooled), "blocks": len(results)},
        "blocks": {"ops_per_host_s": rates, "setup_s": setups,
                   "host_s": [r.host_s for r in results]},
        "quartiles": {"ops_per_host_s": quartiles(rates),
                      "setup_s": quartiles(setups)},
        "classes": class_rows,
    }
