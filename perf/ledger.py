"""The per-layer ledger: host shares, counts per op, simulated spans.

Everything is derived from outside the program: a cProfile of one block
bucketed by source path, the counter deltas ``cluster.counters`` shows
over a spans-on block's timed region, the spans that block recorded, and
the KV clients' ``ClientStats``.  A metric whose mechanism a workload
never touches reads 0 there (no ``kv.*`` on ``pwc_sweep``).
"""

from __future__ import annotations

import pstats
import re
from typing import Dict

from .catalog import LAYERS, PER_LAYER, SPANS
from .harness import WARMUP_SCALE, BlockResult, percentile, run_block
from .layers import BENCHES, measure

__all__ = ["host_shares", "count_metrics", "span_metrics", "traced_run"]

_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def host_shares(result: BlockResult) -> Dict[str, float]:
    """Self-time share per layer from the block's cProfile.

    A function belongs to the ``src/repro`` package its file sits in;
    drivers (apps, chaos, cluster, bench, util), builtins, numpy and the
    benchmark's own files are ``other``.  Shares sum to 1.
    """
    totals = {layer: 0.0 for layer in LAYERS + ("other",)}
    stats = pstats.Stats(result.profile).stats
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) \
            in stats.items():
        match = _PACKAGE.search(filename)
        layer = match.group(1) if match else "other"
        totals[layer if layer in LAYERS else "other"] += tottime
    whole = sum(totals.values())
    return {f"host_share.{layer}": t / whole for layer, t in totals.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(traced: BlockResult, plain: BlockResult) -> Dict[str, float]:
    """Counts per completed op over the spans-on block's timed region;
    the one host rate (``sim.events_per_host_s``) comes from the
    untraced block."""
    c = traced.counters
    ops = traced.completed
    x = traced.extra
    harvested = (c["photon.local_cids"] + c["photon.remote_cids"]
                 + c["photon.eager_msgs"])
    return {
        "sim.events_per_host_s": plain.events / plain.host_s,
        "fabric.link_chunks_per_op": _ratio(c["link.chunks"], ops),
        "fabric.nic_tx_msgs_per_op": _ratio(c["nic.tx_msgs"], ops),
        "fabric.nic_retransmits_per_op": _ratio(c["nic.retransmits"], ops),
        "fabric.link_drop_share": _ratio(
            c["link.drops"], c["link.drops"] + c["link.chunks"]),
        "verbs.post_send_per_op": _ratio(c["verbs.post_send"], ops),
        "verbs.reg_mr_per_op": _ratio(c["verbs.reg_mr"], ops),
        "photon.posts_per_op": _ratio(c["photon.posts"], ops),
        "photon.progress_passes_per_op": _ratio(
            c["photon.progress_passes"], ops),
        "photon.useful_probe_share": _ratio(
            harvested, c["photon.progress_passes"]),
        "photon.op_retries_per_op": _ratio(c["photon.op_retries"], ops),
        "photon.entry_resends_per_op": _ratio(
            c["photon.entry_resends"], ops),
        "photon.rcache_hit_share": _ratio(
            c["photon.rcache.hits"],
            c["photon.rcache.hits"] + c["photon.rcache.misses"]),
        "minimpi.progress_passes_per_op": _ratio(
            c["mpi.progress_passes"], ops),
        "minimpi.unexpected_share": _ratio(
            c["mpi.unexpected"] + c["mpi.unexpected_rts"], c["mpi.irecvs"]),
        "runtime.parcels_sent_per_op": _ratio(c["rt.parcels_sent"], ops),
        "runtime.coalesce_batch_fill": _ratio(
            c["rt.parcels_sent"], c["coalesce.batches_sent"]),
        "runtime.am_credit_stalls_per_op": _ratio(
            c["am.credit_stalls"], ops),
        "runtime.am_duplicate_share": _ratio(
            c["am.duplicate_requests"], c["am.requests_served"]
            + c["am.duplicate_requests"]),
        "runtime.transport_resends_per_op": _ratio(
            c["transport.parcel_resends"], ops),
        "kv.raft_msgs_per_op": _ratio(c["kv.raft_msgs"], ops),
        "kv.redirects_per_op": _ratio(x.get("redirects", 0), ops),
        "kv.lease_reject_share": _ratio(
            c["kv.lease_rejects"], c["kv.lease_rejects"]
            + c["kv.lease_reads"]),
        "kv.onesided_fallback_share": _ratio(
            x.get("onesided_fallbacks", 0),
            x.get("onesided_fallbacks", 0) + x.get("onesided_reads", 0)),
        "kv.snapshot_installs": float(c["kv.snapshot_installs"]),
    }


def span_metrics(traced: BlockResult) -> Dict[str, Dict[str, float]]:
    """p50/p99 (us) and sample count of each layer's simulated spans."""
    out: Dict[str, Dict[str, float]] = {}
    for stem, (span_name, _moves) in SPANS.items():
        xs = traced.spans_ns.get(span_name, ())
        out[stem] = {
            "n": len(xs),
            "p50_us": percentile(xs, 50.0) / 1e3 if xs else 0.0,
            "p99_us": percentile(xs, 99.0) / 1e3 if xs else 0.0,
        }
    return out


def _signature(result: BlockResult) -> tuple:
    """What must not change when spans or the profiler are switched on."""
    return (result.attempted, result.completed, result.failed,
            result.sim_ns, result.payload_bytes, result.events,
            tuple((cls, tuple(xs))
                  for cls, xs in sorted(result.latency_ns.items())))


def traced_run(workload_cls, seed: int, scale: float,
               trace) -> Dict[str, object]:
    """The separate traced run behind every per-layer number.

    One warm-up block, then the *same* block (seed ``seed*1000+1``) four
    times — plain, spans on, under cProfile, plain again — then every
    layer microbenchmark.  The faster plain block is the yardstick (a
    burst of interference during a single plain block would otherwise
    turn the overheads negative): the traced blocks must reproduce its
    simulated results exactly, and their extra host time is reported as
    the tracing overhead, so nobody reads traced host numbers as real
    ones.
    """
    name = workload_cls.name
    block_seed = seed * 1000 + 1
    trace.context = {"workload": name, "block": "warmup"}
    run_block(workload_cls, seed * 1000, scale * WARMUP_SCALE, trace=trace)
    blocks = {}
    for label, kwargs in (("plain", {}), ("spans", {"spans": True}),
                          ("profile", {"profile": True}), ("plain2", {})):
        trace.context = {"workload": name, "block": label}
        with trace.span("block"):
            blocks[label] = run_block(workload_cls, block_seed, scale,
                                      trace=trace, **kwargs)
    spans, profiled = blocks["spans"], blocks["profile"]
    plain = min(blocks["plain"], blocks["plain2"], key=lambda r: r.host_s)
    errors = [e for r in blocks.values() for e in r.errors]
    for label in blocks:
        if _signature(blocks[label]) != _signature(plain):
            errors.append(f"{label} block's simulated results differ from "
                          "the untraced block's")

    values: Dict[str, float] = {}
    values.update(host_shares(profiled))
    values.update(count_metrics(spans, plain))
    span_rows = span_metrics(spans)
    for stem, row in span_rows.items():
        values[f"{stem}_p50_us"] = row["p50_us"]
        values[f"{stem}_p99_us"] = row["p99_us"]
    values["obs.spans_overhead_share"] = \
        (spans.host_s - plain.host_s) / plain.host_s
    values["obs.profile_overhead_share"] = \
        (profiled.host_s - plain.host_s) / plain.host_s

    units = {m.name: m.unit for m in PER_LAYER}
    micro = {}
    trace.context = {"workload": name, "block": "micro"}
    for metric, bench in BENCHES.items():
        with trace.span(f"micro.{metric}"):
            micro[metric] = measure(bench, units[metric])
        values[metric] = micro[metric]["value"]

    return {
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in PER_LAYER},
        "attempted": plain.attempted, "completed": plain.completed,
        "failed": plain.failed, "errors": errors,
        "spans": span_rows, "micro": micro,
        "blocks": {label: {"host_s": r.host_s, "setup_s": r.setup_s,
                           "events": r.events, "sim_ns": r.sim_ns}
                   for label, r in blocks.items()},
    }
