"""Names, units, directions and intent of everything the benchmark emits.

``/BENCHMARK.json`` carries the part of this the driver's schema has
room for (name, unit, direction, bound, one-line reason).  The rest —
which layer a per-layer metric belongs to and which end-to-end metric on
which workload it is expected to move — lives here and in README.md;
``perf/tests/test_contract.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = ["LAYERS", "WORKLOADS", "END_TO_END", "DETERMINISTIC",
           "PER_LAYER", "REFERENCE_SECONDS", "BLOCKS", "Workload",
           "EndToEnd", "LayerMetric"]

#: ``src/repro`` packages that count as layers; everything else a run
#: executes (apps, chaos, cluster, bench, util, builtins, numpy, perf/
#: itself) is ``other`` in the host-share table
LAYERS = ("sim", "fabric", "verbs", "photon", "minimpi", "runtime", "kv",
          "obs")

#: ``--seconds`` at which ops-per-block are sized 1:1 (= ``run_seconds``)
REFERENCE_SECONDS = 15
#: measured blocks per run (plus one discarded warm-up block)
BLOCKS = 8


class Workload(NamedTuple):
    name: str
    loop: str          # closed/open + window or client count
    ranks: str
    isolates: str      # layers meant to do the work
    why: str           # <= 200 chars, goes into BENCHMARK.json


WORKLOADS: List[Workload] = [
    Workload(
        "pwc_sweep", "closed, window 1 (burst: window 64)", "2",
        "sim fabric verbs photon minimpi",
        "2 ranks, no runtime/kv: closed window-1 put/get_pwc and minimpi "
        "ping-pong at 8B/4KiB/256KiB + window-64 send_pwc burst; "
        "per-message middleware cost dominates; bypass for runtime/kv"),
    Workload(
        "am_fanout", "closed, 8 searchers + window-32 floods", "8 + 2 + 2",
        "runtime",
        "8-rank MCTS all-to-all 16B invokes (coalescing on) + closed "
        "window-32 echo floods on Photon and MPI transports; parcel codec, "
        "coalescer, AM credits dominate; kv absent"),
    Workload(
        "kv_write", "closed, 4 clients", "6",
        "kv sim",
        "6 ranks, 2 groups x rf3, 4 closed-loop clients, Zipf 0.99 over "
        "192 keys, 10% get/90% put, rpc reads: Raft append-commit over PWC "
        "and the KVNode serve poll loop dominate"),
    Workload(
        "kv_read", "closed, 4 clients", "6",
        "kv photon",
        "same cluster and keys, 95% get/5% put, one-sided get_pwc reads "
        "of the slot table: zero remote CPU per read, so a write-path gain "
        "that slows the one-sided arm shows"),
    Workload(
        "kv_chaos", "closed, 4 clients", "6",
        "fabric photon runtime kv",
        "4 closed-loop clients, 50/50 rpc mix on a 1% lossy fabric with a "
        "500us follower partition and a leader crash per block: NIC ARQ, "
        "retries, failover, snapshots; fast-path gains predict no change"),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "host s per block before the timed region (cluster build, "
             "inits, election, preload), median of the blocks"),
    EndToEnd("ops_per_host_s", "1/s", "higher", 0.25,
             "app ops completed per host second of timed region, upper "
             "quartile of the blocks"),
    EndToEnd("sim_ops_per_s", "1/s", "higher", 0.08,
             "completed ops per simulated second, blocks pooled"),
    EndToEnd("sim_p50_us", "us", "lower", 0.10,
             "simulated per-op latency median, closed-loop samples pooled"),
    EndToEnd("sim_p99_us", "us", "lower", 0.25,
             "simulated per-op latency p99, closed-loop samples pooled"),
    EndToEnd("sim_goodput_mb_s", "MB/s", "higher", 0.08,
             "verified payload bytes per simulated second"),
    EndToEnd("ok_share", "share", "higher", 0.001,
             "ops completed / ops attempted (1 - failed share)"),
    EndToEnd("events_per_op", "count", "lower", 0.05,
             "kernel events per completed op in the timed region"),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.10,
             "ru_maxrss of the workload's process"),
]

#: repeat bit-for-bit for a (seed, seconds, blocks) triple
DETERMINISTIC = ("sim_ops_per_s", "sim_p50_us", "sim_p99_us",
                 "sim_goodput_mb_s", "ok_share", "events_per_op")


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    kind: str          # host_share | count | span | micro | overhead
    moves: str         # end-to-end metric @ workload it should move


def _host_shares() -> List[LayerMetric]:
    return [LayerMetric(f"host_share.{layer}", "share", "lower", layer,
                        "host_share", "ops_per_host_s @ this workload")
            for layer in LAYERS + ("other",)]


_COUNT_MOVES = "events_per_op, ops_per_host_s"
_COUNTS = [
    ("sim.events_per_host_s", "1/s", "higher", "ops_per_host_s @ all"),
    ("fabric.link_chunks_per_op", "count", "lower",
     f"{_COUNT_MOVES} @ pwc_sweep"),
    ("fabric.nic_tx_msgs_per_op", "count", "lower",
     f"{_COUNT_MOVES} @ kv_write, am_fanout"),
    ("fabric.nic_retransmits_per_op", "count", "lower",
     "sim_p99_us @ kv_chaos"),
    ("fabric.link_drop_share", "share", "lower", "sim_p99_us @ kv_chaos"),
    ("verbs.post_send_per_op", "count", "lower",
     f"{_COUNT_MOVES} @ pwc_sweep"),
    ("verbs.reg_mr_per_op", "count", "lower", "setup_s, sim_p50_us @ all"),
    ("photon.posts_per_op", "count", "lower", f"{_COUNT_MOVES} @ pwc_sweep"),
    ("photon.progress_passes_per_op", "count", "lower",
     f"{_COUNT_MOVES} @ kv_write, am_fanout; unchanged @ pwc_sweep"),
    ("photon.useful_probe_share", "share", "higher",
     f"{_COUNT_MOVES} @ kv_write, am_fanout; unchanged @ pwc_sweep"),
    ("photon.op_retries_per_op", "count", "lower", "sim_p99_us @ kv_chaos"),
    ("photon.entry_resends_per_op", "count", "lower",
     "sim_p99_us @ kv_chaos"),
    ("photon.rcache_hit_share", "share", "higher", "sim_p50_us @ pwc_sweep"),
    ("minimpi.progress_passes_per_op", "count", "lower",
     f"{_COUNT_MOVES} @ pwc_sweep, am_fanout"),
    ("minimpi.unexpected_share", "share", "lower", "sim_p50_us @ pwc_sweep"),
    ("runtime.parcels_sent_per_op", "count", "lower",
     f"{_COUNT_MOVES} @ am_fanout, kv_write"),
    ("runtime.coalesce_batch_fill", "count", "higher",
     "sim_ops_per_s @ am_fanout"),
    ("runtime.am_credit_stalls_per_op", "count", "lower",
     "sim_p99_us @ am_fanout"),
    ("runtime.am_duplicate_share", "share", "lower", "ok_share @ am_fanout"),
    ("runtime.transport_resends_per_op", "count", "lower",
     "sim_p99_us @ kv_chaos"),
    ("kv.raft_msgs_per_op", "count", "lower", f"{_COUNT_MOVES} @ kv_write"),
    ("kv.redirects_per_op", "count", "lower", "sim_p99_us @ kv_chaos"),
    ("kv.lease_reject_share", "share", "lower", "sim_p99_us @ kv_chaos"),
    ("kv.onesided_fallback_share", "share", "lower", "sim_p50_us @ kv_read"),
    ("kv.snapshot_installs", "count", "lower", "sim_p99_us @ kv_chaos"),
]

#: metric stem -> (program span name, what it should move)
SPANS: Dict[str, tuple] = {
    "photon.pwc_put": ("photon.pwc_put",
                       "sim_p50_us, sim_p99_us @ pwc_sweep"),
    "photon.pwc_get": ("photon.pwc_get",
                       "sim_p50_us, sim_p99_us @ pwc_sweep, kv_read"),
    "photon.pwc_send": ("photon.pwc_send",
                        "sim_p50_us @ kv_write (kv.op_put minus this = "
                        "Raft + serve-loop wait)"),
    "photon.rndv_send": ("photon.rndv_send", "sim_p99_us @ am_fanout"),
    "minimpi.recv": ("mpi.recv", "sim_p50_us, sim_p99_us @ pwc_sweep"),
    "fabric.nic_arq": ("nic.arq", "sim_p99_us @ kv_chaos"),
    "runtime.am_invoke": ("am.invoke", "sim_p50_us, sim_p99_us @ am_fanout"),
    "kv.op_get": ("kv.op.get", "sim_p50_us @ kv_read"),
    "kv.op_put": ("kv.op.put", "sim_p50_us, sim_p99_us @ kv_write"),
    "kv.raft_install": ("kv.raft.install", "sim_p99_us @ kv_chaos"),
}

_MICRO = [
    ("sim.timeout_churn_events_per_s", "1/s", "higher"),
    ("sim.store_handoff_events_per_s", "1/s", "higher"),
    ("fabric.link_clean_chunks_per_s", "1/s", "higher"),
    ("fabric.link_lossy_chunks_per_s", "1/s", "higher"),
    ("fabric.nic_segment_reassemble_msgs_per_s", "1/s", "higher"),
    ("verbs.post_poll_wr_per_s", "1/s", "higher"),
    ("photon.pwc_eager_ops_per_s", "1/s", "higher"),
    ("photon.pwc_rndv_ops_per_s", "1/s", "higher"),
    ("photon.gwc_ops_per_s", "1/s", "higher"),
    ("minimpi.eager_msgs_per_s", "1/s", "higher"),
    ("runtime.parcel_codec_ops_per_s", "1/s", "higher"),
    ("runtime.parcel_dispatch_per_s", "1/s", "higher"),
    ("runtime.am_invoke_rt_per_s", "1/s", "higher"),
    ("kv.raft_commit_per_s", "1/s", "higher"),
    ("kv.command_codec_ops_per_s", "1/s", "higher"),
    ("obs.counter_add_ns", "ns", "lower"),
    ("obs.span_ns", "ns", "lower"),
]


def _per_layer() -> List[LayerMetric]:
    out = _host_shares()
    out += [LayerMetric(n, u, b, n.split(".")[0], "count", moves)
            for n, u, b, moves in _COUNTS]
    for stem, (_span, moves) in SPANS.items():
        for pct in ("p50", "p99"):
            out.append(LayerMetric(f"{stem}_{pct}_us", "us", "lower",
                                   stem.split(".")[0], "span", moves))
    out += [LayerMetric(n, u, b, n.split(".")[0], "micro",
                        f"host_share.{n.split('.')[0]} -> ops_per_host_s")
            for n, u, b in _MICRO]
    out += [
        LayerMetric("obs.spans_overhead_share", "share", "lower", "obs",
                    "overhead", "none: how far traced host numbers are off"),
        LayerMetric("obs.profile_overhead_share", "share", "lower", "obs",
                    "overhead", "none: how far profiled host numbers are "
                    "off"),
    ]
    return out


PER_LAYER: List[LayerMetric] = _per_layer()
