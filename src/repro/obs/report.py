"""Merged observability snapshot + report CLI.

:func:`build_snapshot` folds every telemetry surface the stack exposes
into one JSON-serializable document:

- per rank: the metrics-registry scope (counters/gauges/histograms),
  ``Endpoint.stats()`` (queues, rings, rcache occupancy),
  ``Endpoint.telemetry()`` (fault-domain counters, now genuinely
  per-rank), minimpi ``Engine.stats()`` and runtime transport stats when
  provided, plus exact per-op latency percentiles computed from span
  records with :mod:`repro.util.stats`;
- cluster-wide: the aggregate counters, attribution gaps (names written
  outside any scope), span-ring occupancy, per-link fabric stats.

``python -m repro.obs.report`` runs a small R17-style lossy workload
(PWC puts, eager sends, a rendezvous message, minimpi eager+rendezvous
traffic, then coalesced active-message echoes over the parcel runtime)
with spans and tracing enabled, prints a summary, and can write
the snapshot (``--json``) and the bounded JSONL trace (``--trace``) —
the same artifacts CI uploads from the smoke run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..util.stats import percentile
from .export import export_jsonl
from .registry import MetricsRegistry

__all__ = ["build_snapshot", "run_demo", "main"]

_WAIT = 10 ** 12


def _span_percentiles(registry: MetricsRegistry,
                      rank: Optional[int]) -> Dict[str, Dict[str, float]]:
    """Exact latency percentiles per span name for one rank (None = all)."""
    by_name: Dict[str, List[int]] = {}
    for span in registry.spans:
        if rank is not None and span.scope.label != rank:
            continue
        by_name.setdefault(span.name, []).append(span.duration_ns)
    out = {}
    for name, durations in sorted(by_name.items()):
        out[name] = {
            "n": len(durations),
            "p50_ns": percentile(durations, 50.0),
            "p95_ns": percentile(durations, 95.0),
            "p99_ns": percentile(durations, 99.0),
            "max_ns": float(max(durations)),
        }
    return out


def _rank_section(entry: Dict[str, object], key: str, obj,
                  method: str) -> bool:
    """Fill ``entry[key]`` from ``obj.method()``; report rank death.

    A rank that was crashed mid-run (chaos ``CrashRank``) may be handed
    to us as ``None`` — callers that keep per-rank lists often null out
    the slot — or as an endpoint whose volatile state is gone so its
    stats accessor raises.  Either way the snapshot must not raise: the
    section becomes ``None`` and the caller marks the rank dead.
    """
    if obj is None:
        entry[key] = None
        return True
    try:
        entry[key] = getattr(obj, method)()
    except Exception:
        entry[key] = None
        return True
    return False


def build_snapshot(cluster, photons=None, comms=None,
                   transports=None) -> Dict[str, object]:
    """One JSON-serializable observability document for a whole cluster.

    ``photons``/``comms``/``transports`` are optional per-rank lists (from
    ``photon_init``/``mpi_init``/``build_runtime``); sections are included
    for whatever is provided.  Ranks that died mid-run (chaos crashes:
    slot is ``None``, endpoint reports ``alive == False``, or its stats
    raise) are included with ``"dead": true`` rather than raising — their
    metrics-registry scope is still valid and is always reported.
    """
    registry: MetricsRegistry = cluster.metrics
    ranks: Dict[str, Dict[str, object]] = {}
    for r in range(cluster.n):
        scope = registry.scope(r)
        entry: Dict[str, object] = {"metrics": scope.metrics_snapshot()}
        dead = False
        if photons is not None:
            ep = photons[r] if r < len(photons) else None
            dead |= _rank_section(entry, "photon", ep, "stats")
            dead |= _rank_section(entry, "telemetry", ep, "telemetry")
            if ep is not None and not getattr(ep, "alive", True):
                dead = True
        if comms is not None:
            comm = comms[r] if r < len(comms) else None
            dead |= _rank_section(entry, "mpi", comm, "stats")
        if transports is not None:
            tp = transports[r] if r < len(transports) else None
            dead |= _rank_section(entry, "transport", tp, "stats")
        if dead:
            entry["dead"] = True
        latencies = _span_percentiles(registry, r)
        if latencies:
            entry["op_latency"] = latencies
        ranks[str(r)] = entry
    return {
        "sim_now_ns": cluster.env.now,
        "n_ranks": cluster.n,
        "ranks": ranks,
        "fabric": {
            "metrics": registry.fabric.metrics_snapshot(),
            "links": [link.stats() for link in cluster.topology.iter_links()],
        },
        "aggregate": {
            "counters": registry.aggregate.snapshot(),
            "attribution_gaps": registry.attribution_gaps(),
        },
        "spans": {
            "recorded": len(registry.spans),
            "dropped": registry.spans_dropped,
            "enabled": registry.spans_enabled,
        },
        "trace": {
            "records": len(cluster.tracer.records),
            "dropped": cluster.tracer.dropped,
            "enabled": cluster.tracer.enabled,
        },
    }


# --------------------------------------------------------------------------
# demo workload (the CLI's subject; also used by tests and CI artifacts)
# --------------------------------------------------------------------------

def run_demo(n_msgs: int = 12, loss: float = 1e-3, seed: int = 7):
    """R17-style lossy traffic with full observability enabled.

    Photon PWC puts + eager sends + one rendezvous message and a minimpi
    eager/rendezvous stream share one 2-rank lossy fabric (NIC ARQ off so
    drops surface to the middleware); once they are through, a runtime
    over the same endpoints floods ``n_msgs`` coalesced echo invokes and
    then sends one alone.  Returns ``(cluster, photons, comms,
    snapshot)``.
    """
    from ..cluster import build_cluster
    from ..minimpi import mpi_init
    from ..photon import PhotonConfig, photon_init
    from ..runtime import ActionRegistry, build_runtime
    from ..sim.core import SimulationError

    cl = build_cluster(2, params="ib-fdr", seed=seed, trace=True, spans=True,
                       link__loss_mode="lossy", link__drop_rate=loss,
                       nic__transport_retries=0)
    ph = photon_init(cl, PhotonConfig(max_op_retries=5))
    mm = mpi_init(cl)
    size = 16384
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)
    pattern = bytes(range(256)) * (size // 256)
    cl[0].memory.write(src.addr, pattern)
    m_src = cl[0].memory.alloc(size)
    m_dst = cl[1].memory.alloc(size)
    cl[0].memory.write(m_src, pattern)
    scratch = cl[1].memory.alloc(4 * size)

    def photon_sender(env):
        for i in range(n_msgs):
            yield from ph[0].put_pwc(1, src.addr, size, dst.addr, dst.rkey,
                                     local_cid=i + 1, remote_cid=i + 1)
            c = yield from ph[0].wait_completion("local", timeout_ns=_WAIT)
            if c is None or not c.ok:
                raise SimulationError(f"demo put {i} failed")
        for i in range(n_msgs):
            yield from ph[0].send_pwc(1, bytes([i]) * 128, remote_cid=500 + i)
        rid = yield from ph[0].send_rdma(1, src.addr, size, tag=9)
        yield from ph[0].wait(rid)
        ph[0].free_request(rid)

    def photon_receiver(env):
        for _ in range(n_msgs):
            c = yield from ph[1].wait_completion("remote", timeout_ns=_WAIT)
            if c is None:
                raise SimulationError("demo receiver starved")
        for _ in range(n_msgs):
            m = yield from ph[1].wait_message(timeout_ns=_WAIT)
            if m is None:
                raise SimulationError("demo eager stream stalled")
        info = yield from ph[1].wait_recv_info(src=0, tag=9,
                                               timeout_ns=_WAIT)
        if info is None:
            raise SimulationError("demo rendezvous starved")
        yield from ph[1].recv_rdma(info, scratch)

    def mpi_sender(env):
        for i in range(n_msgs):
            sz = 256 if i % 2 else size  # alternate eager / rendezvous
            req = yield from mm[0].isend(m_src, sz, 1, tag=i)
            ok = yield from mm[0].engine.wait(req, timeout_ns=_WAIT)
            if not ok or req.failed:
                raise SimulationError(f"demo mpi send {i} failed")

    def mpi_receiver(env):
        for i in range(n_msgs):
            sz = 256 if i % 2 else size
            req = yield from mm[1].irecv(m_dst, sz, src=0, tag=i)
            ok = yield from mm[1].engine.wait(req, timeout_ns=_WAIT)
            if not ok or req.failed:
                raise SimulationError(f"demo mpi recv {i} failed")

    procs = [cl.env.process(photon_sender(cl.env)),
             cl.env.process(photon_receiver(cl.env)),
             cl.env.process(mpi_sender(cl.env)),
             cl.env.process(mpi_receiver(cl.env))]
    cl.env.run(until=cl.env.all_of(procs))
    if bytes(cl[1].memory.read(dst.addr, size)) != pattern:
        raise SimulationError("demo payload corrupted")

    reg = ActionRegistry()
    reg.register("echo", lambda rt, src, payload: payload)
    rts = build_runtime(cl, reg, "photon", photon=ph, am=True,
                        coalesce_opts={"flush_count": 4})
    echoed = []

    def am_client(env):
        futs = []
        for i in range(n_msgs):
            futs.append((yield from rts[0].invoke(1, "echo", bytes([i]) * 16)))
        for fut in futs:
            echoed.append((yield from fut.wait(rts[0], _WAIT)))
        # ... and one alone, with nothing to share a batch with
        fut = yield from rts[0].invoke(1, "echo", bytes([n_msgs]) * 16)
        echoed.append((yield from fut.wait(rts[0], _WAIT)))

    def am_server(env):
        yield from rts[1].process_until(lambda: len(echoed) > n_msgs, _WAIT)

    cl.env.run(until=cl.env.all_of([cl.env.process(am_client(cl.env)),
                                    cl.env.process(am_server(cl.env))]))
    if echoed != [bytes([i]) * 16 for i in range(n_msgs + 1)]:
        raise SimulationError("demo echo corrupted")
    snapshot = build_snapshot(cl, photons=ph, comms=mm,
                              transports=[rt.transport for rt in rts])
    return cl, ph, mm, snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="run a lossy observability demo workload and emit the "
                    "merged stats snapshot / JSONL trace")
    parser.add_argument("--msgs", type=int, default=12,
                        help="messages per stream (default 12)")
    parser.add_argument("--loss", type=float, default=1e-3,
                        help="chunk loss probability (default 1e-3)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", metavar="PATH",
                        help="write the merged snapshot as JSON")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the JSONL trace+span export")
    args = parser.parse_args(argv)

    cl, _ph, _mm, snapshot = run_demo(n_msgs=args.msgs, loss=args.loss,
                                      seed=args.seed)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.trace:
        lines = export_jsonl(args.trace, tracer=cl.tracer,
                             registry=cl.metrics)
        print(f"wrote {args.trace} ({lines} lines)")
    agg = snapshot["aggregate"]["counters"]
    print(f"sim time {snapshot['sim_now_ns']} ns, "
          f"{snapshot['spans']['recorded']} spans, "
          f"{snapshot['trace']['records']} trace records")
    for key in ("photon.op_retries", "photon.dup_drops", "link.drops",
                "mpi.ctrl_resends"):
        print(f"  {key}: {agg.get(key, 0)}")
    # runtime: why coalesced batches left, and how long they had been open
    why = {k: agg.get(f"coalesce.ship.{k}", 0)
           for k in ("full", "stale", "idle", "flush")}
    print(f"  coalesce.batches_sent: {agg.get('coalesce.batches_sent', 0)} "
          + " ".join(f"{k}={n}" for k, n in why.items()))
    for r, entry in snapshot["ranks"].items():
        hist = entry["metrics"]["histograms"].get("coalesce.open_ns")
        if hist:
            print(f"  rank {r} coalesce.open_ns: n={hist['count']} "
                  f"min={hist['min']} max={hist['max']}")
    gaps = snapshot["aggregate"]["attribution_gaps"]
    if gaps:
        print(f"  attribution gaps: {gaps}")
    # the whole point: the merged snapshot is JSON-clean
    json.dumps(snapshot)
    print("snapshot is JSON-serializable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
