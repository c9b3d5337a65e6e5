"""Merged observability snapshot + report CLI.

:func:`build_snapshot` folds every observability surface the stack exposes
into one JSON-serializable document:

- per rank: the metrics-registry scope (counters/gauges/histograms —
  the one source of every count), ``Endpoint.stats()`` (queues, rings,
  in-flight ops, rcache occupancy), minimpi ``Engine.stats()`` and
  runtime transport stats when provided, plus exact per-op latency
  percentiles computed from span records with :mod:`repro.util.stats`;
- cluster-wide: the aggregate counters (summed from the scopes),
  span-ring occupancy, per-link fabric stats.

``python -m repro.obs.report [demo|chaos|failover|restart]`` is the one
artifact program: it runs one of :data:`SCENARIOS` (``demo``, the
default, is :func:`run_demo`), prints a summary, can write the snapshot
(``--json``) and the JSONL export of the registry's trace records and
spans (``--trace``) — the artifacts CI's bench, chaos and kv legs upload
— and exits 1 when the scenario's check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..util.stats import percentile
from .export import export_jsonl
from .registry import MetricsRegistry

__all__ = ["build_snapshot", "run_demo", "SCENARIOS", "main"]

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
        "aggregate": {"counters": registry.aggregate.snapshot()},
        "spans": {
            "recorded": len(registry.spans),
            "dropped": registry.spans_dropped,
            "enabled": registry.spans_enabled,
        },
        "trace": {
            "records": len(registry.records),
            "dropped": registry.records_dropped,
            "enabled": registry.trace_enabled,
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


def _demo():
    cl, _ph, _mm, snapshot = run_demo()
    # the demo's point: the merged snapshot is JSON-clean
    json.dumps(snapshot)
    return cl, snapshot, []


def _chaos():
    """R19's crash/restart scenario: its shape checks and invariants."""
    from ..bench.experiments import r19_chaos
    raw = r19_chaos.run_scenario()
    result = r19_chaos.run(scenario=raw)
    print(result.render())
    cl = raw["cluster"]
    return cl, build_snapshot(cl, photons=raw["photon"]), \
        result.failed_checks()


def _failover():
    """R20's leader crash: the snapshot must mark the crashed rank dead."""
    from ..bench.experiments.r20_kvstore import run_failover
    sc = run_failover()["scenario"]
    snapshot = build_snapshot(sc.cluster, photons=sc.photon)
    dead = [r for r, e in snapshot["ranks"].items() if e.get("dead")]
    print(f"dead ranks in snapshot: {dead}")
    return sc.cluster, snapshot, \
        [] if dead else ["the crashed leader is marked dead"]


def _restart():
    """R21's restart: the victim's rejoin must surface as an install."""
    from ..bench.experiments.r21_snapshots import run_chaos_move
    sc = run_chaos_move()["scenario"]
    snapshot = build_snapshot(sc.cluster, photons=sc.photon)
    installs = sum(e["metrics"]["counters"].get("kv.snapshot_installs", 0)
                   for e in snapshot["ranks"].values())
    print(f"snapshot installs in obs snapshot: {installs}")
    return sc.cluster, snapshot, \
        [] if installs else ["the restart rejoin surfaces as an install"]


#: scenario name -> () -> (cluster, snapshot, failed checks)
SCENARIOS = {"demo": _demo, "chaos": _chaos, "failover": _failover,
             "restart": _restart}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="run one scenario with observability on, check it, and "
                    "emit the merged stats snapshot / JSONL trace; exits 1 "
                    "when the scenario's check fails")
    parser.add_argument("scenario", nargs="?", default="demo",
                        choices=SCENARIOS, help="default: demo")
    parser.add_argument("--json", metavar="PATH",
                        help="write the merged snapshot as JSON")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the JSONL trace+span export")
    args = parser.parse_args(argv)

    cl, snapshot, failed = SCENARIOS[args.scenario]()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.trace:
        lines = export_jsonl(args.trace, cl.metrics)
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
    if failed:
        print(f"FAILED checks: {failed}", file=sys.stderr)
        return 1
    print(f"{args.scenario}: all checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
