"""R23 — active-message invocation: coalesced AM vs per-parcel vs ISIR.

Small-message request/reply throughput and invoke latency for the
runtime's active-message layer (:mod:`repro.runtime.am`), three arms:

- ``am/photon``: one eager PWC parcel per invocation (per-parcel sends);
- ``am/photon+coal``: invocations batched per destination by the
  coalescing transport (Seriema-style invocation coalescing);
- ``am/mpi-isir``: the same invocations over the two-sided
  irecv/isend transport.

A client floods ``count`` 16-byte echo invocations at one server,
pipelined under the AM layer's credit window (credit backpressure is
the only flow control), on a clean and a lossy fabric.  Expected shape:
coalescing multiplies delivered invocation throughput (per-message
overhead amortises across the batch); an unloaded invoke pays only the
batch framing on each leg, because a batch waits only while its rank is
busy, so the per-parcel PWC arm keeps the lowest p50 by a small margin —
the paper's small-message argument, now at the RPC layer.  A Monte-Carlo Tree
Search row (4 ranks, fan-out invocations with tiny replies) exercises
the same machinery under an irregular app.
"""

from __future__ import annotations

from collections import deque

from ...apps.mcts import build_mcts, run_mcts
from ...cluster import build_cluster
from ...minimpi import mpi_init
from ...photon import photon_init
from ...runtime import ActionRegistry, AmConfig, build_runtime
from ..result import ExperimentResult

PAYLOAD = 16  # bytes per invocation


def _build(arm: str, lossy: bool, seed: int = 11):
    kw = dict(params="ib-fdr", seed=seed)
    if lossy:
        kw.update(link__loss_mode="lossy", link__drop_rate=0.02)
        if arm != "am/mpi-isir":
            # photon recovers drops through its own resend ladder; the
            # two-sided transport has no message-level retry, so it keeps
            # the NIC's link-layer retransmission
            kw["nic__transport_retries"] = 0
    cl = build_cluster(2, **kw)
    reg = ActionRegistry()
    reg.register("echo", lambda rt, src, p: p)
    if arm == "am/mpi-isir":
        rts = build_runtime(cl, reg, "mpi", comms=mpi_init(cl),
                            am=True, coalesce=False)
    else:
        rts = build_runtime(cl, reg, "photon", photon=photon_init(cl),
                            am=True, coalesce=(arm == "am/photon+coal"))
    return cl, rts


def _invoke_flood(arm: str, count: int, lossy: bool) -> dict:
    """Flood the server with pipelined invocations; returns rate +
    latency percentiles + wire-message count."""
    cl, rts = _build(arm, lossy)
    out = {}
    lats = []

    def client(env):
        rt = rts[0]
        t_start = env.now
        pending = deque()
        for _ in range(count):
            t0 = env.now
            fut = yield from rt.invoke(1, "echo", b"x" * PAYLOAD)
            pending.append((fut, t0))
            while pending and pending[0][0].ready:
                _fut, s0 = pending.popleft()
                lats.append(env.now - s0)
        while pending:
            fut, s0 = pending.popleft()
            yield from fut.wait(rt, 30_000_000_000)
            lats.append(env.now - s0)
        out["elapsed"] = env.now - t_start

    def server(env):
        yield from rts[1].process_until(lambda: "elapsed" in out,
                                        60_000_000_000)

    p0 = cl.env.process(client(cl.env))
    p1 = cl.env.process(server(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    lats.sort()
    return {
        "rate_k": count / (out["elapsed"] / 1e9) / 1e3,
        "p50": lats[len(lats) // 2],
        "p99": lats[min(len(lats) - 1, (len(lats) * 99) // 100)],
        "wire": cl.counters.get("nic.tx_msgs"),
        "stale": cl.counters.get("am.stale_replies"),
    }


def _invoke_probe(arm: str, count: int, lossy: bool) -> dict:
    """Unloaded closed-loop (window 1) invoke latency: one invocation in
    flight at a time, so queueing never pollutes the percentile — this is
    the latency floor the flood numbers trade away."""
    cl, rts = _build(arm, lossy, seed=13)
    out = {}
    lats = []

    def client(env):
        rt = rts[0]
        for _ in range(count):
            t0 = env.now
            fut = yield from rt.invoke(1, "echo", b"x" * PAYLOAD)
            yield from fut.wait(rt, 30_000_000_000)
            lats.append(env.now - t0)
        out["done"] = True

    def server(env):
        yield from rts[1].process_until(lambda: "done" in out,
                                        60_000_000_000)

    p0 = cl.env.process(client(cl.env))
    p1 = cl.env.process(server(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    lats.sort()
    return {
        "p50": lats[len(lats) // 2],
        "p99": lats[min(len(lats) - 1, (len(lats) * 99) // 100)],
    }


def _mcts_demo(iters: int, n: int = 4) -> dict:
    """The Seriema-style irregular app on the coalesced AM stack."""
    cl = build_cluster(n, params="ib-fdr", seed=11)
    reg = ActionRegistry()
    shards = build_mcts(reg, n)
    rts = build_runtime(cl, reg, "photon", photon=photon_init(cl), am=True)
    progs, results = run_mcts(cl, rts, shards, iters_per_rank=iters)
    procs = [cl.env.process(p) for p in progs]
    cl.env.run(until=cl.env.all_of(procs))
    invokes = sum(r.invokes for r in results)
    elapsed = max(r.elapsed_ns for r in results)
    root_visits = sum(r.owned.get(0, (0, 0))[0] for r in results)
    return {
        "rate_k": invokes / (elapsed / 1e9) / 1e3,
        "root_visits": root_visits,
        "expected_visits": n * iters,
        "invokes": invokes,
    }


def run(quick: bool = True) -> ExperimentResult:
    count = 300 if quick else 1000
    probe_count = 60 if quick else 200
    mcts_iters = 6 if quick else 20
    arms = ["am/photon", "am/photon+coal", "am/mpi-isir"]
    rows = []
    flood = {}
    probe = {}
    for lossy in (False, True):
        fabric = "lossy" if lossy else "clean"
        for arm in arms:
            f = _invoke_flood(arm, count, lossy)
            p = _invoke_probe(arm, probe_count, lossy)
            flood[(arm, fabric)] = f
            probe[(arm, fabric)] = p
            rows.append([arm, fabric, f["rate_k"], p["p50"], p["p99"],
                         f["wire"]])
    mcts = _mcts_demo(mcts_iters)
    rows.append(["mcts/photon+coal (4 ranks)", "clean", mcts["rate_k"],
                 "-", "-", mcts["invokes"]])

    clean = {a: flood[(a, "clean")] for a in arms}
    lossy_f = {a: flood[(a, "lossy")] for a in arms}
    pclean = {a: probe[(a, "clean")] for a in arms}
    checks = {
        "coalesced AM beats per-parcel sends on throughput (clean)":
            clean["am/photon+coal"]["rate_k"]
            > clean["am/photon"]["rate_k"],
        "coalesced AM beats per-parcel sends on throughput (lossy)":
            lossy_f["am/photon+coal"]["rate_k"]
            > lossy_f["am/photon"]["rate_k"],
        "coalescing cuts wire messages":
            clean["am/photon+coal"]["wire"] < clean["am/photon"]["wire"],
        "per-parcel PWC keeps the lowest unloaded p50 invoke latency":
            pclean["am/photon"]["p50"] <= min(
                pclean["am/photon+coal"]["p50"],
                pclean["am/mpi-isir"]["p50"]),
        "no stale replies on the clean fabric":
            all(clean[a]["stale"] == 0 for a in arms),
        "lossy fabric completes every invocation with bounded p99":
            all(lossy_f[a]["p99"] < 10_000_000 for a in arms),
        "mcts visit accounting is exact (root visits == iterations)":
            mcts["root_visits"] == mcts["expected_visits"],
    }
    return ExperimentResult(
        exp_id="R23",
        title=f"active messages: {count} x {PAYLOAD}B invoke flood "
              f"(window {AmConfig.credits_per_dest}) + unloaded probe + "
              "MCTS demo",
        headers=["arm", "fabric", "Kinv/s", "probe p50 ns", "probe p99 ns",
                 "wire msgs"],
        rows=rows,
        checks=checks,
        notes=("throughput from the windowed flood, latency from an "
               "unloaded window-1 probe: a coalesced batch ships when "
               "its rank goes idle, so an unloaded invoke pays the batch "
               "framing, not the flush delay; the per-parcel PWC arm is "
               "the latency floor (paper's small-message claim at the "
               "RPC layer)"))
