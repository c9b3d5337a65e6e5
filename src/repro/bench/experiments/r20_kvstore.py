"""R20 — repro.kv serving benchmark: RPC vs one-sided reads, failover.

The first *tenant* workload: a Raft-replicated, sharded KV store whose
replication and client traffic ride Photon PWC (parcels over eager
sends + completion-ledger probes).  Three questions, one per section:

1. **RDMA vs RPC read arm** — the same Zipf-skewed closed-loop mix is
   served twice: reads answered by the leader under a read lease (RPC
   parcel round-trip) vs. reads done by the client itself with a raw
   ``get_pwc`` against the leader's registered slot table (one wire
   round, zero remote CPU).  The one-sided arm should win median read
   latency — the core claim of the RDMA-vs-RPC line of work the store
   reproduces.
2. **Scaling shape** (full mode) — throughput vs. shard-group count and
   vs. key skew: more groups spread leader load across ranks; theta
   concentrates traffic on one leader.
3. **Failover** — chaos crashes the leader mid write-burst; the
   phi-accrual detector declares it dead, a detection-driven election
   installs a new leader, the client retries onto it (same session
   uids, so replays are exactly-once), and *every acknowledged write
   survives* — checked uid-by-uid against the new leader's state
   machine.
"""

from __future__ import annotations

from ...chaos import CrashRank
from ...chaos.invariants import check_membership_monotonic, unapplied_acks
from ...kv.scenario import (Scenario, keyspace, ops_per_sec, outcomes,
                            pct_us, stalls_across, zipf_plan)
from ...runtime.health import DETECT_BUDGET_NS, HealthConfig
from ..result import ExperimentResult

LOADER_ID = 1000


def run_serving(quick: bool = True, read_mode: str = "rpc",
                n_groups: int = 2, theta: float = 0.99,
                n_ranks: int = 6, open_rate_ops_s: float = 0.0,
                seed: int = 101) -> dict:
    """One serving run; returns the scenario and the measured rows."""
    n_clients = 2 if quick else 4
    ops_per_client = 150 if quick else 400
    keys = keyspace(48 if quick else 192)
    sc = Scenario(n_ranks, n_groups, seed)
    env, rng = sc.env, sc.cluster.rng

    def bench():
        # barrier: measurement starts after every group has a leader
        yield from sc.wait_leaders()
        yield from sc.preload(sc.client(0, LOADER_ID), keys)
        if open_rate_ops_s > 0:
            pool = [sc.client(sc.free[c % len(sc.free)], c + 1,
                              read_mode=read_mode)
                    for c in range(n_clients * 4)]
            # the coin and the Poisson gaps interleave on one stream
            mix = rng.stream("kv.wl.mix.open")
            plan = zipf_plan(keys, theta, 0.5,
                             rng.stream("kv.wl.zipf.open"), mix)
            duration = ops_per_client * n_clients * int(1e9 / open_rate_ops_s)
            yield from sc.open_loop(pool, plan, open_rate_ops_s, duration,
                                    mix)
        else:
            procs = []
            for c in range(n_clients):
                client = sc.client(sc.free[c % len(sc.free)], c + 1,
                                   read_mode=read_mode)
                plan = zipf_plan(keys, theta, 0.5,
                                 rng.stream(f"kv.wl.zipf.{c}"),
                                 rng.stream(f"kv.wl.mix.{c}"),
                                 ops_per_client)
                procs.append(env.process(sc.closed_loop(client, plan),
                                         name=f"kv.bench.{c}"))
            yield env.all_of(procs)

    sc.run(bench(), name="kv.bench")
    return {"scenario": sc, "read_mode": read_mode, "n_groups": n_groups,
            "theta": theta,
            "rows": [op for op in sc.history if op.client != LOADER_ID]}


def run_failover(quick: bool = True, seed: int = 303) -> dict:
    """Crash the leader mid write-burst; account for every ack."""
    n_ops = 240 if quick else 600
    n_ranks = 5
    sc = Scenario(n_ranks, 1, seed)
    env = sc.env
    out = {"scenario": sc, "n_ops": n_ops}

    def burst():
        yield from sc.wait_leaders()
        victim = out["leader_before"] = sc.leader(0)
        # schedule the crash squarely inside the burst: writes run a
        # few microseconds each, so half the ops land before the axe
        t_crash = out["t_crash"] = env.now + 1_200_000
        sc.arm([CrashRank(t_crash, victim)])
        watch = env.process(sc.wait_leaders(since=t_crash + 1),
                            name="kv.fo.watch")
        client = out["client"] = sc.client(n_ranks - 1, 7)
        yield from sc.closed_loop(
            client, ((b"fo:%04d" % (i % 40), False) for i in range(n_ops)))
        out["failover_ns"] = (yield watch) - t_crash
        out["new_leader"] = sc.leader(0)
        yield from sc.drain()

    sc.run(burst(), name="kv.fo.burst")
    lost = unapplied_acks(sc)
    client = out["client"]
    out.update({
        # crash -> the OK of the put it stalled
        "stall_ns": stalls_across(sc.history,
                                  out["t_crash"])[client.client_id],
        "aborts": sc.cluster.scope(client.node.rank).get(
            "kv.dead_target_aborts"),
        "acked": len(sc.clients[0].acked),
        "lost": lost,
        "lost_on_new_leader": [u for u in lost if u[0] == out["new_leader"]],
        "detect_ns": sc.cluster.metrics.span_durations("health.detect"),
        "survivor_monitors": [sc.monitors[n.rank] for n in sc.nodes
                              if n.photon.alive],
    })
    return out


def _arm_rows(r: dict) -> list:
    rows = r["rows"]
    return [[
        r["read_mode"], r["n_groups"], f"{r['theta']:g}",
        len(rows) - outcomes(rows)["failed"],
        f"{ops_per_sec(rows) / 1e3:.1f}",
        f"{pct_us(rows, 'get', 50):.1f}", f"{pct_us(rows, 'get', 95):.1f}",
        f"{pct_us(rows, 'get', 99):.1f}",
        f"{pct_us(rows, 'put', 50):.1f}", f"{pct_us(rows, 'put', 99):.1f}",
    ]]


def _all_completed(r: dict) -> bool:
    return bool(r["rows"]) and outcomes(r["rows"])["failed"] == 0


def run(quick: bool = True) -> ExperimentResult:
    rpc = run_serving(quick, "rpc")
    onesided = run_serving(quick, "onesided")
    rows = _arm_rows(rpc) + _arm_rows(onesided)
    if not quick:
        for n_groups in (1, 4):
            rows += _arm_rows(run_serving(quick, "rpc", n_groups=n_groups,
                                          n_ranks=6, seed=111 + n_groups))
        for theta in (0.0, 1.2):
            rows += _arm_rows(run_serving(quick, "rpc", theta=theta,
                                          seed=131 + int(theta * 10)))
        # open-loop arm: queueing delay counts against the tail
        rows += _arm_rows(run_serving(quick, "rpc",
                                      open_rate_ops_s=2_000_000.0,
                                      seed=151))

    fo = run_failover(quick)
    detect = fo["detect_ns"]
    fo_us = fo["failover_ns"] / 1000.0
    rows.append(["failover", 1, "-", fo["acked"],
                 f"lost={len(fo['lost_on_new_leader'])}",
                 f"crash->leader {fo_us:.0f}us",
                 f"detect {max(detect) / 1000.0:.0f}us" if detect else "-",
                 "-", f"stall {fo['stall_ns'] / 1000.0:.0f}us", "-"])

    membership_ok = True
    try:
        for monitor in fo["survivor_monitors"]:
            check_membership_monotonic(monitor)
    except AssertionError:
        membership_ok = False

    checks = {
        "rpc arm: every op completed": _all_completed(rpc),
        "one-sided arm: every op completed": _all_completed(onesided),
        "one-sided reads actually used the PWC path":
            _onesided_used(onesided),
        "one-sided median read beats the RPC round-trip":
            pct_us(onesided["rows"], "get", 50)
            < pct_us(rpc["rows"], "get", 50),
        "failover: a new leader takes over":
            fo["new_leader"] not in (None, fo["leader_before"]),
        "failover: election within 2x phi budget + election time":
            fo["failover_ns"] < 2 * DETECT_BUDGET_NS + 500_000,
        # one attempt ended by the verdict on its target, none timed out
        "failover: the client's attempt to the dead leader ends at the "
        "detector's verdict":
            (fo["aborts"], fo["client"].stats.timeouts) == (1, 0),
        "failover: zero acknowledged-write loss on the new leader":
            fo["lost_on_new_leader"] == [],
        "failover: every acked write on every survivor": fo["lost"] == [],
        "membership monotonic on surviving monitors": membership_ok,
    }
    return ExperimentResult(
        exp_id="R20",
        title="repro.kv serving: Zipf closed-loop over Raft groups on "
              "Photon PWC — RPC vs one-sided reads, leader failover",
        headers=["arm", "groups", "theta", "ops", "kop/s",
                 "get p50us", "get p95us", "get p99us",
                 "put p50us", "put p99us"],
        rows=rows,
        checks=checks,
        notes=f"phi-accrual period {HealthConfig.period_ns // 1000}us, "
              f"phi_dead {HealthConfig.phi_dead:g}; failover: leader "
              f"r{fo['leader_before']} -> r{fo['new_leader']} in "
              f"{fo_us:.0f}us; acked "
              f"writes audited uid-by-uid on all survivors")


def _onesided_used(r: dict) -> bool:
    # infer PWC usage from the photon counters: the one-sided arm must
    # have issued raw gets
    cl = r["scenario"].cluster
    return sum(cl.scope(rank).values.get("photon.pwc_gets", 0)
               for rank in range(cl.n)) > 0
