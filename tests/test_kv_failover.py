"""Leader failover under chaos: the acked-write survival contract.

One scenario, shared by every test here (module-scoped fixture): a
5-rank single-group store takes a client write burst while a chaos
schedule crashes the Raft leader mid-burst.  The phi-accrual detector
declares the death, the detection-driven fast election installs a new
leader, the client retries onto it with the same session uids, and the
suite asserts the whole contract:

* a new leader exists, and it is not the victim;
* the election lands within the phi detection budget plus the fast
  election delay (not the full election timeout);
* every acknowledged write is present on the new leader *and* on every
  surviving replica — audited uid by uid, the linearizability
  spot-check the issue asks for;
* surviving membership views stayed monotonic (the chaos invariant
  checker).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments.r20_kvstore import (DETECT_BUDGET_NS,
                                                 run_failover)
from repro.chaos.invariants import check_membership_monotonic


@pytest.fixture(scope="module")
def fo():
    return run_failover(quick=True)


def test_burst_made_progress_before_and_after_the_crash(fo):
    # every op in the burst was eventually acknowledged (retries are
    # exactly-once, so the count is exact, not a lower bound)
    assert fo["acked"] == fo["n_ops"]
    assert fo["acked"] > 0


def test_new_leader_is_elected_and_is_not_the_victim(fo):
    assert fo["t_new_leader"] is not None
    assert fo["new_leader"] != fo["leader_before"]


def test_election_within_the_detection_bound(fo):
    # crash -> new leader must be driven by detection (phi budget plus a
    # fast election), far under the idle election timeout
    assert fo["failover_ns"] is not None
    assert fo["failover_ns"] < 2 * DETECT_BUDGET_NS + 500_000
    detections = fo["detect_ns"]
    assert detections and max(detections) <= 2 * DETECT_BUDGET_NS


def test_zero_acked_write_loss_on_every_survivor(fo):
    assert fo["lost_on_new_leader"] == []
    assert fo["lost_per_survivor"]  # the audit actually covered replicas
    for rank, missing in fo["lost_per_survivor"].items():
        assert missing == [], f"rank {rank} lost acked writes {missing[:5]}"


def test_membership_monotonic_on_survivors(fo):
    for monitor in fo["survivor_monitors"]:
        check_membership_monotonic(monitor)


# ---------------------------------------------------------------------------
# crash landing *inside* the victim's apply / flush loop: on_crash() wipes
# the group table the loop is iterating across a simulated yield
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("where", ["apply", "flush"])
def test_crash_inside_apply_or_flush_keeps_the_serve_loop_alive(where):
    from repro.bench.experiments.r20_kvstore import (HB_PERIOD, VALUE_SIZE,
                                                     _build, _leaders_ready)
    from repro.chaos import ChaosController, FaultSchedule
    from repro.kv import KVClient
    from repro.kv.store import ACT_RAFT
    from repro.kv.workload import value_for

    cl, ph, monitors, nodes = _build(5, 1, seed=303)
    env = cl.env
    ctrl = ChaosController(cl, FaultSchedule([]), photon=ph,
                           monitors=monitors, kv=nodes)
    out = {"armed": False, "t_crash": None}

    def crash(victim):
        # 1 ns later the victim is parked in the yield that follows the
        # hooked call: apply_cost_ns, or the wire send of a Raft message
        out["armed"] = False
        yield env.timeout(1)
        ctrl._crash(victim)
        out["t_crash"] = env.now

    def hook(victim):
        node = nodes[victim]
        if where == "apply":
            sm = node.machines[0]
            inner = sm.apply

            def apply(cmd):
                if out["armed"]:
                    env.process(crash(victim))
                return inner(cmd)
            sm.apply = apply
        else:
            inner = node._ship

            def ship(dst, action, payload):
                if out["armed"] and action == ACT_RAFT:
                    env.process(crash(victim))
                return inner(dst, action, payload)
            node._ship = ship

    def burst(env):
        while not _leaders_ready(nodes, 1):
            yield env.timeout(HB_PERIOD)
        victim = out["victim"] = next(n.rank for n in nodes
                                      if n.is_leader(0))
        hook(victim)
        client = out["client"] = KVClient(nodes[4], client_id=7)
        for i in range(120):
            out["armed"] = out["t_crash"] is None and i >= 40
            v = value_for(7, client.seq + 1, VALUE_SIZE)
            yield from client.put(f"cr:{i % 40:04d}".encode(), v)
        yield env.timeout(20 * HB_PERIOD)

    # a dead serve loop surfaces here: the kernel re-raises the failure
    # of a process nobody waits on ("dictionary changed size ...")
    env.run(until=env.process(burst(env), name="kv.crash.burst"))

    victim = nodes[out["victim"]]
    assert out["t_crash"] is not None, "the crash hook never fired"
    # loop alive (parked until a rejoin), endpoint dead, replica state wiped
    assert victim._proc.is_alive and not victim.photon.alive
    assert not victim.raft and not victim.machines
    acked = {(c, s) for (c, s, _op, _k, _v) in out["client"].acked}
    assert len(acked) == 120
    survivors = [n for n in nodes if n.photon.alive and 0 in n.machines]
    assert len(survivors) == 2
    for n in survivors:
        assert acked <= n.machines[0].applied_uids, n.rank


# ---------------------------------------------------------------------------
# election churn on the lossy fabric (ROADMAP item 1c, closed by PR 20)
# ---------------------------------------------------------------------------

def _chaos_block(seed, n_ops=290):
    """The ``kv_chaos`` benchmark's block at ``seed``, rebuilt from
    ``repro.chaos`` + ``build_kv`` (nothing imported from ``perf/``),
    without any restart: 6 ranks, 2 groups x rf 3, 1 % chunk loss, 4
    closed-loop clients of ``n_ops`` ops each (the benchmark's 290 x
    ``--scale``), a 500 us partition of a group-1 follower, then a crash
    of the rank leading group 0.  Runs the clients to completion and
    returns the block, stopped there."""
    from types import SimpleNamespace

    import numpy as np

    from repro.chaos import (ChaosController, CrashRank, FaultSchedule,
                             HealEvent, PartitionEvent)
    from repro.cluster import build_cluster
    from repro.kv import (KVClient, KVConfig, RaftConfig, ST_OK, build_kv)
    from repro.photon import photon_init
    from repro.runtime.health import HealthConfig, build_health

    n_ranks, n_groups, n_keys, hb = 6, 2, 192, 50_000
    rng = np.random.default_rng(seed)
    cl = build_cluster(n_ranks, "ib-fdr", seed=seed, link__loss_mode="lossy",
                       link__drop_rate=0.01)
    env = cl.env
    ph = photon_init(cl)
    monitors = build_health(cl, HealthConfig(period_ns=hb, phi_dead=6.0))
    nodes = build_kv(cl, ph, KVConfig(
        n_groups=n_groups, rf=3,
        raft=RaftConfig(compact_threshold=16, compact_margin=4)),
        monitors=monitors)
    smap = nodes[0].shard_map
    free = [r for r in range(n_ranks) if not smap.groups_on(r)]
    keys = [b"kv:%08d" % i for i in range(n_keys)]
    weights = np.arange(1, n_keys + 1, dtype=np.float64) ** -0.99
    cdf = np.cumsum(weights) / weights.sum()
    plans, clients = [], []
    for c in range(4):
        ranks = np.searchsorted(cdf, rng.random(n_ops), side="left")
        gets = rng.random(n_ops) < 0.5
        plans.append(list(zip(ranks.tolist(), gets.tolist())))
        clients.append(KVClient(
            nodes[free[c % len(free)]], client_id=c + 1,
            poll_ns=2_000 + int(rng.integers(-400, 401)), max_attempts=200))
    loader = KVClient(nodes[free[0]], client_id=1000)

    def value(client):
        tag = b"c%d:s%d:" % (client.client_id, client.seq + 1)
        return tag + b"x" * (64 - len(tag))

    def leaders_ready():
        return all(any(n.photon.alive and n.is_leader(g) for n in nodes)
                   for g in range(n_groups))

    def preload():
        while not leaders_ready():
            yield env.timeout(hb)
        for key in keys:
            assert (yield from loader.put(key, value(loader))) == ST_OK

    env.run(until=env.process(preload()))
    victim = next(n.rank for n in nodes if n.is_leader(0))
    lagger = max(r for r in smap.replicas(1)
                 if r != victim and not nodes[r].is_leader(1))
    t_crash = env.now + 1_200_000
    ChaosController(cl, FaultSchedule([
        PartitionEvent(env.now + 300_000, (lagger,),
                       tuple(r for r in range(n_ranks) if r != lagger)),
        HealEvent(env.now + 800_000),
        CrashRank(t_crash, victim),
    ]), photon=ph, monitors=monitors, kv=nodes).arm()
    blk = SimpleNamespace(env=env, nodes=nodes, smap=smap, hb=hb,
                          t_crash=t_crash, failed=0, led_again=None)

    def client_loop(client, plan):
        for key_rank, is_get in plan:
            if is_get:
                status, _value = yield from client.get(keys[key_rank])
            else:
                status = yield from client.put(keys[key_rank], value(client))
            blk.failed += status != ST_OK

    def watch():
        yield env.timeout(t_crash - env.now + 1)
        while not leaders_ready():
            yield env.timeout(10_000)
        blk.led_again = env.now - t_crash

    blk.watch = env.process(watch())
    procs = [env.process(client_loop(c, p)) for c, p in zip(clients, plans)]
    env.run(until=env.all_of(procs))
    blk.acked = [(smap.group_of(key), (cid, seq))
                 for client in clients + [loader]
                 for (cid, seq, _op, key, _v) in client.acked]
    return blk


def _unapplied_acks(blk):
    """The benchmark's audit: ``(rank, group, uid)`` for every acknowledged
    write a surviving replica of its group has not applied."""
    return [(rank, group, uid) for group, uid in blk.acked
            for rank in blk.smap.replicas(group)
            if blk.nodes[rank].photon.alive
            and uid not in blk.nodes[rank].machines[group].applied_uids]


def _check_election_bound(seed):
    """Until PR 20 group 1's two survivors churned at 100196 (where the
    victim led *both* groups): the one with the shorter log timed out
    first and could never win, but its higher-term RequestVote reset the
    other's election timer, so every round re-drew the jitter and a lost
    round cost a whole election timeout (term 6 after 6.5 ms without a
    leader on PR 19's tree; 100148 and 7003 never churned).  With the
    timer following Raft §5.2 the up-to-date survivor's own timeout
    stands: a leader for every group within 2 ms of the crash — one lost
    round would be 2.1 or more — every op OK, no acknowledged write
    missing from a survivor.
    """
    blk = _chaos_block(seed)
    blk.env.run(until=blk.env.now + 40 * blk.hb)   # followers catch up
    assert blk.failed == 0
    assert blk.led_again is not None and blk.led_again <= 2_000_000
    assert _unapplied_acks(blk) == []


def test_election_churn_on_the_lossy_fabric_is_bounded():
    _check_election_bound(100196)


@pytest.mark.parametrize("seed", [100148, 7003])
def test_election_bound_holds_on_the_seeds_that_never_churned(seed):
    _check_election_bound(seed)


def test_acked_write_outlives_a_split_vote_after_the_clients_are_done():
    """``perf/run.py --workload kv_chaos --seed 7 --scale 0.3``, block
    7007 (87 ops a client): the last put is acknowledged 18 us before the
    leader crash, so nobody is left to wait for the next leader and the
    victim dies before any AppendEntries tells the survivors that entry
    is committed.  Their detection-driven election timers then land 1 us
    apart — a split vote, each candidate votes for itself (ROADMAP item
    1e) — and the benchmark's audit, 2 ms after the crash, finds group 0
    still leaderless and the write applied on neither survivor.  It is
    not lost: it sits in both survivors' logs, and once the next round
    has elected one of them (one lost round, not two) every acknowledged
    write is applied on every surviving replica.
    """
    from repro.kv.shard import decode_command

    blk = _chaos_block(7007, n_ops=87)
    env = blk.env
    assert blk.failed == 0
    # the benchmark's audit instant
    env.run(until=max(env.now, blk.t_crash) + 40 * blk.hb)
    for rank, group, uid in _unapplied_acks(blk):
        rn = blk.nodes[rank].raft[group]
        unapplied = rn.log[rn.last_applied - rn.base_index:]
        assert uid in {decode_command(cmd).uid for _t, cmd in unapplied
                       if cmd}, (rank, group, uid)
    env.run(until=blk.watch)                   # every group led again
    assert blk.led_again <= 4_000_000
    env.run(until=env.now + 40 * blk.hb)       # followers catch up
    assert _unapplied_acks(blk) == []

