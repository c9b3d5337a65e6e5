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

import numpy as np
import pytest

from repro.bench.experiments.r20_kvstore import run_failover
from repro.chaos import CrashRank, HealEvent, PartitionEvent
from repro.chaos.invariants import (check_membership_monotonic,
                                    check_reads_return_written,
                                    unapplied_acks)
from repro.kv import RaftConfig, ST_OK
from repro.kv.scenario import (DETECT_BUDGET_NS, HB_PERIOD, Scenario,
                               keyspace, zipf_plan)
from repro.kv.store import ACT_RAFT


@pytest.fixture(scope="module")
def fo():
    return run_failover(quick=True)


def test_burst_made_progress_before_and_after_the_crash(fo):
    # every op in the burst was eventually acknowledged (retries are
    # exactly-once, so the count is exact, not a lower bound)
    assert fo["acked"] == fo["n_ops"]
    assert fo["acked"] > 0


def test_new_leader_is_elected_and_is_not_the_victim(fo):
    assert fo["new_leader"] not in (None, fo["leader_before"])


def test_election_within_the_detection_bound(fo):
    # crash -> new leader must be driven by detection (phi budget plus a
    # fast election), far under the idle election timeout
    assert fo["failover_ns"] < 2 * DETECT_BUDGET_NS + 500_000
    detections = fo["detect_ns"]
    assert detections and max(detections) <= 2 * DETECT_BUDGET_NS


def test_zero_acked_write_loss_on_every_survivor(fo):
    sc = fo["scenario"]
    # the audit actually covered replicas: two of three outlived the crash
    assert sum(sc.nodes[r].photon.alive
               for r in sc.shard_map.replicas(0)) == 2
    assert fo["lost"] == [], f"lost acked writes {fo['lost'][:5]}"


def test_membership_monotonic_on_survivors(fo):
    for monitor in fo["survivor_monitors"]:
        check_membership_monotonic(monitor)


# ---------------------------------------------------------------------------
# crash landing *inside* the victim's apply / flush loop: on_crash() wipes
# the group table the loop is iterating across a simulated yield
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("where", ["apply", "flush"])
def test_crash_inside_apply_or_flush_keeps_the_serve_loop_alive(where):
    sc = Scenario(5, 1, seed=303)
    env, nodes = sc.env, sc.nodes
    ctrl = sc.arm([])
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

    def burst():
        yield from sc.wait_leaders()
        victim = out["victim"] = sc.leader(0)
        hook(victim)
        client = sc.client(4, 7)
        for i in range(120):
            out["armed"] = out["t_crash"] is None and i >= 40
            yield from sc.op(client, b"cr:%04d" % (i % 40), False)
        yield from sc.drain()

    # a dead serve loop surfaces here: the kernel re-raises the failure
    # of a process nobody waits on ("dictionary changed size ...")
    sc.run(burst())

    victim = nodes[out["victim"]]
    assert out["t_crash"] is not None, "the crash hook never fired"
    # loop alive (parked until a rejoin), endpoint dead, replica state wiped
    assert victim._proc.is_alive and not victim.photon.alive
    assert not victim.raft and not victim.machines
    assert len(sc.clients[0].acked) == 120
    assert sum(n.photon.alive and 0 in n.machines for n in nodes) == 2
    assert unapplied_acks(sc) == []


# ---------------------------------------------------------------------------
# election churn on the lossy fabric (ROADMAP item 1c, closed by PR 20)
# ---------------------------------------------------------------------------

def _chaos_block(seed, n_ops=290):
    """The ``kv_chaos`` benchmark's block at ``seed`` as a scenario spec
    (nothing imported from ``perf/``), without any restart: 6 ranks, 2
    groups x rf 3, 1 % chunk loss, 4 closed-loop clients of ``n_ops`` ops
    each (the benchmark's 290 x ``--scale``) drawn from one stream the
    way the benchmark draws them, a 500 us partition of a group-1
    follower, then a crash of the rank leading group 0.  Runs the clients
    to completion and returns the scenario, stopped there."""
    rng = np.random.default_rng(seed)
    sc = Scenario(6, 2, seed, spans=False,
                  raft=RaftConfig(compact_threshold=16, compact_margin=4),
                  link__loss_mode="lossy", link__drop_rate=0.01)
    env, keys, free = sc.env, keyspace(192), sc.free
    plans = []
    for c in range(4):
        plans.append(zipf_plan(keys, 0.99, 0.5, rng, rng, n_ops))
        sc.client(free[c % len(free)], c + 1, max_attempts=200,
                  poll_ns=2_000 + int(rng.integers(-400, 401)))
    clients, loader = list(sc.clients), sc.client(free[0], 1000)

    def setup():
        yield from sc.wait_leaders()
        yield from sc.preload(loader, keys)

    sc.run(setup())
    victim = sc.leader(0)
    lagger = max(r for r in sc.shard_map.replicas(1)
                 if r != victim and not sc.nodes[r].is_leader(1))
    sc.t_crash = env.now + 1_200_000
    sc.arm([PartitionEvent(env.now + 300_000, (lagger,),
                           tuple(r for r in range(6) if r != lagger)),
            HealEvent(env.now + 800_000), CrashRank(sc.t_crash, victim)])
    #: ends at the first instant after the crash every group is led again
    sc.watch = env.process(sc.wait_leaders(since=sc.t_crash + 1))
    env.run(until=env.all_of([env.process(sc.closed_loop(c, p))
                              for c, p in zip(clients, plans)]))
    return sc


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
    sc = _chaos_block(seed)
    sc.run(sc.drain())
    assert all(op.status == ST_OK for op in sc.history)
    assert sc.watch.value - sc.t_crash <= 2_000_000
    assert unapplied_acks(sc) == []
    check_reads_return_written(sc)


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
    1e) — and the benchmark's audit, a fixed 2 ms after the crash, finds
    group 0 still leaderless and the write applied on neither survivor.
    It is not lost: it sits in both survivors' logs, and ``drain()``,
    which waits for the next round to elect one of them (one lost round,
    not two) before it counts its heartbeats, ends with every
    acknowledged write applied on every surviving replica.
    """
    from repro.kv.shard import decode_command

    sc = _chaos_block(7007, n_ops=87)
    env = sc.env
    assert all(op.status == ST_OK for op in sc.history)
    # the benchmark's audit instant
    env.run(until=max(env.now, sc.t_crash) + 40 * HB_PERIOD)
    early = unapplied_acks(sc)
    assert early and sc.leader(0) is None
    for rank, group, uid in early:
        rn = sc.nodes[rank].raft[group]
        unapplied = rn.log[rn.last_applied - rn.base_index:]
        assert uid in {decode_command(cmd).uid for _t, cmd in unapplied
                       if cmd}, (rank, group, uid)
    sc.run(sc.drain())
    assert sc.watch.value - sc.t_crash <= 4_000_000
    assert unapplied_acks(sc) == []
