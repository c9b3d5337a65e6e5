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
from repro.kv.scenario import Scenario, keyspace, stalls_across, zipf_plan
from repro.kv.store import ACT_RAFT
from repro.runtime.health import DETECT_BUDGET_NS, HealthConfig
from repro.runtime.transport import PeerDownError
from tests.linearizability import VerdictWatch, check_scenario


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


def test_the_failover_history_linearizes(fo):
    sc = fo["scenario"]
    assert check_scenario(sc) == len(sc.history)


def test_a_client_spends_no_attempt_on_a_replica_its_rank_holds_dead(
        monkeypatch):
    """R20's quick failover: once the client's rank declares the old
    leader dead, each attempt starts past it (as a refused send would
    rotate) instead of sending into a ``PeerDownError`` that burns one of
    ``max_attempts`` — before, one attempt was spent that way."""
    raised = []
    init = PeerDownError.__init__

    def spy(self, rank, peer):
        raised.append((rank, peer))
        init(self, rank, peer)

    monkeypatch.setattr(PeerDownError, "__init__", spy)
    out = run_failover(quick=True)
    assert out["acked"] == out["n_ops"]
    assert raised == []


# ---------------------------------------------------------------------------
# crash landing *inside* the victim's apply / flush loop: on_crash() wipes
# the group table the loop is iterating across a simulated yield
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("where", ["apply", "flush"])
def test_crash_inside_apply_or_flush_keeps_the_serve_loop_alive(where):
    sc = Scenario(5, 1, seed=303)
    env, nodes = sc.env, sc.nodes
    out = {"armed": False, "t_crash": None}

    def crash(victim):
        # 1 ns later the victim is parked in the yield that follows the
        # hooked call: APPLY_COST_NS, or the wire send of a Raft message
        out["armed"] = False
        yield env.timeout(1)
        sc.cluster[victim].crash()
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
    to completion and returns the scenario, stopped there, with
    ``sc.verdicts`` watching the clients' attempts."""
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
    sc.verdicts = VerdictWatch(sc)
    for c in clients:
        sc.verdicts.watch(c)

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


def test_a_client_attempt_to_the_crashed_leader_ends_at_the_verdict():
    """``kv_chaos`` block 7001: each of the 4 clients has an attempt
    parked on the group-0 leader when it crashes.  The attempt ends in the
    nanosecond its own rank's monitor declares the leader dead (counted
    once as ``kv.dead_target_aborts``, not as a timeout) and rotates to
    the next replica, so no client waits across the crash as long as its
    2 ms attempt timeout — before, each waited it out (2 000-2 007 us)."""
    sc = _chaos_block(7001)
    cut = sc.verdicts.spanning()
    assert len({a.client for a, _t in cut}) == len(cut) == 4
    for a, t in cut:
        assert (a.end, a.answered) == (t, False)
    assert sc.verdicts.outlived() == []
    stalls = stalls_across(sc.history, sc.t_crash)
    assert len(stalls) == 4
    assert max(stalls.values()) < sc.clients[0].timeout_ns
    assert [c.stats.timeouts for c in sc.clients] == [0] * 5
    assert sc.cluster.counters.get("kv.dead_target_aborts") == 4
    sc.run(sc.drain())
    assert all(op.status == ST_OK for op in sc.history)
    assert unapplied_acks(sc) == []
    check_reads_return_written(sc)


def test_election_churn_on_the_lossy_fabric_is_bounded():
    _check_election_bound(100196)


@pytest.mark.parametrize("seed", [100148, 7003])
def test_election_bound_holds_on_the_seeds_that_never_churned(seed):
    _check_election_bound(seed)


def test_a_split_detection_driven_vote_retries_fast():
    """``perf/run.py --workload kv_chaos --seed 7 --scale 0.3``, block
    7005 (87 ops a client): the clients are done 442 us before the
    leader crash.  The survivors' detection-driven election timers then
    land 15 us apart and each votes for itself in term 2 (ROADMAP item
    1e).  The round that split retries on the fast delay, not the full
    election timeout, so by the benchmark's audit, a fixed 2 ms after
    the crash, group 0 has a leader again and every acknowledged write
    is applied on every surviving replica.
    """
    sc = _chaos_block(7005, n_ops=87)
    env = sc.env
    assert all(op.status == ST_OK for op in sc.history)
    # the benchmark's audit instant
    env.run(until=max(env.now, sc.t_crash) + 40 * HealthConfig.period_ns)
    assert sc.leader(0) is not None
    assert unapplied_acks(sc) == []
    # term 2 split; the new leader's second round, term 3, won it
    leader = sc.nodes[sc.leader(0)].raft[0]
    assert (leader.term, leader.elections_started) == (3, 2)
