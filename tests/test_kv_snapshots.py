"""Snapshots under chaos, end to end: restart rejoin, live moves.

Two module-scoped scenario runs (leader-crash and follower-crash), both
driving the full R21 composition — sustained writes, a partitioned
follower the leaders trim past, a crash→restart of a replica that must
rejoin through InstallSnapshot, and one live shard move flipped under
the writers' feet.  The tests then assert the contract piecewise so a
failure names the broken property, not just "the experiment failed".

A guard checks the pay-for-what-you-build rule: snapshot machinery
armed (it always is on a built store) but never *due* takes no
snapshots, streams no chunks and bumps no snapshot counters.  Last, two
restart schedules that trip defects, pinned not fixed.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments.r21_snapshots import (COMPACT_MARGIN,
                                                   COMPACT_THRESHOLD,
                                                   SAMPLER_SLACK,
                                                   run_chaos_move)
from repro.chaos import CrashRank, HealEvent, PartitionEvent, RestartRank
from repro.chaos.invariants import (InvariantViolation, check_log_bounded,
                                    check_membership_monotonic,
                                    check_replicas_identical, unapplied_acks)
from repro.kv import RaftConfig, ST_OK
from repro.kv.scenario import Scenario
from repro.kv.shard import decode_command


@pytest.fixture(scope="module")
def leader_crash():
    return run_chaos_move(quick=True, crash="leader")


@pytest.fixture(scope="module")
def follower_crash():
    return run_chaos_move(quick=True, crash="follower", seed=405)


@pytest.mark.parametrize("scen", ["leader_crash", "follower_crash"])
def test_every_acked_write_survives_on_every_final_owner_replica(
        scen, request):
    r = request.getfixturevalue(scen)
    assert r["acked"] == r["n_ops"] + 20  # writers + post-move probes
    assert r["owners_alive"] == 3  # audit covered all replicas
    assert r["unapplied"] == [], f"lost acked writes {r['unapplied'][:5]}"


@pytest.mark.parametrize("scen", ["leader_crash", "follower_crash"])
def test_restarted_replica_rejoins_via_snapshot_install(scen, request):
    r = request.getfixturevalue(scen)
    assert r["victim_installs"] >= 1
    # the rejoined replica converged: its machines are byte-identical
    # with the other replicas' at quiescence
    check_replicas_identical(r["scenario"])


def test_snapshot_install_happened_during_the_write_burst(leader_crash):
    r = leader_crash
    # install spans were recorded by repro.obs, and they fired while the
    # writers were still in flight — not in the post-run drain
    assert len(r["install_spans"]) >= 2  # victim + partitioned lagger
    assert r["snapshot_bytes"] > 0


def test_partitioned_follower_catches_up_by_snapshot(leader_crash):
    assert leader_crash["lagger_installs"] >= 1


@pytest.mark.parametrize("scen", ["leader_crash", "follower_crash"])
def test_retained_logs_stay_bounded(scen, request):
    r = request.getfixturevalue(scen)
    bound = COMPACT_THRESHOLD + COMPACT_MARGIN
    assert 0 < r["max_retained"] <= bound + SAMPLER_SLACK
    check_log_bounded(r["scenario"].nodes, slack=0)  # quiescent: no slack


def test_live_move_is_invisible_in_the_ack_ledger(leader_crash):
    r = leader_crash
    move = r["move"]
    assert move["epoch"] == 1 and move["moved_bytes"] > 0
    # in-flight writers crossed the flip and recovered via WRONG_EPOCH
    assert r["wrong_epoch"] >= 1 and r["map_refreshes"] >= 1
    # the source group is purged and unsealed; the new owner serves
    nodes = r["scenario"].nodes
    for rank in nodes[0].shard_map.replicas(1):
        sm = nodes[rank].machines[1]
        assert len(sm.data) == 0 and not sm.sealed
    assert r["post_move_ok"] == 20


@pytest.mark.parametrize("scen", ["leader_crash", "follower_crash"])
def test_membership_monotonic_on_every_monitor(scen, request):
    for mon in request.getfixturevalue(scen)["scenario"].monitors:
        check_membership_monotonic(mon)


def test_log_bound_checker_rejects_an_overrun():
    class _Cfg:
        compact_threshold = 8
        compact_margin = 2

    class _RN:
        config = _Cfg()
        snapshot_fn = staticmethod(lambda: b"")
        base_index = 0
        last_applied = 11

    class _Node:
        rank = 0
        raft = {0: _RN()}

    with pytest.raises(InvariantViolation):
        check_log_bounded([_Node()])
    _RN.last_applied = 10  # exactly at the bound: fine
    check_log_bounded([_Node()])
    _RN.snapshot_fn = None  # disarmed replicas are exempt by design
    _RN.last_applied = 999
    check_log_bounded([_Node()])


def test_armed_but_idle_snapshots_cost_nothing():
    """A built store always has snapshot_fn armed; with fewer applied
    entries than compact_threshold nothing may fire: no snapshots, no
    chunks, no installs, no obs counters."""
    sc = Scenario(3, 1, seed=71)

    def body():
        yield from sc.wait_leaders()
        c = sc.client(0, 1)
        for i in range(20):  # far below compact_threshold (256)
            yield from c.put(f"idle:{i}".encode(), b"v")
        yield sc.env.timeout(500_000)

    sc.run(body())
    for n in sc.nodes:
        rn = n.raft[0]
        assert rn.snapshot_fn is not None  # armed ...
        assert rn.snapshots_taken == 0     # ... but never fired
        assert rn.snapshot_chunks_sent == 0
        assert rn.snapshot_installs == 0
        assert rn.base_index == 0
    for r in range(3):
        vals = sc.cluster.scope(r).values
        assert vals.get("kv.snapshots_taken", 0) == 0
        assert vals.get("kv.snapshot_installs", 0) == 0
        assert vals.get("kv.raft.snapshot_bytes", 0) == 0
    assert sc.cluster.metrics.span_durations("kv.raft.install") == []


def test_snapshot_install_with_spans_off():
    """``counters.span()`` hands out None with spans off (the default);
    a snapshot install on such a cluster must not trip over it."""
    sc = Scenario(3, 1, seed=72, spans=False,
                  raft=RaftConfig(compact_threshold=8, compact_margin=2))
    nodes = sc.nodes

    def body():
        yield from sc.wait_leaders()
        leader = sc.leader(0)
        follower = (leader + 1) % 3
        c = sc.client(leader, 1)
        for i in range(30):  # leader snapshots + compacts several times
            yield from c.put(f"k:{i}".encode(), b"v")
        # an amnesiac follower can only catch up through InstallSnapshot
        nodes[follower].on_crash()
        nodes[follower].reseed()
        for i in range(30, 40):
            yield from c.put(f"k:{i}".encode(), b"v")
        yield sc.env.timeout(2_000_000)
        return follower

    f = sc.run(body())
    assert sc.cluster.scope(f).values.get("kv.snapshot_installs", 0) >= 1
    assert nodes[f]._proc.is_alive
    check_replicas_identical(sc)


# ---------------------------------------------------------------------------
# restarts: two defects, pinned not fixed
# ---------------------------------------------------------------------------

def _restart_burst(events, n_ops=200):
    """``Scenario(5, 1)``: one patient client's put burst under
    ``events(t0, L, F1, F2)`` — offsets from leaders-ready, the leader
    and the other two of ``replicas(0)`` in order — then a drain."""
    sc = Scenario(5, 1, seed=303)

    def burst():
        sc.t0 = yield from sc.wait_leaders()
        leader = sc.leader(0)
        sc.arm(events(sc.t0, leader, *(r for r in sc.shard_map.replicas(0)
                                       if r != leader)))
        yield from sc.closed_loop(
            sc.client(4, 7, max_attempts=400),
            ((b"rs:%04d" % (i % 40), False) for i in range(n_ops)))
        yield from sc.drain()

    sc.run(burst())
    return sc


def test_restarted_replica_votes_with_amnesia_and_acked_writes_vanish():
    """DEFECT, pinned not fixed (ROADMAP item 1): Raft's durable triple is
    not modelled, so a restarted replica comes back under its old
    identity with an empty log and votes.  F2 is cut off at +100 us and
    stops at uid (7, 15); L and F1 commit and acknowledge on; F1 dies at
    +550 us, L at +560 us, the cut heals, F1 restarts at +1.5 ms.
    Reborn-empty F1 and lagging F2 are a majority that never saw what
    was acknowledged in between, and elect one of themselves: all 200
    puts are acknowledged, and a run of those uids is on neither
    survivor — in no log, in no snapshot.  With a stable store F1
    returns with the longer log and wins; two of three replicas are up
    from its restart on, so durable Raft owes every one of them.  Item
    1b flips the first assertion to ``lost == []``.
    """
    cut, first_crash = 100_000, 550_000
    sc = _restart_burst(lambda t0, ldr, f1, f2: [
        PartitionEvent(t0 + cut, (f2,),
                       tuple(r for r in range(5) if r != f2)),
        CrashRank(t0 + first_crash, f1),
        CrashRank(t0 + first_crash + 10_000, ldr),
        HealEvent(t0 + 600_000),
        RestartRank(t0 + 1_500_000, f1)])
    rows = {(op.client, op.seq): op for op in sc.history}
    assert len(rows) == 200
    assert all(op.status == ST_OK for op in rows.values())
    lost = unapplied_acks(sc)
    survivors = {n.rank for n in sc.nodes if n.photon.alive and n.raft}
    logged = {decode_command(cmd).uid for r in survivors
              for _term, cmd in sc.nodes[r].raft[0].log if cmd}
    assert lost and len(survivors) == 2
    for uid in {uid for _rank, _group, uid in lost}:
        # acknowledged while F2 was cut off and before anybody died ...
        assert sc.t0 + cut < rows[uid].t_return < sc.t0 + first_crash
        # ... and gone from both survivors, not merely unapplied
        assert {r for r, _g, u in lost if u == uid} == survivors
        assert uid not in logged


def test_restart_before_anybody_detected_the_death_keeps_the_leader_serving():
    """ROADMAP item 1d: F1 restarts 60 us after its crash, before any
    survivor's detector has declared it dead, so the leader's reliable-op
    replay of an AppendEntries posts against the reborn rank's ring —
    rebuilt, not yet re-registered under that rkey.  The target refuses
    it: the WR completes with ``REM_ACCESS_ERR`` on the leader's CQ (it
    used to raise ``ProtectionError`` in the poster, ``KVNode._flush`` ->
    ``send_pwc`` -> ``replay`` -> ``qp._build_write``, and kill the serve
    loop).  Nothing here is about the data: that is item 1."""
    roles = {}

    def events(t0, ldr, f1, f2):
        roles["leader"] = ldr
        return [CrashRank(t0 + 400_000, f1), RestartRank(t0 + 460_000, f1)]

    sc = _restart_burst(events)
    leader = sc.nodes[roles["leader"]]
    assert leader._proc.is_alive
    assert leader.photon.counters.get("photon.wr_errors") >= 1
