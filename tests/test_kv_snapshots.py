"""Snapshots under chaos, end to end: restart rejoin, live moves.

Two module-scoped scenario runs (leader-crash and follower-crash), both
driving the full R21 composition — sustained writes, a partitioned
follower the leaders trim past, a crash→restart of a replica that must
rejoin through InstallSnapshot, and one live shard move flipped under
the writers' feet.  The tests then assert the contract piecewise so a
failure names the broken property, not just "the experiment failed".

A final guard checks the pay-for-what-you-build rule: snapshot
machinery armed (it always is on a built store) but never *due* takes
no snapshots, streams no chunks and bumps no snapshot counters.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments.r21_snapshots import (COMPACT_MARGIN,
                                                   COMPACT_THRESHOLD,
                                                   SAMPLER_SLACK,
                                                   run_chaos_move)
from repro.chaos.invariants import (InvariantViolation, check_log_bounded,
                                    check_membership_monotonic)
from repro.cluster import build_cluster
from repro.kv import KVClient, KVConfig, build_kv
from repro.photon import photon_init


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
    assert len(r["lost_per_replica"]) == 3  # audit covered all replicas
    for rank, missing in r["lost_per_replica"].items():
        assert missing == [], \
            f"rank {rank} lost acked writes {missing[:5]}"


@pytest.mark.parametrize("scen", ["leader_crash", "follower_crash"])
def test_restarted_replica_rejoins_via_snapshot_install(scen, request):
    r = request.getfixturevalue(scen)
    victim = r["victim"]
    assert r["victim_installs"] >= 1
    # the rejoined replica converged: its machines are byte-identical
    # with the other replicas' at quiescence
    nodes = r["nodes"]
    smap = nodes[0].shard_map
    for g in (0, 1):
        if victim not in smap.replicas(g):
            continue
        blobs = {nodes[rank].machines[g].serialize()
                 for rank in smap.replicas(g)}
        assert len(blobs) == 1, f"group {g} replicas diverged"


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
    check_log_bounded(r["nodes"], slack=0)  # quiescent: no slack at all


def test_live_move_is_invisible_in_the_ack_ledger(leader_crash):
    r = leader_crash
    move = r["move"]
    assert move["epoch"] == 1 and move["moved_bytes"] > 0
    # in-flight writers crossed the flip and recovered via WRONG_EPOCH
    assert r["wrong_epoch"] >= 1 and r["map_refreshes"] >= 1
    # the source group is purged and unsealed; the new owner serves
    nodes = r["nodes"]
    for rank in nodes[0].shard_map.replicas(1):
        sm = nodes[rank].machines[1]
        assert len(sm.data) == 0 and not sm.sealed
    assert r["post_move_ok"] == 20


@pytest.mark.parametrize("scen", ["leader_crash", "follower_crash"])
def test_membership_monotonic_on_every_monitor(scen, request):
    for mon in request.getfixturevalue(scen)["monitors"]:
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
    cl = build_cluster(3, "ib-fdr", seed=71)
    ph = photon_init(cl)
    nodes = build_kv(cl, ph, KVConfig(n_groups=1, rf=3))
    out = {}

    def body(env):
        while not any(n.is_leader(0) for n in nodes):
            yield env.timeout(50_000)
        c = KVClient(nodes[0], client_id=1)
        for i in range(20):  # far below compact_threshold (256)
            yield from c.put(f"idle:{i}".encode(), b"v")
        yield env.timeout(500_000)
        out["ok"] = True

    done = cl.env.process(body(cl.env), name="kv.idle")
    cl.env.run(until=done)
    assert out["ok"]
    for n in nodes:
        rn = n.raft[0]
        assert rn.snapshot_fn is not None  # armed ...
        assert rn.snapshots_taken == 0     # ... but never fired
        assert rn.snapshot_chunks_sent == 0
        assert rn.snapshot_installs == 0
        assert rn.base_index == 0
    for r in range(3):
        vals = cl.scope(r).values
        assert vals.get("kv.snapshots_taken", 0) == 0
        assert vals.get("kv.snapshot_installs", 0) == 0
        assert vals.get("kv.raft.snapshot_bytes", 0) == 0
    assert cl.metrics.span_durations("kv.raft.install") == []


def test_snapshot_install_with_spans_off():
    """``counters.span()`` hands out None with spans off (the default);
    a snapshot install on such a cluster must not trip over it."""
    from repro.kv.raft import RaftConfig

    cl = build_cluster(3, "ib-fdr", seed=72)  # spans=False
    ph = photon_init(cl)
    nodes = build_kv(cl, ph, KVConfig(
        n_groups=1, rf=3,
        raft=RaftConfig(compact_threshold=8, compact_margin=2)))
    out = {}

    def body(env):
        while not any(n.is_leader(0) for n in nodes):
            yield env.timeout(50_000)
        leader = next(n.rank for n in nodes if n.is_leader(0))
        follower = (leader + 1) % 3
        c = KVClient(nodes[leader], client_id=1)
        for i in range(30):  # leader snapshots + compacts several times
            yield from c.put(f"k:{i}".encode(), b"v")
        # an amnesiac follower can only catch up through InstallSnapshot
        nodes[follower].on_crash()
        nodes[follower].reseed()
        for i in range(30, 40):
            yield from c.put(f"k:{i}".encode(), b"v")
        yield env.timeout(2_000_000)
        out["follower"] = follower

    done = cl.env.process(body(cl.env), name="kv.spans_off")
    cl.env.run(until=done)
    f = out["follower"]
    assert cl.scope(f).values.get("kv.snapshot_installs", 0) >= 1
    assert nodes[f]._proc.is_alive
    assert len({n.machines[0].serialize() for n in nodes}) == 1
