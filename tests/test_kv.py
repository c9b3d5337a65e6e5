"""repro.kv: Raft core, sharding, sessions, end-to-end store ops.

The Raft protocol properties (single-leader elections, log replication,
the current-term commit restriction, conflict-suffix repair, read
leases, compaction) are checked on pure-logic :class:`RaftNode`
instances driven over a synchronous in-memory bus — instant delivery,
caller-owned clock, no simulator.  The end-to-end tests then run the
real store on the simulated fabric through :func:`build_kv` and
:class:`KVClient`.

The golden-trace guard at the bottom re-asserts the pinned R1/R4/R17
fingerprints with ``repro.kv`` imported: the tenant must be strictly
pay-for-what-you-build — importing it consumes no RNG draws and
schedules nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest

from repro.bench.experiments import r1_latency, r4_ledger, r17_faults
from repro.cluster import build_cluster
from repro.kv import (Command, KVClient, KVConfig, KVStateMachine,
                      RaftConfig, RaftNode, ShardMap, build_kv,
                      decode_command, encode_command)
from repro.kv.raft import (CANDIDATE, FOLLOWER, LEADER, MSG_APPEND,
                           MSG_APPEND_REPLY, MSG_SNAP, MSG_SNAP_REPLY,
                           MSG_VOTE_REPLY, MSG_VOTE_REQ, RaftMsg, decode_msg,
                           encode_msg)
from repro.kv.shard import CodecError, OP_PUT, ST_MISS, ST_OK
from repro.kv.store import (ACT_RESP, APPLY_COST_NS, PendingReply, RESP_FAIL,
                            RESP_NO_LEASE, RESP_NOT_LEADER, RESP_OK,
                            pack_loc, pack_response, unpack_loc,
                            unpack_request, unpack_response)
from repro.kv.scenario import Op, Scenario, keyspace, pct_us, zipf_plan
from repro.obs.report import build_snapshot
from repro.photon import photon_init
from repro.runtime import build_runtime
from repro.runtime.health import build_health
from repro.sim.core import SimulationError
from repro.sim.rng import RngRegistry
from tests.stepping import peek

from tests.test_determinism_golden import (GOLDEN, _photon_clean_workload,
                                           _photon_lossy_workload,
                                           _result_fingerprint,
                                           _trace_fingerprint)

HB = 50_000


# --------------------------------------------------------------------------
# synchronous bus for pure-logic Raft tests
# --------------------------------------------------------------------------

class Bus:
    """Drives a Raft group with instant delivery and a manual clock."""

    def __init__(self, n: int = 3, seed: int = 1, cfg: RaftConfig = None):
        ns = RngRegistry(seed).namespace("kv.raft.test")
        cfg = cfg or RaftConfig()
        self.nodes = {r: RaftNode(0, r, list(range(n)), cfg,
                                  ns.stream(f"r{r}")) for r in range(n)}
        self.now = 0
        self.cut: set = set()  # ranks isolated from the wire

    def deliver(self) -> None:
        for _ in range(10_000):
            moved = False
            for node in self.nodes.values():
                pending, node.outbox[:] = list(node.outbox), []
                if node.rank in self.cut:
                    continue
                for dst, raw in pending:
                    if dst in self.cut:
                        continue
                    self.nodes[dst].on_message(decode_msg(raw), self.now)
                    moved = True
            if not moved:
                return
        raise AssertionError("bus did not quiesce")

    def step(self, dt: int = HB) -> None:
        self.now += dt
        for node in self.nodes.values():
            node.tick(self.now)
        self.deliver()

    def run_until(self, pred, max_steps: int = 400, dt: int = HB) -> None:
        for _ in range(max_steps):
            if pred():
                return
            self.step(dt)
        raise AssertionError("predicate never held")

    def leader(self) -> RaftNode:
        live = [n for n in self.nodes.values()
                if n.role == LEADER and n.rank not in self.cut]
        assert len(live) <= 1 or len({n.term for n in live}) == len(live), \
            "two leaders in one term"
        return max(live, key=lambda n: n.term) if live else None

    def elect(self) -> RaftNode:
        self.run_until(lambda: self.leader() is not None)
        # settle the first heartbeat round so the leader has fresh acks
        self.step()
        return self.leader()


# --------------------------------------------------------------------------
# raft: codecs
# --------------------------------------------------------------------------

def test_raft_message_codecs_roundtrip():
    msgs = [
        RaftMsg(MSG_VOTE_REQ, 3, 7, 1, last_log_index=12, last_log_term=6),
        RaftMsg(MSG_VOTE_REPLY, 3, 7, 2, granted=True),
        RaftMsg(MSG_APPEND, 0, 9, 0, prev_index=4, prev_term=8, commit=3,
                sent_ns=123_456, entries=((8, b"alpha"), (9, b""))),
        RaftMsg(MSG_APPEND_REPLY, 0, 9, 2, success=False, match_index=4,
                sent_ns=123_456),
        RaftMsg(MSG_SNAP, 0, 9, 1, snap_index=40, snap_term=8, offset=4096,
                total=5000, done=True, chunk=b"z" * 904, sent_ns=7),
        RaftMsg(MSG_SNAP_REPLY, 0, 9, 2, snap_index=40, next_offset=5000,
                sent_ns=7),
    ]
    for msg in msgs:
        assert decode_msg(encode_msg(msg)) == msg


def test_raft_decode_rejects_malformed_frames():
    """Truncated, overgrown and unknown frames raise a typed CodecError
    instead of struct.error / silent garbage."""
    good = encode_msg(RaftMsg(MSG_APPEND, 0, 9, 0, prev_index=4,
                              prev_term=8, commit=3, sent_ns=1,
                              entries=((8, b"alpha"),)))
    with pytest.raises(CodecError):
        decode_msg(b"")
    with pytest.raises(CodecError):
        decode_msg(good[:1])          # no header
    with pytest.raises(CodecError):
        decode_msg(good[:-3])         # truncated entry payload
    with pytest.raises(CodecError):
        decode_msg(good + b"\x00")    # trailing bytes
    with pytest.raises(CodecError):
        decode_msg(b"\xff" + good[1:])  # unknown kind
    snap = encode_msg(RaftMsg(MSG_SNAP, 0, 9, 1, snap_index=4, snap_term=2,
                              offset=0, total=10, done=False,
                              chunk=b"abcde", sent_ns=1))
    with pytest.raises(CodecError):
        decode_msg(snap[:-2])         # truncated chunk
    with pytest.raises(CodecError):
        decode_msg(snap + b"!")       # overlong chunk frame


# --------------------------------------------------------------------------
# raft: elections and replication
# --------------------------------------------------------------------------

def test_bootstrap_elects_exactly_one_leader():
    bus = Bus(n=3)
    leader = bus.elect()
    assert leader.term >= 1
    assert sum(1 for n in bus.nodes.values() if n.role == LEADER) == 1
    for n in bus.nodes.values():
        assert n.leader == leader.rank


def test_replication_applies_same_commands_everywhere():
    bus = Bus(n=3)
    leader = bus.elect()
    applied = {r: [] for r in bus.nodes}
    cmds = [f"cmd{i}".encode() for i in range(5)]
    for cmd in cmds:
        assert leader.propose(cmd, bus.now) is not None
    assert bus.nodes[(leader.rank + 1) % 3].propose(b"x", bus.now) is None
    bus.run_until(lambda: all(n.last_applied == leader.last_index
                              for n in bus.nodes.values()))
    for r, node in bus.nodes.items():
        applied[r] += [cmd for _idx, cmd in node.take_applied()]
    # same commands, same order, no-ops filtered out
    assert all(applied[r] == cmds for r in bus.nodes)


def test_catch_up_after_partition_heals():
    bus = Bus(n=3)
    leader = bus.elect()
    straggler = (leader.rank + 1) % 3
    bus.cut.add(straggler)
    for i in range(4):
        leader.propose(f"while-away{i}".encode(), bus.now)
    bus.run_until(lambda: leader.commit_index == leader.last_index,
                  max_steps=50)
    assert bus.nodes[straggler].last_applied < leader.last_applied
    bus.cut.clear()
    bus.run_until(lambda: bus.nodes[straggler].last_applied
                  == leader.last_applied, max_steps=50)
    assert ([e for e in bus.nodes[straggler].log]
            == [e for e in leader.log])


def test_detection_driven_election_beats_the_timeout():
    bus = Bus(n=3)
    leader = bus.elect()
    victim = leader.rank
    bus.cut.add(victim)
    t0 = bus.now
    for node in bus.nodes.values():
        if node.rank != victim:
            node.on_peer_dead(victim, bus.now)
    bus.run_until(lambda: bus.leader() is not None, dt=25_000)
    cfg = leader.config
    fast_bound = cfg.fast_election_ns + cfg.election_jitter_ns + 50_000
    assert bus.now - t0 <= fast_bound
    assert bus.now - t0 < cfg.election_timeout_ns


def _voter(role, log):
    """Rank 1 of three at term 2 with ``log``, election armed for 900 us."""
    ns = RngRegistry(17).namespace("kv.raft.test")
    node = RaftNode(0, 1, [0, 1, 2], RaftConfig(), ns.stream("timer"))
    node.term, node.role, node.log = 2, role, list(log)
    node.voted_for = 1 if role == CANDIDATE else None
    node.election_due = 900_000
    return node


@pytest.mark.parametrize("role", [FOLLOWER, CANDIDATE])
def test_refused_higher_term_vote_request_leaves_the_election_timer(role):
    """Raft §5.2: the timer is pushed back by a granted vote or by the
    current leader, not by a higher term alone — a candidate whose log is
    too short to win must not keep resetting the replica that can."""
    node = _voter(role, [(1, b"a"), (2, b"b")])
    stale = RaftMsg(MSG_VOTE_REQ, 0, 3, 2, last_log_index=1, last_log_term=1)
    node.on_message(stale, now=500_000)
    reply = decode_msg(node.outbox[-1][1])
    assert not reply.granted and reply.term == 3
    assert (node.term, node.role, node.voted_for) == (3, FOLLOWER, None)
    assert node.election_due == 900_000
    # same for a refusal that comes back as a higher-term VoteReply
    node.on_message(RaftMsg(MSG_VOTE_REPLY, 0, 4, 2, granted=False),
                    now=600_000)
    assert node.term == 4 and node.election_due == 900_000


def test_granted_vote_moves_the_election_timer():
    node = _voter(FOLLOWER, [(1, b"a")])
    fresh = RaftMsg(MSG_VOTE_REQ, 0, 3, 2, last_log_index=2, last_log_term=2)
    node.on_message(fresh, now=500_000)
    assert decode_msg(node.outbox[-1][1]).granted and node.voted_for == 2
    assert node.election_due >= 500_000 + node.config.election_timeout_ns


def test_deposed_leader_arms_a_finite_election_timer():
    """A leader's ``election_due`` is "never"; whatever deposes it — here
    a refused RequestVote of a higher term — must leave a real one."""
    bus = Bus(n=3)
    leader = bus.elect()
    assert leader.election_due > bus.now + (1 << 60)
    leader.on_message(RaftMsg(MSG_VOTE_REQ, 0, leader.term + 1,
                              (leader.rank + 1) % 3), now=bus.now)
    assert leader.role == FOLLOWER
    assert not decode_msg(leader.outbox[-1][1]).granted   # log too short
    cfg = leader.config
    assert 0 <= leader.election_due - bus.now - cfg.election_timeout_ns \
        < cfg.election_jitter_ns


def test_a_split_detection_driven_vote_retries_on_the_fast_delay():
    """Two survivors whose detection-driven timers fire closer together
    than a message flight each vote for themselves; the crossed same-term
    RequestVotes are refused and move no timer.  Each candidate re-arms on
    the fast delay, not a full election timeout (ROADMAP item 1e), and the
    next round elects.  Once a leader is heard from, the loser's rounds
    re-arm on the full timeout again."""
    ns = RngRegistry(7).namespace("kv.raft.test")
    cfg = RaftConfig()
    a, b = pair = [RaftNode(0, r, [0, 1, 2], cfg, ns.stream(f"r{r}"))
                   for r in (1, 2)]
    for node in pair:
        node.term, node.leader, node.log = 1, 0, [(1, b""), (1, b"x")]
        node.on_peer_dead(0, now=0)

    def cross(now):
        for node, peer in ((a, b), (b, a)):
            pending, node.outbox[:] = list(node.outbox), []
            for dst, raw in pending:
                if dst == peer.rank:
                    peer.on_message(decode_msg(raw), now)

    t = a.election_due
    a.tick(t)
    b.tick(t + 1_000)
    due = (a.election_due, b.election_due)
    cross(t + 2_500)
    cross(t + 5_000)
    assert [(n.role, n.term, n.voted_for) for n in pair] == \
        [(CANDIDATE, 2, 1), (CANDIDATE, 2, 2)]
    assert (a.election_due, b.election_due) == due
    assert max(due) < t + 1_000 + cfg.fast_election_ns \
        + cfg.election_jitter_ns < t + cfg.election_timeout_ns
    first = min(pair, key=lambda n: n.election_due)
    now = first.election_due
    first.tick(now)
    cross(now + 1_500)
    cross(now + 3_000)
    assert first.role == LEADER and first.term == 3
    loser = b if first is a else a
    first.tick(first.next_due())  # its first AppendEntries round
    cross(now + 4_500)
    assert loser.role == FOLLOWER
    assert loser.election_due >= now + 4_500 + cfg.election_timeout_ns
    now = loser.election_due
    loser.tick(now)
    assert loser.term == 4
    assert loser.election_due >= now + cfg.election_timeout_ns


def test_lease_granted_by_acked_rounds_and_expires():
    bus = Bus(n=3)
    leader = bus.elect()
    assert leader.lease_valid(bus.now)
    # silence: peers stop acking, the lease must run out on its own
    bus.cut.update(r for r in bus.nodes if r != leader.rank)
    horizon = bus.now + leader.config.lease_ns + leader.config.heartbeat_ns
    while bus.now <= horizon:
        bus.step(dt=25_000)
    assert not leader.lease_valid(bus.now)
    followers = [n for n in bus.nodes.values() if n.rank != leader.rank]
    assert not any(f.lease_valid(bus.now) for f in followers)


def test_failed_append_replies_do_not_extend_the_lease():
    """A log-mismatch (success=False) AE reply proves the peer is alive,
    not that it follows this leader's log — it must not feed the lease,
    or a conflict-repairing new leader could serve stale reads."""
    ns = RngRegistry(11).namespace("kv.raft.test")
    node = RaftNode(0, 0, [0, 1, 2], RaftConfig(), ns.stream("lease"))
    node.term = 2
    node.role = LEADER
    node.next_index = {1: 1, 2: 1}
    node.match_index = {1: 0, 2: 0}
    node._ack_round = {1: 0, 2: 0}
    t = 1_000_000
    node._inflight = {1: t, 2: t}
    nack = RaftMsg(MSG_APPEND_REPLY, 0, 2, 1, success=False,
                   match_index=0, sent_ns=t)
    node.on_message(nack, now=t)
    assert node._ack_round[1] == 0
    assert not node.lease_valid(t + 1)
    ack = RaftMsg(MSG_APPEND_REPLY, 0, 2, 2, success=True,
                  match_index=0, sent_ns=t)
    node.on_message(ack, now=t)
    assert node._ack_round[2] == t
    assert node.lease_valid(t + 1)  # self + one successful ack = majority


def test_read_barrier_requires_current_term_commit_and_apply():
    """Raft §8: a new leader must not answer reads until an entry of its
    own term is committed *and* the applied output is drained — before
    that its state machine may lag the old leader's acked writes."""
    ns = RngRegistry(13).namespace("kv.raft.test")
    node = RaftNode(0, 0, [0, 1, 2], RaftConfig(), ns.stream("rb"))
    node.term = 2
    node.role = LEADER
    node.log = [(1, b"inherited")]
    node.next_index = {1: 2, 2: 2}
    node.match_index = {1: 1, 2: 1}
    node._advance_commit()
    assert node.commit_index == 0
    assert not node.read_barrier_ok()  # nothing of term 2 committed yet
    node.log.append((2, b""))  # the election no-op
    node.match_index = {1: 2, 2: 2}
    node._advance_commit()
    assert node.commit_index == 2
    assert not node.read_barrier_ok()  # applied entries not drained yet
    node.take_applied()
    assert node.read_barrier_ok()


def test_elected_leader_passes_the_read_barrier():
    bus = Bus(n=3)
    leader = bus.elect()
    leader.take_applied()
    assert leader.lease_valid(bus.now)
    assert leader.read_barrier_ok()


def test_single_replica_group_commits_without_peers():
    ns = RngRegistry(15).namespace("kv.raft.test")
    node = RaftNode(0, 0, [0], RaftConfig(), ns.stream("solo"))
    node.tick(node.election_due)  # immediate uncontested self-election
    assert node.role == LEADER
    assert node.commit_index == node.last_index  # no-op committed solo
    idx = node.propose(b"solo-cmd", node.election_due)
    assert idx is not None and node.commit_index == idx
    assert [cmd for _i, cmd in node.take_applied()] == [b"solo-cmd"]
    assert node.read_barrier_ok()


def test_commit_restriction_needs_a_current_term_entry():
    ns = RngRegistry(7).namespace("kv.raft.test")
    node = RaftNode(0, 0, [0, 1, 2], RaftConfig(), ns.stream("cr"))
    node.term = 2
    node.role = LEADER
    node.log = [(1, b"inherited")]
    node.next_index = {1: 2, 2: 2}
    node.match_index = {1: 1, 2: 1}  # old-term entry matched on a majority
    node._advance_commit()
    assert node.commit_index == 0  # majority match alone must not commit
    node.log.append((2, b""))  # the new leader's no-op
    node.match_index = {1: 2, 2: 2}
    node._advance_commit()
    # committing the current-term no-op carries the inherited entry
    assert node.commit_index == 2


def test_append_truncates_conflicting_suffix():
    ns = RngRegistry(9).namespace("kv.raft.test")
    node = RaftNode(0, 1, [0, 1, 2], RaftConfig(), ns.stream("tr"))
    node.term = 2
    node.log = [(1, b"a"), (2, b"bogusB"), (2, b"bogusC")]
    ae = RaftMsg(MSG_APPEND, 0, 3, 0, prev_index=1, prev_term=1, commit=2,
                 sent_ns=5, entries=((3, b"realB"), (3, b"realC")))
    node.on_message(ae, now=5)
    assert node.log == [(1, b"a"), (3, b"realB"), (3, b"realC")]
    assert node.commit_index == 2
    reply = decode_msg(node.outbox[-1][1])
    assert reply.success and reply.match_index == 3


def _snapshot_when_due(bus, payload: bytes = b"machine-state") -> None:
    """Play the store's part in compaction: a node whose drained applied
    prefix has outgrown the threshold adopts ``payload`` as its machine
    at ``last_applied`` (a bare RaftNode never snapshots by itself)."""
    for n in bus.nodes.values():
        if n.snapshot_due():
            n.take_snapshot(payload, n.last_applied)


def _drain_all(bus, payload: bytes = b"machine-state") -> None:
    for n in bus.nodes.values():
        n.take_applied()
        n.take_installed()
    _snapshot_when_due(bus, payload)


def test_compaction_trims_the_applied_prefix():
    cfg = RaftConfig(compact_threshold=8, compact_margin=2)
    bus = Bus(n=3, cfg=cfg)
    leader = bus.elect()
    for i in range(30):
        leader.propose(f"c{i:03d}".encode(), bus.now)
        bus.step(dt=10_000)
        _drain_all(bus)  # snapshots wait for the caller to drain applies
    bus.run_until(lambda: (_drain_all(bus) or all(
        n.last_applied == leader.last_index for n in bus.nodes.values())))
    bus.step()
    _drain_all(bus)
    assert leader.base_index > 0
    assert leader.snapshots_taken >= 1
    assert leader.compactions >= 1
    assert len(leader.log) < 30
    # the retained applied suffix is bounded by threshold + margin ...
    for n in bus.nodes.values():
        assert (n.last_applied - n.base_index
                <= cfg.compact_threshold + cfg.compact_margin)
    # ... and healthy followers converged on the plain AE path: the
    # margin kept enough entries that nobody needed a snapshot install
    assert all(n.snapshot_installs == 0 for n in bus.nodes.values())
    assert all(n.last_index == leader.last_index
               for n in bus.nodes.values())


def test_snapshot_streams_to_a_partitioned_follower(monkeypatch):
    """Trimming past a laggard is safe because the laggard is caught up
    by InstallSnapshot: cut a follower, overrun the threshold, heal —
    the follower must converge via a streamed snapshot, not AE repair."""
    # force a multi-chunk transfer
    monkeypatch.setattr("repro.kv.raft.SNAPSHOT_CHUNK", 7)
    cfg = RaftConfig(compact_threshold=8, compact_margin=2)
    bus = Bus(n=3, cfg=cfg)
    leader = bus.elect()
    lag = bus.nodes[(leader.rank + 1) % 3]
    bus.cut.add(lag.rank)
    for i in range(30):
        leader.propose(f"c{i:03d}".encode(), bus.now)
        bus.step(dt=10_000)
        _drain_all(bus, b"s" * 40)
    # the leader trimmed past the cut follower's position
    assert leader.base_index > lag.last_index
    assert leader.snapshot_index > 0
    bus.cut.discard(lag.rank)
    bus.run_until(lambda: (_drain_all(bus, b"s" * 40) or
                           lag.last_applied == leader.last_index))
    assert lag.snapshot_installs >= 1
    assert leader.snapshot_chunks_sent >= 2     # 40B / 7B chunks
    assert lag.base_index == lag.snapshot_index > 0
    assert lag.last_index == leader.last_index
    # the installed blob is retained so *this* node could serve installs
    # were it to become leader
    assert lag.snapshot_blob == b"s" * 40


def test_snapshot_install_reports_blob_to_caller():
    """A follower that installs a snapshot surfaces (index, term, blob)
    through take_installed() exactly once, and its applied cursor jumps
    to the snapshot point without replaying the trimmed prefix."""
    cfg = RaftConfig(compact_threshold=4, compact_margin=1)
    bus = Bus(n=3, cfg=cfg)
    leader = bus.elect()
    lag = bus.nodes[(leader.rank + 1) % 3]
    bus.cut.add(lag.rank)
    for i in range(12):
        leader.propose(f"c{i:03d}".encode(), bus.now)
        bus.step(dt=10_000)
        for n in bus.nodes.values():
            n.take_applied()
        _snapshot_when_due(bus, b"full-machine")
    bus.cut.discard(lag.rank)
    bus.run_until(lambda: bool(lag._installed_out))
    installed = lag.take_installed()
    assert len(installed) == 1
    index, term, blob, _t0 = installed[0]
    assert blob == b"full-machine"
    assert index == lag.base_index == lag.last_applied
    assert term <= leader.term
    assert lag.take_installed() == []  # drained exactly once


# --------------------------------------------------------------------------
# sharding and the state machine
# --------------------------------------------------------------------------

def test_shard_map_placement_and_balance():
    sm = ShardMap(n_groups=4, n_ranks=6, rf=3)
    keys = [f"key:{i}".encode() for i in range(2000)]
    assert all(sm.group_of(k) == sm.group_of(k) for k in keys[:50])
    dist = Counter(sm.group_of(k) for k in keys)
    assert sum(dist.values()) == len(keys)
    assert sorted(dist) == [0, 1, 2, 3]
    for g in range(4):
        reps = sm.replicas(g)
        assert len(set(reps)) == 3
        assert all(g in sm.groups_on(r) for r in reps)


def test_consistent_hashing_moves_only_to_the_new_group():
    before = ShardMap(n_groups=4, n_ranks=8, rf=3)
    after = ShardMap(n_groups=5, n_ranks=8, rf=3)
    keys = [f"key:{i}".encode() for i in range(2000)]
    moved = [k for k in keys if before.group_of(k) != after.group_of(k)]
    assert 0 < len(moved) < len(keys) // 2
    # the ring property: growing the group count only moves keys *to*
    # the new group, never between the old ones
    assert all(after.group_of(k) == 4 for k in moved)


def test_command_codec_roundtrip():
    cmd = Command(op=OP_PUT, client=42, seq=7, key=b"k", value=b"v" * 100,
                  expected=b"old")
    assert decode_command(encode_command(cmd)) == cmd


def test_command_decode_rejects_malformed_frames():
    good = encode_command(Command(op=OP_PUT, client=1, seq=2, key=b"key",
                                  value=b"value"))
    with pytest.raises(CodecError):
        decode_command(b"")
    with pytest.raises(CodecError):
        decode_command(good[:4])       # truncated header
    with pytest.raises(CodecError):
        decode_command(good[:-1])      # body shorter than lengths claim
    with pytest.raises(CodecError):
        decode_command(good + b"xx")   # body longer than lengths claim


def test_response_and_loc_decode_reject_malformed_frames():
    good = pack_response(0, -1, 7, 9, b"value")
    assert unpack_response(good) == (0, -1, 7, 9, b"value")
    for bad in (b"", good[:5], good[:-2], good + b"x"):
        with pytest.raises(CodecError):
            unpack_response(bad)       # truncated / vlen past the end / long
    loc = pack_loc(2, 3, 160, 0x1000, 0xbeef)
    assert unpack_loc(loc) == (2, 3, 160, 0x1000, 0xbeef)
    for bad in (b"", loc[:-1], loc + b"x"):
        with pytest.raises(CodecError):
            unpack_loc(bad)


def test_shard_map_reassign_flips_ownership_and_epoch():
    sm = ShardMap(n_groups=4, n_ranks=6, rf=3)
    keys = [f"key:{i}".encode() for i in range(2000)]
    src = sm.group_of(keys[0])
    dst = (src + 1) % 4
    owned = [k for k in keys if sm.group_of(k) == src]
    view0 = sm.freeze()
    assert sm.epoch == 0 and view0.epoch == 0
    epoch = sm.reassign(src, dst)
    assert epoch == sm.epoch == 1
    # every key the source owned now routes to the destination ...
    assert all(sm.group_of(k) == dst for k in owned)
    # ... nothing else moved ...
    assert all(sm.group_of(k) != src for k in keys)
    # ... and the frozen pre-move view still routes the old way
    assert view0.group_of(keys[0]) == src
    assert sm.moves == [(1, src, dst)]


def test_state_machine_serialize_roundtrip_and_merge():
    m = KVStateMachine(0)
    m.apply(Command(OP_PUT, 1, 1, b"a", b"v1"))
    m.apply(Command(OP_PUT, 2, 1, b"b", b"v2"))
    m.apply(Command(OP_PUT, 1, 2, b"a", b"v3"))
    blob = m.serialize()
    # byte-determinism: same state → same blob
    assert m.serialize() == blob
    clone = KVStateMachine.deserialize(0, blob)
    assert clone.get(b"a") == b"v3" and clone.get(b"b") == b"v2"
    # versions survive (the one-sided readers' monotonic-read guard)
    assert clone.version == m.version == {b"a": 2, b"b": 1}
    assert clone.ops_applied == m.ops_applied
    # sessions survive: a replayed uid still dedups after the roundtrip
    before = clone.ops_applied
    assert clone.apply(Command(OP_PUT, 1, 2, b"a", b"SHOULD-NOT-LAND")) \
        == (ST_OK, b"")
    assert clone.get(b"a") == b"v3"
    assert clone.ops_applied == before and clone.dup_skips == 1
    # merge overlays into a machine that has its own keys
    other = KVStateMachine(1)
    other.apply(Command(OP_PUT, 3, 1, b"c", b"v4"))
    other.merge_from(blob)
    assert other.get(b"a") == b"v3" and other.get(b"c") == b"v4"
    assert (1, 2) in other.applied_uids and (3, 1) in other.applied_uids
    with pytest.raises(CodecError):
        KVStateMachine.deserialize(0, blob[:-2])
    with pytest.raises(CodecError):
        KVStateMachine.deserialize(0, blob + b"\x00")


def test_state_machine_seal_rejects_writes_without_burning_sessions():
    from repro.kv.shard import OP_SEAL, ST_SEALED
    m = KVStateMachine(0)
    m.apply(Command(OP_PUT, 1, 1, b"k", b"v1"))
    assert m.apply(Command(OP_SEAL, 9, 1, b""))[0] == ST_OK
    assert m.sealed
    st, _ = m.apply(Command(OP_PUT, 1, 2, b"k", b"v2"))
    assert st == ST_SEALED
    # the rejected write must NOT be recorded as applied: the client's
    # retry has to be able to land at the destination group post-move
    assert (1, 2) not in m.applied_uids
    assert m.get(b"k") == b"v1"
    # reads of frozen state keep working; replays of pre-seal writes too
    assert m.apply(Command(OP_PUT, 1, 1, b"k", b"zzz")) == (ST_OK, b"")
    assert m.get(b"k") == b"v1"


def test_state_machine_ops_and_exactly_once_sessions():
    m = KVStateMachine(0)
    assert m.apply(Command(OP_PUT, 1, 1, b"k", b"v1")) == (ST_OK, b"")
    assert m.get(b"k") == b"v1"
    assert m.apply(Command(OP_PUT, 1, 3, b"k", b"v2")) == (ST_OK, b"")
    assert m.get(b"k") == b"v2" and m.version[b"k"] == 2
    # replay of an applied uid: retained result, no re-execution
    ops_before = m.ops_applied
    assert m.apply(Command(OP_PUT, 1, 1, b"k", b"SHOULD-NOT-LAND")) \
        == (ST_OK, b"")
    assert m.get(b"k") == b"v2"
    assert m.ops_applied == ops_before and m.dup_skips == 1
    assert (1, 3) in m.applied_uids


def test_zipf_skew_and_stats_percentiles():
    rng, keys = RngRegistry(3), keyspace(64)
    plan = zipf_plan(keys, 1.2, 0.25, rng.stream("zipf"), rng.stream("coin"),
                     4000)
    draws = [key for key, _is_get in plan]
    top = max(set(draws), key=draws.count)
    assert top == keys[0]  # rank-0 key dominates under skew
    assert draws.count(top) > 3 * (len(draws) // 64)
    assert 800 < sum(is_get for _key, is_get in plan) < 1200
    # a plan drawn ahead is the plan drawn op by op: same streams, same pairs
    again = RngRegistry(3)
    lazy = zipf_plan(keys, 1.2, 0.25, again.stream("zipf"),
                     again.stream("coin"))
    assert [next(lazy) for _ in range(4000)] == plan
    history = [Op(1, i + 1, "get", b"k", b"v", ST_OK, 0, (i + 1) * 1000)
               for i in range(100)]
    assert pct_us(history, "get", 50) < pct_us(history, "get", 99)
    assert pct_us(history, "put", 50) == 0.0


# --------------------------------------------------------------------------
# end to end on the simulated fabric
# --------------------------------------------------------------------------

def _run_kv(body, n_ranks=3, n_groups=1, seed=21):
    sc = Scenario(n_ranks, n_groups, seed, spans=False)
    out = {}

    def driver():
        yield from sc.wait_leaders()
        yield from body(sc.env, sc.cluster, sc.nodes, out)

    sc.run(driver())
    return sc.cluster, sc.nodes, out


def test_end_to_end_put_get():
    def body(env, cl, nodes, out):
        c = KVClient(nodes[0], client_id=1)
        out["put"] = yield from c.put(b"k1", b"v1")
        out["get1"] = yield from c.get(b"k1")
        out["put2"] = yield from c.put(b"k1", b"v2")
        out["get2"] = yield from c.get(b"k1")
        out["miss"] = yield from c.get(b"nope")

    _cl, _nodes, out = _run_kv(body)
    assert out["put"] == out["put2"] == ST_OK
    assert out["get1"] == (ST_OK, b"v1")
    assert out["get2"] == (ST_OK, b"v2")
    assert out["miss"][0] == ST_MISS


def test_one_sided_read_path_serves_from_the_slot_table():
    def body(env, cl, nodes, out):
        writer = KVClient(nodes[0], client_id=1)
        reader = KVClient(nodes[-1], client_id=2, read_mode="onesided")
        yield from writer.put(b"hot", b"payload")
        out["reads"] = []
        for _ in range(3):
            out["reads"].append((yield from reader.get(b"hot")))
        out["reader"] = reader

    _cl, _nodes, out = _run_kv(body)
    assert all(r == (ST_OK, b"payload") for r in out["reads"])
    stats = out["reader"].stats
    assert stats.onesided_reads == 3
    assert stats.loc_lookups == 1  # the location is cached after one RPC
    assert stats.onesided_fallbacks == 0


def test_duplicate_seq_is_applied_exactly_once():
    def body(env, cl, nodes, out):
        c = KVClient(nodes[0], client_id=5)
        yield from c.put(b"once", b"first")
        c.seq -= 1  # replay the same (client, seq) uid
        out["replay"] = yield from c.put(b"once", b"second")
        out["read"] = yield from c.get(b"once")
        yield env.timeout(20 * HB)  # let follower apply loops drain

    _cl, nodes, out = _run_kv(body)
    assert out["replay"] == ST_OK  # retained first result, not an error
    assert out["read"] == (ST_OK, b"first")
    group = nodes[0].shard_map.group_of(b"once")
    machines = [n.machines[group] for n in nodes
                if group in n.machines]
    assert machines
    for m in machines:
        assert m.get(b"once") == b"first"
        assert m.version[b"once"] == 1


def test_multi_group_store_spreads_keys():
    def body(env, cl, nodes, out):
        c = KVClient(nodes[0], client_id=1)
        for i in range(24):
            yield from c.put(f"spread:{i}".encode(), b"x")
        out["ok"] = True

    _cl, nodes, out = _run_kv(body, n_ranks=4, n_groups=3, seed=23)
    assert out["ok"]
    per_group = {g: sum(len(m.data)
                        for n in nodes for gg, m in n.machines.items()
                        if gg == g) for g in range(3)}
    assert all(count > 0 for count in per_group.values())


def test_onesided_loc_cache_revalidates_in_the_background(monkeypatch):
    monkeypatch.setattr("repro.kv.client.LOC_TTL_NS", 1)

    def body(env, cl, nodes, out):
        writer = KVClient(nodes[0], client_id=1)
        reader = KVClient(nodes[-1], client_id=2, read_mode="onesided")
        yield from writer.put(b"ttl", b"v")
        out["r1"] = yield from reader.get(b"ttl")
        yield env.timeout(10)
        # the cached loc is past its TTL: this read is still served
        # one-sided (stale-while-revalidate) and kicks off a refresh
        out["r2"] = yield from reader.get(b"ttl")
        yield env.timeout(200_000)  # let the background refresh land
        out["refreshed_at"] = reader._loc[b"ttl"][4]
        out["stats"] = reader.stats
        out["refreshing"] = set(reader._refreshing)

    _cl, _nodes, out = _run_kv(body)
    assert out["r1"] == (ST_OK, b"v") and out["r2"] == (ST_OK, b"v")
    # the expired location was re-resolved through the RPC path — what
    # bounds staleness against a deposed-but-alive leader — without
    # putting the loc round-trip on the read's latency path
    assert out["stats"].loc_lookups == 2
    assert out["stats"].onesided_reads == 2
    assert out["refreshed_at"] > 0 and out["refreshing"] == set()


def test_onesided_version_regression_falls_back_to_rpc():
    def body(env, cl, nodes, out):
        writer = KVClient(nodes[0], client_id=1)
        reader = KVClient(nodes[-1], client_id=2, read_mode="onesided")
        yield from writer.put(b"mono", b"v1")
        out["r1"] = yield from reader.get(b"mono")
        # pretend the session already observed a newer version than the
        # slot carries (what reading a lagging replica looks like): the
        # monotonic-reads guard must refuse the one-sided value
        reader._seen_ver[b"mono"] = 99
        out["r2"] = yield from reader.get(b"mono")
        out["stats"] = reader.stats

    _cl, _nodes, out = _run_kv(body)
    assert out["r1"] == (ST_OK, b"v1")
    assert out["r2"] == (ST_OK, b"v1")  # authoritative RPC answer
    assert out["stats"].onesided_fallbacks == 1
    assert out["stats"].rpc_reads == 1


def test_late_response_is_dropped_and_the_hub_holds_only_rpcs_in_progress():
    """The hub is a table of RPCs in progress, not a mailbox: an answer
    nobody is registered for — a duplicate to a retry that already
    completed, a client that gave up — is dropped on arrival and counted,
    so there is nothing to sweep.  At quiescence the table is empty."""
    def body(env, cl, nodes, out):
        c = KVClient(nodes[0], client_id=9)
        put = env.process(c.put(b"gc", b"v"))
        yield env.timeout(1_000)
        out["during"] = set(nodes[0].hub)
        yield put
        late = cl.scope(0).get("kv.late_responses")
        for client, seq in [(999, 1), (9, c.seq)]:
            nodes[0].handle_response(
                0, pack_response(0, 0, client, seq, b"zombie"))
        out["dropped"] = cl.scope(0).get("kv.late_responses") - late
        out["get"] = yield from c.get(b"gc")   # the zombie is not its answer

    _cl, nodes, out = _run_kv(body)
    assert out["during"] == {(9, 1)}
    assert out["dropped"] == 2 and out["get"] == (ST_OK, b"v")
    assert [len(n.hub) for n in nodes] == [0, 0, 0]


def test_one_attempt_client_times_out_as_a_failed_op():
    """What the benchmark's "a client timeout counts as a failed op"
    contract asks of ``KVClient``, at a deadline no put can make (the
    frozen ``perf/tests`` one sits between a get and the slowest put, and
    rots whenever a put gets faster): one attempt shorter than a Raft
    round returns RESP_FAIL — not OK, not acknowledged, one timeout
    counted — the answer that arrives afterwards is dropped as late, and
    the write nobody waited for committed all the same."""
    def body(env, cl, nodes, out):
        leader = next(n.rank for n in nodes if n.is_leader(0))
        node = nodes[(leader + 1) % 3]
        hasty = out["hasty"] = KVClient(node, client_id=3, timeout_ns=3_000,
                                        max_attempts=1)
        t0 = env.now
        out["put"] = yield from hasty.put(b"k", b"v")
        out["elapsed"] = env.now - t0
        yield env.timeout(20 * HB)
        out["late"] = cl.scope(node.rank).get("kv.late_responses")
        out["get"] = yield from KVClient(node, client_id=4).get(b"k")

    _cl, nodes, out = _run_kv(body)
    assert out["put"] == RESP_FAIL and 3_000 <= out["elapsed"] < 4_000
    stats = out["hasty"].stats
    assert (stats.timeouts, stats.failures, stats.writes) == (1, 1, 0)
    assert out["hasty"].acked == [] and out["late"] == 1
    assert out["get"] == (ST_OK, b"v")
    assert [len(n.hub) for n in nodes] == [0, 0, 0]


def _stub_node(env, hub=None):
    """As much of a ``KVNode`` as a ``KVClient`` touches."""
    return SimpleNamespace(
        env=env, hub={} if hub is None else hub,
        rank_node=SimpleNamespace(health=None),
        photon=SimpleNamespace(buffer=lambda size: SimpleNamespace(addr=0)),
        shard_map=ShardMap(1, 2, rf=2))


def _scripted_runtime(env, hub, sends, answer_for):
    """A runtime whose ``send`` files ``answer_for(n, dst)`` (None: nothing)
    in the sender's registration before it returns."""
    def send(dst, action, payload):
        sends.append(env.now)
        _kind, client, seq, _group, _epoch, _body = unpack_request(payload)
        answer = answer_for(len(sends), dst)
        if answer is not None:
            hub[(client, seq)].answer = answer
        yield env.timeout(50)
    return SimpleNamespace(send=send)


def test_redirect_bounce_backs_off_instead_of_burning_attempts():
    """Two replicas whose leader hints point at each other must not eat
    the whole attempt budget at wire speed: after the first followed
    hint every further redirect pays the same exponential backoff as
    the hint-less path, so the retry loop outlives an election."""
    cl = build_cluster(2, "ib-fdr", seed=41)
    env = cl.env
    hub, sends = {}, []
    node = _stub_node(env, hub)
    # answers before the wait: no bell ever rings
    node.runtime = _scripted_runtime(
        env, hub, sends, lambda n, dst: (RESP_NOT_LEADER, 1 - dst, b""))

    c = KVClient(node, client_id=1)
    out = {}

    def driver(e):
        t0 = e.now
        out["result"] = yield from c._get_rpc(b"bounce")
        out["elapsed"] = e.now - t0

    done = env.process(driver(env), name="kv.test.bounce")
    env.run(until=done)
    assert out["result"][0] == RESP_FAIL
    assert c.stats.redirects == c.max_attempts
    assert len(sends) == c.max_attempts
    # without backoff 24 wire-speed hops take ~1 µs; with it the loop
    # spans well over a millisecond — longer than a leaderless window
    assert out["elapsed"] >= 1_000_000
    assert hub == {}    # the give-up unregistered


def test_answer_that_lands_during_a_backoff_is_there_for_the_next_attempt():
    """The registration spans the whole RPC: attempt 1 is told NO_LEASE
    and backs off ``8 * poll_ns``; the OK that lands 5 us into that sleep
    (a slower replica's answer to the same uid) is not dropped — attempt 2
    takes it without waiting."""
    env = build_cluster(2, "ib-fdr", seed=41).env
    hub, sends = {}, []
    node = _stub_node(env, hub)
    node.runtime = _scripted_runtime(
        env, hub, sends,
        lambda n, dst: (RESP_NO_LEASE, dst, b"") if n == 1 else None)
    c = KVClient(node, client_id=1, poll_ns=2_000)

    def late_ok():
        yield env.timeout(5_000)
        hub[(1, 1)].answer = (RESP_OK, 0, b"late")
        hub[(1, 1)].bell.fire()        # nobody is parked: woken nobody

    env.process(late_ok())
    done = env.process(c._get_rpc(b"k"))
    env.run(until=done)
    assert done.value == (ST_OK, b"late")
    assert sends == [0, 50 + 16_000] and env.now == 50 + 16_000 + 50
    assert c.stats.lease_retries == 1 and c.stats.timeouts == 0
    assert hub == {} and peek(env) is None


# --------------------------------------------------------------------------
# attentive server loop and client wait (wake-on-arrival)
# --------------------------------------------------------------------------

def _oracle_await(client, reply):
    """The most attentive poll there is — look at the registration every
    nanosecond until the attempt deadline, every probe run, none skipped.
    ``KVClient._await`` must be exactly that, for one wake."""
    env = client.env
    deadline = env.now + client.timeout_ns
    while reply.answer is None:
        if env.now >= deadline:
            return None
        yield env.timeout(1)
    answer, reply.answer = reply.answer, None
    return answer


#: (name, [(instant, "file" | "ring" | "wipe"), ...], answered) for client 1,
#: which starts to wait at T0 with timeout_ns 9000; ``answered`` is the
#: filing instant of the answer its wait returns — at that instant — or
#: None: no answer, at T0 + 9000.  The names place each instant on the probe
#: grid PR 19's ``_await`` looked on (T0 + 2000k, last probe T0 + 10000):
#: there is no grid any more
_AWAIT_T0 = 500
_AWAIT_SCRIPTS = [
    ("already there", [(200, "file")], 200),
    ("on a grid instant", [(_AWAIT_T0 + 4_000, "file")], _AWAIT_T0 + 4_000),
    ("off the grid", [(_AWAIT_T0 + 4_500, "file")], _AWAIT_T0 + 4_500),
    ("a nanosecond before a probe", [(_AWAIT_T0 + 5_999, "file")],
     _AWAIT_T0 + 5_999),
    ("past the deadline, before the last probe",
     [(_AWAIT_T0 + 9_200, "file")], None),
    ("on the last probe", [(_AWAIT_T0 + 10_000, "file")], None),
    ("after the last probe", [(_AWAIT_T0 + 10_500, "file")], None),
    ("never", [], None),
    # on_crash in the nanosecond of the filing, before the woken client runs
    ("wiped by on_crash before the probe",
     [(_AWAIT_T0 + 3_000, "file"), (_AWAIT_T0 + 3_000, "wipe")], None),
    ("wiped, then answered again",
     [(_AWAIT_T0 + 2_000, "wipe"), (_AWAIT_T0 + 3_000, "file"),
      (_AWAIT_T0 + 3_000, "wipe"), (_AWAIT_T0 + 6_100, "file")],
     _AWAIT_T0 + 6_100),
    ("somebody else's answer rings 100 ns before the probe ours lands on",
     [(_AWAIT_T0 + 3_900, "ring"), (_AWAIT_T0 + 4_000, "file")],
     _AWAIT_T0 + 4_000),
]


@pytest.mark.parametrize("name,script,answered", _AWAIT_SCRIPTS,
                         ids=[n for n, _s, _a in _AWAIT_SCRIPTS])
def test_await_returns_what_the_literal_hub_poll_returns(name, script,
                                                         answered):
    """``_await`` parks on its own registration's bell: same answer at the
    same instant as the loop that looks every nanosecond, one wake, and
    nothing of it left on the event queue afterwards.  Answers are filed
    by a real (unstarted) node's ``handle_response`` and wiped by its
    ``on_crash``, the way the server does it: 150 ns (the handler cost)
    after the timer before.  A second client on the node waits from
    another instant; a third (``ring``) is answered beside them."""
    def run(await_fn):
        cl = build_cluster(2, "ib-fdr", seed=41)
        env = cl.env
        node = build_kv(cl, photon_init(cl), KVConfig(n_groups=1, rf=1),
                        start=False)[1]
        clients = [KVClient(node, client_id=c, timeout_ns=9_000)
                   for c in (1, 2)]
        starts = [_AWAIT_T0, _AWAIT_T0 + 333]
        replies = {cid: PendingReply(env) for cid in (1, 2, 3)}
        node.hub.update(((cid, 7), r) for cid, r in replies.items())

        def respond(at, what):
            yield env.timeout(at - 150)
            yield env.timeout(150)
            if what == "wipe":
                # a partial crash on purpose: only the node's hub wipe,
                # twice in one script, which a whole rank's crash cannot
                # repeat without a restart that charges time
                node.on_crash()
                return
            for cid in ((1, 2) if what == "file" else (3,)):
                node.handle_response(
                    0, pack_response(0, 1, cid, 7, b"v%d" % at))

        def wait(c, start):
            yield env.timeout(start)
            answer = yield from await_fn(c, replies[c.client_id])
            return env.now, answer

        for at, what in script:
            env.process(respond(at, what))
        procs = [env.process(wait(c, t)) for c, t in zip(clients, starts)]
        env.run(until=env.all_of(procs))
        return ([p.value for p in procs], peek(env),
                [replies[cid].bell.fires for cid in (1, 2)])

    got, pending, rings = run(KVClient._await)
    want, _, _ = run(_oracle_await)
    assert got == want
    assert got[0] == ((max(answered, _AWAIT_T0), (0, 1, b"v%d" % answered))
                      if answered else (_AWAIT_T0 + 9_000, None))
    # a bell rings for its own answers and its own deadline, never for
    # client 3's ("ring") — on a shared bell that script rings twice
    own = sum(what == "file" for _t, what in script) + (answered is None)
    assert all(0 < n <= own for n in rings)
    # whatever is still queued is a later scripted response, not a timer
    # of ours: none of the scripts outlasts the old last probe by 1 us
    assert pending is None or pending < _AWAIT_T0 + 11_000


def test_malformed_response_frames_are_dropped_and_wake_nobody():
    """A truncated response frame, and one whose ``vlen`` runs past its
    end, arrive over the wire at a serving node: typed, counted, dropped
    — the serve loop survives and the registered waiter stays parked."""
    good = pack_response(0, 0, 77, 1, b"value")

    def body(env, cl, nodes, out):
        reply = nodes[0].hub[(77, 1)] = PendingReply(env)
        out["parked"] = reply.bell.wait()
        before = cl.scope(0).get("kv.codec_errors")
        for bad in (good[:5], good[:-2]):
            yield from nodes[1].runtime.send(0, ACT_RESP, bad)
        yield env.timeout(20_000)
        out["errors"] = cl.scope(0).get("kv.codec_errors") - before
        out["reply"] = reply

    _cl, nodes, out = _run_kv(body)
    assert out["errors"] == 2 and nodes[0]._proc.is_alive
    assert not out["parked"].triggered and out["reply"].answer is None
    assert out["reply"].bell.fires == 0


def test_a_pass_ships_before_it_applies():
    """Nothing waits for an apply it does not need: whenever a replica
    applies a command its Raft outbox is empty — the follower's ack and
    the leader's next AppendEntries left before ``APPLY_COST_NS`` was
    charged — while the client's answer, which carries the result, is
    shipped only after its own apply."""
    def body(env, cl, nodes, out):
        cost = APPLY_COST_NS
        applies, applied_at, waiting, early = {}, {}, [], []

        def hook(node):
            sm, ship = node.machines[0], node._ship

            def apply(cmd, _inner=sm.apply):
                applies[node.rank] = applies.get(node.rank, 0) + 1
                waiting.append(len(node.raft[0].outbox))
                if node.is_leader(0):
                    applied_at[cmd.uid] = env.now
                return _inner(cmd)

            def shipped(dst, action, payload):
                if action == ACT_RESP:
                    _st, _hint, client, seq, _v = unpack_response(payload)
                    t = applied_at.get((client, seq))
                    early.append(t is None or env.now < t + cost)
                return ship(dst, action, payload)
            sm.apply, node._ship = apply, shipped

        for node in nodes:
            hook(node)
        c = KVClient(nodes[1], client_id=5)
        for i in range(20):
            assert (yield from c.put(b"k%d" % (i % 3), b"v%d" % i)) == ST_OK
        yield env.timeout(4 * HB)      # followers apply the tail
        out.update(applies=applies, waiting=waiting, early=early)

    _cl, _nodes, out = _run_kv(body)
    assert out["applies"] == {0: 20, 1: 20, 2: 20}
    assert set(out["waiting"]) == {0}
    assert len(out["early"]) == 20 and not any(out["early"])


def test_rpc_get_after_an_acknowledged_put_sees_it_or_a_later_one():
    """Shipping before applying must not let a read overtake a write the
    store already acknowledged: a reader that starts a get after put *i*
    returned OK gets value *i* or a later one (rpc arm)."""
    def body(env, cl, nodes, out):
        writer = KVClient(nodes[1], client_id=1)
        reader = KVClient(nodes[2], client_id=2)
        acked = [-1]
        seen = out["seen"] = []

        def write():
            for i in range(60):
                assert (yield from writer.put(b"reg", b"%04d" % i)) == ST_OK
                acked[0] = i

        done = env.process(write())
        while not done.triggered:
            floor = acked[0]
            status, value = yield from reader.get(b"reg")
            if status == ST_OK:
                seen.append((floor, int(value)))

    _cl, _nodes, out = _run_kv(body)
    assert len(out["seen"]) > 60
    assert all(got >= floor for floor, got in out["seen"])
    assert max(floor for floor, _got in out["seen"]) >= 58


def test_colocated_onesided_reads_cost_the_serve_loop_nothing():
    """A node whose only activity is a co-located client streaming
    ``get_pwc`` reads of a remote table: its serve loop runs no pass at
    all (every progress pass on the rank is one the client would have run
    with the loop stopped).  Parked on the doorbell instead of
    ``arrivals`` it is woken by every read's CQE."""
    def run(serving: bool):
        cl = build_cluster(2, "ib-fdr", seed=33)
        ph = photon_init(cl)
        nodes = build_kv(cl, ph, KVConfig(n_groups=1, rf=1))
        assert not nodes[1].raft        # no Raft timers on the client's rank
        if not serving:  # stop the loop; it may be parked
            nodes[1].running = False
            nodes[1].runtime.transport.arrivals.fire()
        table = nodes[0].tables[0]
        scratch = ph[1].buffer(64)
        passes = cl.scope(1)

        def client(env):
            yield env.timeout(20_000)   # boot passes out of the way
            before = passes.get("photon.progress_passes")
            for _ in range(50):
                op = yield from ph[1].get_pwc(0, scratch.addr, 64,
                                              table.addr, table.rkey)
                yield from ph[1].wait_op(op, 10 ** 9)
            return passes.get("photon.progress_passes") - before, env.now

        return cl.env.run(until=cl.env.process(client(cl.env)))

    assert run(serving=True) == run(serving=False)


# --------------------------------------------------------------------------
# the rank's failure detector: who hears a verdict, and in which order
# --------------------------------------------------------------------------

def test_a_kv_rank_hears_its_detector_photon_then_am_then_kv(monkeypatch):
    """Each layer of a ``build_kv`` rank subscribes to its rank's detector
    when it is built, so a verdict reaches them in build order — Photon,
    the AM engine, the KV node — even from a detector built after all of
    them.  ``build_kv(monitors=)`` takes only the ranks' own detectors."""
    monkeypatch.setattr("repro.kv.store.build_runtime",
                        partial(build_runtime, am=True, coalesce=False))
    cl = build_cluster(3, "ib-fdr", seed=5)
    ph = photon_init(cl)
    cfg = KVConfig(n_groups=1, rf=3)
    nodes = build_kv(cl, ph, cfg, start=False)
    mons = build_health(cl)
    heard = []

    def spy(cb):
        def record(peer):
            heard.append(type(cb.__self__).__name__)
            cb(peer)
        return record

    cl[0].on_peer_dead[:] = [spy(cb) for cb in cl[0].on_peer_dead]
    assert [type(cb.__self__).__name__ for cb in cl[0].on_peer_join] == \
        ["Photon", "KVNode"]
    # the rank's crash and restart reach the same layers in the same order
    assert [type(cb.__self__).__name__ for cb in cl[0].on_crash] == \
        ["Photon", "PhotonTransport", "Runtime", "ActiveMessageEngine",
         "KVNode"]
    assert [type(cb.__self__).__name__ for cb in cl[0].on_restart] == \
        ["Photon", "KVNode"]

    def prog(env):
        yield env.timeout(500_000)  # detectors warmed up
        cl[2].crash()
        while not mons[0].is_dead(2):
            yield env.timeout(1_000)

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert heard == ["Photon", "ActiveMessageEngine", "KVNode"]
    with pytest.raises(SimulationError, match="own detectors"):
        build_kv(cl, ph, cfg, monitors=mons[::-1], start=False)
    assert len(build_kv(cl, ph, cfg, monitors=mons, start=False)) == 3


# --------------------------------------------------------------------------
# observability: dead ranks in the merged snapshot
# --------------------------------------------------------------------------

def test_build_snapshot_tolerates_dead_ranks():
    cl = build_cluster(2, "ib-fdr", seed=31)
    ph = photon_init(cl)
    cl[1].crash()
    # a caller that nulls out the crashed slot
    snap = build_snapshot(cl, photons=[ph[0], None])
    assert snap["ranks"]["1"]["dead"] is True
    assert snap["ranks"]["1"]["photon"] is None
    assert "dead" not in snap["ranks"]["0"]
    # a caller that passes the crashed endpoint as-is
    snap2 = build_snapshot(cl, photons=[ph[0], ph[1]])
    assert snap2["ranks"]["1"]["dead"] is True
    json.dumps(snap)
    json.dumps(snap2)


# --------------------------------------------------------------------------
# golden-trace guard: the tenant is pay-for-what-you-build
# --------------------------------------------------------------------------

def test_golden_fingerprints_survive_kv_import():
    """With ``repro.kv`` imported (top of this module) but idle, the
    pinned R1/R4/R17 tables and the clean/lossy photon traces stay bit
    identical — no RNG draws, no scheduling, no counter writes."""
    assert _result_fingerprint(r1_latency.run(quick=True)) \
        == GOLDEN["r1_table"]
    assert _result_fingerprint(r4_ledger.run(quick=True)) \
        == GOLDEN["r4_table"]
    assert _result_fingerprint(r17_faults.run(quick=True)) \
        == GOLDEN["r17_table"]
    assert _trace_fingerprint(_photon_clean_workload()) \
        == GOLDEN["photon_clean_trace"]
    assert _trace_fingerprint(_photon_lossy_workload()) \
        == GOLDEN["photon_lossy_trace"]
