"""The per-rank KV server: Raft groups, state machines and the wire.

One :class:`KVNode` runs on every rank (ranks that replicate no group
still pump the parcel runtime so co-located clients get responses).  All
KV traffic — Raft AppendEntries/RequestVote rounds, client requests and
responses — rides the runtime's parcel machinery over
:class:`~repro.runtime.transport.PhotonTransport`, i.e. Photon PWC eager
sends surfaced at the target by completion-ledger probes, with the
rendezvous path kicking in automatically for oversized AE batches.

The server loop is the **single wire writer** for a rank's server side:
handlers invoked by parcel dispatch only mutate state and enqueue
outgoing messages (Raft outboxes, the response queue); the loop drains
them onto the transport.  That keeps the photon endpoint free of
re-entrant server generators — co-located clients still issue their own
requests and one-sided reads concurrently, exactly like every other
multi-process workload in this repo.

One-sided read arm: each replica exposes a registered *slot table* per
group.  Slots are assigned to keys in committed-log order, so every
replica of a group assigns identical slot indices, and the leader's
slots are kept current at apply time.  A client resolves ``key →
(addr, rkey, slot)`` once via a ``loc`` RPC and afterwards reads the
value with a raw ``get_pwc`` — the RDMA arm of the RDMA-vs-RPC
comparison (see PAPERS.md).
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..runtime import build_runtime
from ..runtime.actions import ActionRegistry
from ..runtime.scheduler import Runtime
from ..runtime.transport import PeerDownError
from ..sim.core import SimulationError
from ..sim.resources import Signal, poll_until
from .raft import LEADER, RaftConfig, RaftNode, decode_msg
from .shard import (Command, CodecError, KVStateMachine, OP_CAS, OP_DELETE,
                    OP_MERGE, OP_NOOP, OP_PURGE, OP_PUT, OP_SEAL, ShardMap,
                    ST_MISS, ST_OK, decode_command, snapshot_keys)

__all__ = ["KVConfig", "KVNode", "PendingReply", "build_kv",
           "ACT_RAFT", "ACT_REQ", "ACT_RESP",
           "REQ_WRITE", "REQ_READ", "REQ_LOC", "REQ_SNAP",
           "RESP_OK", "RESP_MISS", "RESP_CAS_FAIL", "RESP_NOT_LEADER",
           "RESP_NO_LEASE", "RESP_WRONG_EPOCH", "RESP_FAIL",
           "SLOT_HDR", "SLOT_PRESENT", "SLOT_OVERSIZE",
           "pack_request", "unpack_request", "pack_response",
           "unpack_response", "pack_loc", "unpack_loc"]

ACT_RAFT = "kv.raft"
ACT_REQ = "kv.req"
ACT_RESP = "kv.resp"

REQ_WRITE = 0
REQ_READ = 1
REQ_LOC = 2
#: fetch a sealed group's serialized machine (the move data plane)
REQ_SNAP = 3

#: response statuses 0..2 coincide with the state-machine ST_* codes
RESP_OK = 0
RESP_MISS = 1
RESP_CAS_FAIL = 2
RESP_NOT_LEADER = 3
RESP_NO_LEASE = 4
#: the client's ring epoch is stale (or the range is sealed mid-move):
#: refetch the shard map and retry — numerically equal to ST_SEALED so
#: sealed-apply results pass straight through to the client
RESP_WRONG_EPOCH = 5
RESP_FAIL = 255

#: request frame: kind u8, client u32, seq u64, group u16, epoch u32
_REQ = struct.Struct("<BIQHI")
#: response frame: status u8, leader_hint i16, client u32, seq u64, vlen u32
_RESP = struct.Struct("<BhIQI")
#: loc payload: leader u16, slot u32, slot_size u32, addr u64, rkey u64
_LOC = struct.Struct("<HIIQQ")
#: slot header: version u64, length u32, flags u32
_SLOT = struct.Struct("<QII")
SLOT_HDR = _SLOT.size
SLOT_PRESENT = 1
SLOT_OVERSIZE = 2


def pack_request(kind: int, client: int, seq: int, group: int, epoch: int,
                 body: bytes) -> bytes:
    return _REQ.pack(kind, client, seq, group, epoch) + body


def unpack_request(raw: bytes) -> Tuple[int, int, int, int, int, bytes]:
    if len(raw) < _REQ.size:
        raise CodecError(
            f"request frame truncated: {len(raw)} < {_REQ.size}")
    kind, client, seq, group, epoch = _REQ.unpack_from(raw, 0)
    return kind, client, seq, group, epoch, raw[_REQ.size:]


def pack_response(status: int, hint: int, client: int, seq: int,
                  value: bytes = b"") -> bytes:
    return _RESP.pack(status, hint, client, seq, len(value)) + value


def unpack_response(raw: bytes) -> Tuple[int, int, int, int, bytes]:
    if len(raw) >= _RESP.size:
        status, hint, client, seq, vlen = _RESP.unpack_from(raw, 0)
        if len(raw) == _RESP.size + vlen:
            return status, hint, client, seq, raw[_RESP.size:]
    raise CodecError(f"response frame of {len(raw)} bytes: truncated, or "
                     "not the length its header declares")


def pack_loc(leader: int, slot: int, slot_size: int, addr: int,
             rkey: int) -> bytes:
    return _LOC.pack(leader, slot, slot_size, addr, rkey)


def unpack_loc(raw: bytes) -> Tuple[int, int, int, int, int]:
    if len(raw) != _LOC.size:
        raise CodecError(f"loc payload of {len(raw)} bytes, not {_LOC.size}")
    return _LOC.unpack(raw)


@dataclass(frozen=True)
class KVConfig:
    """Store-wide configuration (identical on every rank)."""

    #: Raft groups the key ring is split over
    n_groups: int = 2
    #: replicas per group
    rf: int = 3
    raft: RaftConfig = field(default_factory=RaftConfig)
    #: bytes per one-sided read slot (header + value capacity)
    slot_size: int = 160
    #: slots per group table; keys beyond this stay RPC-only
    slots_per_group: int = 1024
    #: host cost charged per applied state-machine command (ns)
    apply_cost_ns: int = 400
    #: host cost charged when a replica serializes its machine into a
    #: snapshot, and when it deserializes + swaps in an installed one
    snapshot_cost_ns: int = 20_000
    install_cost_ns: int = 40_000

    def validate(self) -> None:
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if self.rf < 1:
            raise ValueError("rf must be >= 1")
        if self.slot_size <= SLOT_HDR:
            raise ValueError(f"slot_size must exceed the {SLOT_HDR}B header")
        for name in ("slots_per_group", "apply_cost_ns", "snapshot_cost_ns",
                     "install_cost_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        self.raft.validate()

    @property
    def value_limit(self) -> int:
        """Largest value the one-sided slot path can serve."""
        return self.slot_size - SLOT_HDR


def register_actions(registry: ActionRegistry) -> None:
    """Install the KV handler table (same ids on every rank).

    Handlers only mutate node state; all wire writes happen in the
    server loop (see module docstring).
    """

    def raft_handler(rt, src, payload):
        rt.kv.handle_raft(src, payload)

    def req_handler(rt, src, payload):
        rt.kv.handle_request(src, payload)

    def resp_handler(rt, src, payload):
        rt.kv.handle_response(src, payload)

    registry.register(ACT_RAFT, raft_handler)
    registry.register(ACT_REQ, req_handler)
    registry.register(ACT_RESP, resp_handler)


class PendingReply:
    """One client RPC in progress, as its node sees it: the answer
    ``(status, hint, value)`` from its filing until the client takes it,
    and the bell that wakes the one process waiting for it."""

    __slots__ = ("answer", "bell")

    def __init__(self, env):
        self.answer: Optional[Tuple[int, int, bytes]] = None
        self.bell = Signal(env)


class KVNode:
    """One rank's slice of the store (server loop + client hub)."""

    def __init__(self, cluster, rank: int, runtime: Runtime, photon,
                 shard_map: ShardMap, config: Optional[KVConfig] = None):
        self.config = config or KVConfig()
        self.config.validate()
        self.cluster = cluster
        self.rank = rank
        self.runtime = runtime
        self.photon = photon
        self.shard_map = shard_map
        self.env = cluster.env
        self.counters = cluster.scope(rank)
        #: failure-detector handle (attach via attach_health)
        self.monitor = None
        self.raft: Dict[int, RaftNode] = {}
        self.machines: Dict[int, KVStateMachine] = {}
        self.tables: Dict[int, object] = {}       # group -> PhotonBuffer
        self._slot_of: Dict[int, Dict[bytes, int]] = {}
        self._next_slot: Dict[int, int] = {}
        #: per-group snapshots_taken high-water (obs mirror + cost charge)
        self._snap_seen: Dict[int, int] = {}
        for g in shard_map.groups_on(rank):
            self._seed_group(g)
            # boot-time tables are registered eagerly (a restart defers
            # registration until the replica has state to publish)
            self.tables[g] = photon.buffer(
                self.config.slots_per_group * self.config.slot_size)
        #: leader side: (group, log index) -> (reply rank, client, seq)
        self._pending: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        self._pending_uid: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: outgoing (dst, action, payload) drained by the server loop
        self._tx: Deque[Tuple[int, str, bytes]] = deque()
        #: client hub: (client, seq) -> the RPC ``KVClient._rpc`` registered,
        #: for as long as it runs; an answer for anything else is dropped
        self.hub: Dict[Tuple[int, int], PendingReply] = {}
        # local high-water caches so the per-tick set_max telemetry only
        # pays a counter call when a peak actually moves
        self._log_peak = 0
        self._base_peak = 0
        self.running = False
        self._proc = None

    def _seed_group(self, g: int) -> None:
        """Create the group's RaftNode + machine and arm snapshotting.

        RNG streams are cached by name in the registry, so a reseed
        after a restart *continues* the same deterministic jitter stream
        instead of replaying it from the start.
        """
        rng_space = self.cluster.rng.namespace("kv.raft")
        replicas = self.shard_map.replicas(g)
        rn = RaftNode(g, self.rank, replicas, self.config.raft,
                      rng_space.stream(f"g{g}.r{self.rank}"),
                      now=self.env.now)
        rn.snapshot_fn = lambda g=g: self.machines[g].serialize()
        self.raft[g] = rn
        self.machines[g] = KVStateMachine(g)
        self._slot_of[g] = {}
        self._next_slot[g] = 0
        self._snap_seen[g] = 0

    # ------------------------------------------------------------- restart
    def on_crash(self) -> None:
        """Drop all volatile state (the chaos controller calls this right
        after ``photon.crash_local``).  The server loop stays parked; the
        rank serves nothing until reseeded."""
        self.raft.clear()
        self.machines.clear()
        self.tables.clear()
        self._slot_of.clear()
        self._next_slot.clear()
        self._snap_seen.clear()
        self._pending.clear()
        self._pending_uid.clear()
        self._tx.clear()
        for reply in self.hub.values():  # the waiters outlive the answers
            reply.answer = None
        self.counters.add("kv.crashes")

    def reseed(self) -> None:
        """Rebuild empty replicas after a chaos ``restart`` event.

        The reborn followers nack the leader's first AppendEntries with
        a last_index=0 hint, the leader jumps below its ``base_index``
        and streams its snapshot — rejoin *is* the InstallSnapshot flow,
        there is no separate recovery path.  Slot tables are deliberately
        **not** registered here: a table appears only once the replica
        has installed a snapshot (or applied its first command), so a
        one-sided reader can never observe a half-built table.
        """
        for g in self.shard_map.groups_on(self.rank):
            self._seed_group(g)
        self.counters.add("kv.reseeds")
        self.runtime.transport.arrivals.fire()  # new timers: re-plan the park

    # ---------------------------------------------------------------- wiring
    def attach_health(self, monitor) -> None:
        """Consume the rank's failure detector: leader-death verdicts
        short-circuit election timeouts, joins clear the dead set."""
        self.monitor = monitor
        monitor.on_dead(self._on_peer_dead)
        monitor.on_join(self._on_peer_join)

    def _on_peer_dead(self, peer: int) -> None:
        if peer == self.rank or not self.photon.alive:
            return
        now = self.env.now
        for rn in self.raft.values():
            rn.on_peer_dead(peer, now)
        self.counters.add("kv.peer_dead_events")
        # election_due may have moved forward under the parked server loop
        self.runtime.transport.arrivals.fire()

    def _on_peer_join(self, peer: int) -> None:
        for rn in self.raft.values():
            rn.on_peer_join(peer)

    def start(self) -> None:
        """Spawn the server loop (idempotent)."""
        if self.running:
            return
        self.running = True
        self._proc = self.env.process(self._serve(),
                                      name=f"kv{self.rank}:serve")

    def stop(self) -> None:
        self.running = False
        self.runtime.transport.arrivals.fire()  # the loop may be parked

    # ------------------------------------------------------------- handlers
    def handle_raft(self, src: int, payload: bytes) -> None:
        try:
            msg = decode_msg(payload)
        except CodecError:
            # malformed frames are dropped, never applied half-parsed;
            # Raft's retransmit machinery covers the loss
            self.counters.add("kv.codec_errors")
            return
        rn = self.raft.get(msg.group)
        if rn is None:
            self.counters.add("kv.misrouted_raft")
            return
        was_leader = rn.role == LEADER
        rn.on_message(msg, self.env.now)
        self.counters.add("kv.raft_msgs")
        if was_leader and rn.role != LEADER:
            self._drop_pending(msg.group)

    def handle_request(self, src: int, payload: bytes) -> None:
        try:
            kind, client, seq, group, epoch, body = unpack_request(payload)
        except CodecError:
            self.counters.add("kv.codec_errors")
            return
        self.counters.add("kv.requests")
        if epoch != self.shard_map.epoch:
            # the client routed with a pre-move ring: make it refetch
            self._respond(src, RESP_WRONG_EPOCH, -1, client, seq)
            self.counters.add("kv.wrong_epoch")
            return
        rn = self.raft.get(group)
        if rn is None:
            hint = self.shard_map.replicas(group)[0]
            self._respond(src, RESP_NOT_LEADER, hint, client, seq)
            return
        if rn.role != LEADER:
            hint = rn.leader if rn.leader is not None else -1
            self._respond(src, RESP_NOT_LEADER, hint, client, seq)
            self.counters.add("kv.redirects")
            return
        if kind == REQ_WRITE:
            self._handle_write(src, client, seq, group, rn, body)
        elif kind == REQ_READ:
            self._handle_read(src, client, seq, group, rn, body)
        elif kind == REQ_LOC:
            self._handle_loc(src, client, seq, group, rn, body)
        elif kind == REQ_SNAP:
            self._handle_snap(src, client, seq, group, rn)
        else:
            self._respond(src, RESP_FAIL, -1, client, seq)

    def _handle_write(self, src: int, client: int, seq: int, group: int,
                      rn: RaftNode, body: bytes) -> None:
        try:
            cmd = decode_command(body)
        except CodecError:
            self.counters.add("kv.codec_errors")
            self._respond(src, RESP_FAIL, -1, client, seq)
            return
        sm = self.machines[group]
        if sm.sealed and cmd.op in (OP_PUT, OP_CAS, OP_DELETE):
            # the range is frozen for a hand-off: dedup is checked first
            # (above-seq retries of pre-seal writes still get their
            # retained result via the duplicate path below), fresh
            # writes bounce so the client refetches the ring post-flip
            if not sm.is_duplicate(cmd):
                self._respond(src, RESP_WRONG_EPOCH, -1, client, seq)
                self.counters.add("kv.sealed_rejects")
                return
        if sm.is_duplicate(cmd):
            # committed and applied on a previous attempt: answer from the
            # retained session result — exactly-once despite retries
            status, value = sm.retained_result(cmd) or (ST_OK, b"")
            self._respond(src, status, self.rank, client, seq, value)
            self.counters.add("kv.write_dedups")
            return
        uid = cmd.uid
        if uid in self._pending_uid:
            # retry of an op still in flight: re-point the reply address,
            # don't append the command a second time
            g, index = self._pending_uid[uid]
            self._pending[(g, index)] = (src, client, seq)
            return
        index = rn.propose(body, self.env.now)
        if index is None:  # leadership lost between the check and here
            self._respond(src, RESP_NOT_LEADER, -1, client, seq)
            return
        self._pending[(group, index)] = (src, client, seq)
        self._pending_uid[uid] = (group, index)
        self.counters.add("kv.writes_proposed")

    def _handle_read(self, src: int, client: int, seq: int, group: int,
                     rn: RaftNode, body: bytes) -> None:
        if not rn.lease_valid(self.env.now):
            # no majority-acked heartbeat round inside the lease window:
            # serving now could violate linearizability during a
            # partition, so push the client to retry
            self._respond(src, RESP_NO_LEASE, self.rank, client, seq)
            self.counters.add("kv.lease_rejects")
            return
        if not rn.read_barrier_ok():
            # lease timing alone is not enough right after an election:
            # until this leader's own-term no-op is committed *and* the
            # state machine has caught up to commit_index, local state
            # may lag writes the previous leader acknowledged (Raft §8)
            self._respond(src, RESP_NO_LEASE, self.rank, client, seq)
            self.counters.add("kv.read_barrier_rejects")
            return
        (klen,) = struct.unpack_from("<H", body, 0)
        key = body[2:2 + klen]
        value = self.machines[group].get(key)
        if value is None:
            self._respond(src, RESP_MISS, self.rank, client, seq)
        else:
            self._respond(src, RESP_OK, self.rank, client, seq, value)
        self.counters.add("kv.lease_reads")

    def _handle_loc(self, src: int, client: int, seq: int, group: int,
                    rn: RaftNode, body: bytes) -> None:
        if not (rn.lease_valid(self.env.now) and rn.read_barrier_ok()):
            # a deposed-but-alive leader must stop re-confirming its own
            # slot locations once its lease lapses, or clients would
            # keep renewing one-sided reads against its lagging table
            self._respond(src, RESP_NO_LEASE, self.rank, client, seq)
            self.counters.add("kv.loc_lease_rejects")
            return
        (klen,) = struct.unpack_from("<H", body, 0)
        key = body[2:2 + klen]
        slot = self._slot_of[group].get(key)
        if slot is None:
            self._respond(src, RESP_MISS, self.rank, client, seq)
            return
        table = self.tables[group]
        addr = table.addr + slot * self.config.slot_size
        self._respond(src, RESP_OK, self.rank, client, seq,
                      pack_loc(self.rank, slot, self.config.slot_size,
                               addr, table.rkey))
        self.counters.add("kv.loc_lookups")

    def _handle_snap(self, src: int, client: int, seq: int, group: int,
                     rn: RaftNode) -> None:
        """Serve the sealed group's serialized machine (move data plane).

        Leader-only with the full read barrier: the mover must see the
        state at the seal point, nothing earlier.  Rejected while
        unsealed — a snapshot of a live range would race new writes.
        """
        if not (rn.lease_valid(self.env.now) and rn.read_barrier_ok()):
            self._respond(src, RESP_NO_LEASE, self.rank, client, seq)
            return
        sm = self.machines[group]
        if not sm.sealed:
            self._respond(src, RESP_FAIL, self.rank, client, seq)
            return
        self._respond(src, RESP_OK, self.rank, client, seq, sm.serialize())
        self.counters.add("kv.snap_serves")

    def handle_response(self, src: int, payload: bytes) -> None:
        try:
            status, hint, client, seq, value = unpack_response(payload)
        except CodecError:
            self.counters.add("kv.codec_errors")
            return
        reply = self.hub.get((client, seq))
        if reply is None:  # a late duplicate, or its client gave up
            self.counters.add("kv.late_responses")
            return
        reply.answer = (status, hint, value)
        reply.bell.fire()

    def _respond(self, dst: int, status: int, hint: int, client: int,
                 seq: int, value: bytes = b"") -> None:
        self._tx.append((dst, ACT_RESP,
                         pack_response(status, hint, client, seq, value)))

    def _drop_pending(self, group: int) -> None:
        """Leadership lost: abandon unanswered proposals for the group
        (clients time out and retry against the new leader; session
        dedup keeps the retry exactly-once)."""
        stale = [k for k in self._pending if k[0] == group]
        for k in stale:
            del self._pending[k]
        stale_uids = [u for u, (g, _i) in self._pending_uid.items()
                      if g == group]
        for u in stale_uids:
            del self._pending_uid[u]
        if stale:
            self.counters.add("kv.pending_dropped", len(stale))

    # ------------------------------------------------------------- the loop
    def _serve(self):
        """The server loop: passes back to back while there is work, parked
        on the endpoint's ``arrivals`` otherwise — until a message lands or
        :meth:`_next_due`, whichever is first."""
        yield from poll_until(self.runtime.transport.arrivals, self._pass,
                              lambda: not self.running,
                              next_due=self._next_due)

    def _pass(self):
        """One runtime progress pass, then timers, flush, apply, flush
        (generator → did anything).  An ack or the next AppendEntries
        ships before ``apply_cost_ns`` is charged — it promises the entry
        is logged, not applied — and only apply's own answers wait for it."""
        if not self.photon.alive:
            # fail-stop: a crashed rank neither serves nor ticks
            return False
        busy = yield from self.runtime.progress()
        now = self.env.now
        # most ticks apply nothing and flush nothing: precheck with
        # plain attribute reads so the idle path skips two generator
        # set-ups per tick
        apply_due, flush_due = False, bool(self._tx)
        for rn in self.raft.values():
            rn.tick(now)
            if rn._applied_out or rn._installed_out or (
                    rn.snapshots_taken != self._snap_seen.get(rn.group, 0)):
                apply_due = True
            if rn.outbox:
                flush_due = True
            n = len(rn.log)
            if n > self._log_peak:
                self._log_peak = n
                self.counters.set_max("kv.raft.log_entries", n)
            if rn.base_index > self._base_peak:
                self._base_peak = rn.base_index
                self.counters.set_max("kv.raft.base_index", rn.base_index)
        sent = (yield from self._flush()) if flush_due else 0
        applied = (yield from self._apply_committed()) if apply_due else 0
        if self._tx:
            sent += yield from self._flush()
        return bool(busy or applied or sent)

    def _next_due(self) -> Optional[int]:
        """Earliest instant a pass is owed with no arrival: a Raft timer
        or a transport retry deadline (None: neither).  None while
        crashed — ``rejoin`` rings."""
        if not self.photon.alive:
            return None
        due = self.runtime.transport.next_deadline()
        for rn in self.raft.values():
            t = rn.next_due()
            if due is None or t < due:
                due = t
        return due

    def _apply_committed(self) -> int:
        """Apply newly committed entries; answer pending clients.

        Also the snapshot pump: installed snapshots handed up by the
        Raft layer are swapped in here (machine replaced wholesale, slot
        table rebuilt into a *fresh* registered buffer), and freshly
        taken snapshots are charged + mirrored into obs.
        """
        applied = 0
        # on_crash() clears self.raft while this loop sleeps in a yield:
        # iterate a snapshot, and once ``rn`` is no longer this node's
        # replica of ``g`` stop touching the (wiped) state altogether
        for g, rn in list(self.raft.items()):
            for index, term, blob, t_start in rn.take_installed():
                if self.raft.get(g) is not rn:
                    return applied
                yield from self._install_snapshot(g, blob, t_start)
                applied += 1
            if self.raft.get(g) is not rn:
                return applied
            sm = self.machines[g]
            for index, raw in rn.take_applied():
                cmd = decode_command(raw)
                status, value = sm.apply(cmd)
                if cmd.op == OP_MERGE:
                    # mirror every merged key; blob order is sorted, so
                    # first-touch slot assignment stays deterministic
                    for key in snapshot_keys(cmd.value):
                        self._update_slot(g, key, sm)
                elif cmd.op == OP_PURGE:
                    self._purge_slots(g)
                elif cmd.op not in (OP_NOOP, OP_SEAL):
                    self._update_slot(g, cmd.key, sm)
                yield self.env.timeout(self.config.apply_cost_ns)
                if self.raft.get(g) is not rn:
                    return applied
                applied += 1
                self.counters.add("kv.applied")
                who = self._pending.pop((g, index), None)
                self._pending_uid.pop(cmd.uid, None)
                if who is not None and rn.role == LEADER:
                    dst, client, seq = who
                    self._respond(dst, status, self.rank, client, seq, value)
            if rn.snapshots_taken > self._snap_seen.get(g, 0):
                self._snap_seen[g] = rn.snapshots_taken
                self.counters.add("kv.snapshots_taken")
                self.counters.add("kv.raft.snapshot_bytes",
                                  len(rn.snapshot_blob))
                yield self.env.timeout(self.config.snapshot_cost_ns)
        return applied

    def _install_snapshot(self, group: int, blob: bytes, t_start: int):
        """Swap in an installed snapshot: machine, then slot table.

        The replacement table is fully populated *before* it becomes the
        group's table, so a concurrently resolving one-sided reader can
        never observe a half-installed table — it either still sees the
        old buffer (stale but version-guarded) or the complete new one.
        """
        span = self.counters.span("kv.raft.install", t_start)
        sm = KVStateMachine.deserialize(group, blob)
        self.machines[group] = sm
        self.tables.pop(group, None)
        self._slot_of[group] = {}
        self._next_slot[group] = 0
        for key in sorted(sm.version):
            self._update_slot(group, key, sm)
        yield self.env.timeout(self.config.install_cost_ns)
        if span is not None:
            span.end(self.env.now, status="ok")
        self.counters.add("kv.snapshot_installs")
        self.counters.add("kv.raft.snapshot_bytes", len(blob))

    def _purge_slots(self, group: int) -> None:
        """OP_PURGE applied: zero every assigned slot header and reset
        the assignment map.  Zeroed headers (version 0, no flags) push
        any one-sided reader holding a stale loc back to the RPC path."""
        table = self.tables.get(group)
        if table is not None:
            for slot in range(self._next_slot[group]):
                addr = table.addr + slot * self.config.slot_size
                self.photon.memory.write(addr, _SLOT.pack(0, 0, 0))
        self._slot_of[group] = {}
        self._next_slot[group] = 0
        self.counters.add("kv.purges")

    def _update_slot(self, group: int, key: bytes,
                     sm: KVStateMachine) -> None:
        """Mirror one key into the group's one-sided slot table.

        Slot indices are assigned first-touch in apply order (committed
        log order, plus sorted order inside merge/install batches) —
        identical on every replica that took the same path.  A replica
        rebuilt from a snapshot assigns sorted order instead; that is
        safe because clients only ever resolve locs against the current
        leader's own table, never mix slots across replicas.
        """
        table = self.tables.get(group)
        if table is None:
            # deferred registration (post-restart): first published
            # state materializes the table
            table = self.photon.buffer(
                self.config.slots_per_group * self.config.slot_size)
            self.tables[group] = table
        slots = self._slot_of[group]
        slot = slots.get(key)
        if slot is None:
            if self._next_slot[group] >= self.config.slots_per_group:
                self.counters.add("kv.slot_overflow")
                return  # table full: key stays RPC-only
            slot = self._next_slot[group]
            self._next_slot[group] = slot + 1
            slots[key] = slot
        addr = table.addr + slot * self.config.slot_size
        value = sm.get(key)
        version = sm.version.get(key, 0)
        if value is None:
            self.photon.memory.write(addr, _SLOT.pack(version, 0, 0))
        elif len(value) > self.config.value_limit:
            self.photon.memory.write(
                addr, _SLOT.pack(version, 0, SLOT_PRESENT | SLOT_OVERSIZE))
            self.counters.add("kv.slot_oversize")
        else:
            self.photon.memory.write(
                addr, _SLOT.pack(version, len(value), SLOT_PRESENT) + value)

    def _flush(self):
        """Drain Raft outboxes and the response queue onto the wire."""
        sent = 0
        # snapshot + identity check: see _apply_committed
        for g, rn in list(self.raft.items()):
            if not rn.outbox:
                continue
            out, rn.outbox = rn.outbox, []
            for dst, raw in out:
                if self.raft.get(g) is not rn:
                    return sent
                yield from self._ship(dst, ACT_RAFT, raw)
                sent += 1
        while self._tx:
            dst, action, payload = self._tx.popleft()
            yield from self._ship(dst, action, payload)
            sent += 1
        return sent

    def _ship(self, dst: int, action: str, payload: bytes):
        if self.monitor is not None and self.monitor.is_dead(dst):
            self.counters.add("kv.drops_to_dead")
            return
        try:
            yield from self.runtime.send(dst, action, payload)
        except PeerDownError:
            # breaker open: Raft and clients both tolerate silent loss
            self.counters.add("kv.breaker_drops")

    # ------------------------------------------------------------- queries
    def leader_of(self, group: int) -> Optional[int]:
        rn = self.raft.get(group)
        return rn.leader if rn is not None else None

    def is_leader(self, group: int) -> bool:
        rn = self.raft.get(group)
        return rn is not None and rn.role == LEADER

    def stats(self) -> Dict[str, object]:
        """JSON-serializable store snapshot (obs report section)."""
        return {
            "rank": self.rank,
            "epoch": self.shard_map.epoch,
            "groups": {str(g): rn.stats() for g, rn in self.raft.items()},
            "machines": {str(g): sm.stats()
                         for g, sm in self.machines.items()},
            "slots_used": {str(g): self._next_slot[g] for g in self.raft},
            "pending_writes": len(self._pending),
        }


def build_kv(cluster, photons, config: Optional[KVConfig] = None,
             monitors=None, registry: Optional[ActionRegistry] = None,
             start: bool = True):
    """Assemble one :class:`KVNode` per rank over a fresh parcel runtime.

    ``photons`` come from :func:`repro.photon.photon_init`; ``monitors``
    (optional) from :func:`repro.runtime.health.build_health` — when
    given, the endpoints, transports and KV nodes all consume the
    detector (fast-fail, breakers, detection-driven elections).
    Returns the node list; the shard map is shared via ``nodes[r]
    .shard_map``.  Nothing is spawned when ``start`` is False.
    """
    cfg = config or KVConfig()
    cfg.validate()
    if cfg.rf > cluster.n:
        raise SimulationError(
            f"replication factor {cfg.rf} needs at least {cfg.rf} ranks "
            f"(cluster has {cluster.n})")
    shard_map = ShardMap(cfg.n_groups, cluster.n, rf=cfg.rf)
    reg = registry if registry is not None else ActionRegistry()
    register_actions(reg)
    nodes: List[KVNode] = []
    for r, runtime in enumerate(build_runtime(cluster, reg, photon=photons)):
        node = KVNode(cluster, r, runtime, photons[r], shard_map, cfg)
        runtime.kv = node
        if monitors is not None:
            photons[r].attach_health(monitors[r])
            runtime.transport.attach_health(monitors[r])
            node.attach_health(monitors[r])
        nodes.append(node)
    if start:
        for node in nodes:
            node.start()
    return nodes
