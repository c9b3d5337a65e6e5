"""Photon endpoint state, bootstrap and the progress engine.

One :class:`PhotonBase` instance exists per rank.  Bootstrap (performed by
:func:`repro.photon.api.photon_init`) wires the full mesh: a reliable
queue pair per peer, the four ledger rings per direction, staging mirrors
and credit words — all in one registered region per rank, with bases/rkeys
exchanged out of band exactly like the real system's PMI exchange.

The progress engine is *polling*: it only runs inside API calls (probe/
wait), as in the real library, and it charges host time for every pass,
every reaped CQE and every eager payload copy-out.  A blocking call
probes back to back; the simulator skips the probes that cannot succeed
by parking the caller on the endpoint's ``doorbell`` — rung by both CQs,
by every write into a ledger ring or credit word, and by whatever else
hands a waiter its result — until the next arrival or retry deadline
(:func:`repro.sim.resources.poll_until`).  A server loop parks on
``arrivals`` instead, the doorbell minus the send side (send CQEs, op
successes, passes that only reaped those).  One-sided data movement
happens entirely in the (simulated) NIC — a rank that never calls into
Photon still receives puts into its exposed buffers.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..cluster import Cluster, RankNode
from ..sim.core import Environment, SimulationError
from ..sim.resources import Signal, poll_until
from ..verbs.cq import CompletionQueue
from ..verbs.device import ProtectionDomain
from ..verbs.enums import Access, Opcode, QPState, WCOpcode, WCStatus
from ..verbs.qp import QueuePair, RecvWR, SendWR
from .config import PhotonConfig
from .ledger import LocalRing, RemoteRing, RingSpec
from .rcache import RegistrationCache
from .request import RequestTable
from .wire import (
    COMPLETION_ENTRY_SIZE,
    CompletionEntry,
    EAGER_HEADER_SIZE,
    EagerHeader,
    FIN_ENTRY_SIZE,
    FinEntry,
    INFO_ENTRY_SIZE,
    InfoEntry,
)

__all__ = ["PhotonBase", "PeerState", "Completion", "TimeoutStatus",
           "ReliableOp", "RING_NAMES"]

RING_NAMES = ("cmp", "eager", "info", "fin")


class TimeoutStatus(enum.Enum):
    """Typed result of a blocking wait.

    Truthy exactly when the wait succeeded, so ``if ok:`` call sites keep
    working, but callers can also distinguish ``TimeoutStatus.TIMED_OUT``
    from a legitimate falsy payload.
    """

    OK = "ok"
    TIMED_OUT = "timed_out"

    def __bool__(self) -> bool:
        return self is TimeoutStatus.OK


#: photon_probe_completion result
@dataclass(frozen=True)
class Completion:
    """A local or remote PWC completion event."""

    kind: str  # "local" | "remote"
    cid: int
    src: int
    #: SUCCESS, or the error the reliability layer gave up with
    status: WCStatus = WCStatus.SUCCESS

    @property
    def ok(self) -> bool:
        return self.status is WCStatus.SUCCESS


@dataclass
class ReliableOp:
    """One retryable PWC operation — the handle ``put_pwc``/``get_pwc``/
    ``send_pwc`` return.

    ``status`` is None while the op is in flight and the terminal
    :class:`WCStatus` once it settles; the endpoint keeps no record of a
    settled op, so a caller that wants the outcome holds the handle.
    Ops in flight when their endpoint crashes never settle.
    """

    peer_rank: int
    op_id: int
    kind: str  # "put" | "send" | "get" | "notify"
    #: generator factory posting one (re)attempt of the op's work requests
    replay: Optional[Callable[["ReliableOp"], object]] = None
    local_cid: Optional[int] = None
    #: fired once when the op completes successfully (get-notify spawn etc.)
    on_done: Optional[Callable[[], None]] = None
    #: rcache registrations pinned for this op; released when it settles
    mrs: List = field(default_factory=list)
    #: posts so far (1 = first attempt)
    attempts: int = 0
    #: acks still outstanding for the *current* attempt
    acks_pending: int = 0
    state: str = "pending"  # pending | backoff | done | failed
    status: Optional[WCStatus] = None
    deadline: int = 0
    next_retry_at: int = 0
    #: the ring slot this op's ledger entry claimed, as (ring generation,
    #: seq, WR): a replay rewrites that slot (see ``_post_ring_entry``)
    entry: Optional[Tuple[int, int, SendWR]] = None
    #: open op-latency span (None when span recording is disabled)
    span: Optional[object] = None

    @property
    def key(self) -> Tuple[int, int]:
        return (self.peer_rank, self.op_id)


@dataclass
class PeerState:
    """Everything rank-local about one peer."""

    rank: int
    qp: QueuePair
    remote: Dict[str, RemoteRing] = field(default_factory=dict)
    local: Dict[str, LocalRing] = field(default_factory=dict)
    #: local staging for the 8-byte credit words we send to this peer
    credit_staging: Dict[str, int] = field(default_factory=dict)
    outstanding: int = 0
    #: immediate-mode receive window in use: receives posted on the RQ
    #: plus this peer's receive CQEs not yet reaped.  Kept at or below
    #: ``imm_prepost``, so a slow poller RNR-stalls its senders instead
    #: of growing the receive CQ.
    preposted: int = 0
    #: producer-side reliable-operation id allocator (per peer)
    tx_op_seq: int = 0
    #: consumer-side dedup: ids <= rx_hwm or in rx_seen were delivered
    rx_hwm: int = 0
    rx_seen: Set[int] = field(default_factory=set)
    #: ``local`` rings in scan order, cached so the progress loop's
    #: nothing-ready bail skips the dict walks (rings are reset in place
    #: on re-arm, so the tuple never goes stale)
    scan_rings: tuple = ()


class PhotonBase:
    """Per-rank endpoint core (mixins add the public operations)."""

    def __init__(self, node: RankNode, cluster: Cluster, config: PhotonConfig):
        config.validate()
        self.node = node
        self.cluster = cluster
        self.config = config
        self.rank = node.rank
        self.env: Environment = cluster.env
        # hot-path caches for _progress_once: these knobs are fixed for
        # the life of the endpoint (config and NicParams are only ever
        # set at construction), and every poll pass reads them
        self._poll_ns = config.progress_poll_ns
        self._cqe_poll_ns = cluster.params.nic.cqe_poll_ns
        self._use_imm = config.use_imm
        self._imm_prepost = config.imm_prepost
        # memory.version as of the last ledger scan (see _progress_once)
        self._scanned_version = -1
        self.context = node.context
        self.memory = node.memory
        # this rank's counter scope: writes mirror into cluster.counters
        self.counters = cluster.scope(node.rank)
        self.pd: ProtectionDomain = self.context.alloc_pd()
        qp_total = cluster.n * (2 * config.max_outstanding + 64)
        self.send_cq: CompletionQueue = self.context.create_cq(
            capacity=max(4096, qp_total))
        self.recv_cq: CompletionQueue = self.context.create_cq(
            capacity=max(4096, cluster.n * config.imm_prepost * 2))
        #: rung by every arrival a progress pass could act on and by
        #: whatever settles a result outside one; blocking calls park here
        self.doorbell = Signal(self.env)
        #: the receive side of the doorbell (verbs gives each CQ its own
        #: completion channel): what lands here or fails, not what this
        #: rank's own sends complete; a server loop parks here
        self.arrivals = Signal(self.env, relay=self.doorbell)
        self.send_cq.doorbell = self.doorbell
        self.recv_cq.doorbell = self.arrivals
        self.memory.on_watched_write.append(self.arrivals.fire)
        self.rcache = RegistrationCache(
            self.context, self.pd, capacity=config.rcache_capacity,
            enabled=config.rcache_enabled,
            max_pinned_bytes=config.rcache_max_pinned_bytes,
            merge=config.rcache_merge)
        self.requests = RequestTable(self.rank)
        self.peers: Dict[int, PeerState] = {}
        # engine queues
        self._op_seq = 0
        self._ops: Dict[int, Tuple[str, Optional[Callable],
                                   Optional[Callable]]] = {}
        # reliability layer: live retryable ops by (peer, op id), seeded
        # jitter stream
        self._reliable: Dict[Tuple[int, int], ReliableOp] = {}
        self._in_deadline_scan = False
        self._retry_rng = cluster.rng.stream(f"photon.retry.{self.rank}")
        #: False between a chaos crash and the matching rejoin
        self.alive = True
        #: failure-detector handle (None unless a health layer is attached)
        self.health = None
        #: rank -> endpoint, for bootstrap re-exchange at rejoin (models
        #: the PMI re-exchange of rkeys; filled by photon_init)
        self._mesh: Dict[int, "PhotonBase"] = {}
        self.local_cids: Deque[Tuple[int, WCStatus]] = deque()
        self.remote_cids: Deque[Tuple[int, int]] = deque()  # (cid, src)
        self.messages: Deque[Tuple[int, int, bytes]] = deque()  # (src, cid, data)
        self.infos: List[InfoEntry] = []
        #: rank-local rendezvous sends awaiting a local recv (tag, data, rid)
        self._self_rendezvous: List[Tuple[int, bytes, int]] = []
        #: old values from completed atomics, keyed by local cid
        self._atomic_results: Dict[int, int] = {}
        #: collective epoch counter (SPMD calls advance it identically)
        self._coll_epoch = 0
        # ledger region bookkeeping (filled by _alloc_ledgers)
        self._ledger_mr = None
        self._ledger_base = 0
        self._ledger_size = 0
        self._layout: Dict[Tuple[int, str, str], int] = {}
        self._specs = self._ring_specs()

    # ------------------------------------------------------------- geometry
    def _ring_specs(self) -> Dict[str, RingSpec]:
        c = self.config
        eager_entry = EAGER_HEADER_SIZE + c.eager_limit + 8  # + seq trailer
        return {
            "cmp": RingSpec("cmp", c.completion_entries, COMPLETION_ENTRY_SIZE),
            "eager": RingSpec("eager", c.eager_slots, eager_entry),
            "info": RingSpec("info", c.info_entries, INFO_ENTRY_SIZE),
            "fin": RingSpec("fin", c.fin_entries, FIN_ENTRY_SIZE),
        }

    def _alloc_ledgers(self) -> None:
        """Allocate + register consumer rings, staging mirrors, credit words."""
        mem = self.memory
        per_peer = sum(s.nbytes for s in self._specs.values())
        total_ranks = [r for r in range(self.cluster.n) if r != self.rank]
        # consumer rings + credit staging; producer staging + credit words
        region_size = len(total_ranks) * (2 * per_peer
                                          + 2 * 8 * len(RING_NAMES))
        if not total_ranks:
            return  # single rank: no ledgers needed
        base = mem.alloc(region_size, align=64)
        cursor = base
        for peer in total_ranks:
            for name in RING_NAMES:
                self._layout[(peer, name, "cons")] = cursor
                cursor += self._specs[name].nbytes
            for name in RING_NAMES:
                self._layout[(peer, name, "stage")] = cursor
                cursor += self._specs[name].nbytes
            for name in RING_NAMES:
                self._layout[(peer, name, "credit")] = cursor  # written by peer
                cursor += 8
            for name in RING_NAMES:
                self._layout[(peer, name, "credit_stage")] = cursor
                cursor += 8
        self._ledger_base = base
        self._ledger_size = cursor - base
        self._ledger_mr = self.context.reg_mr_sync(
            self.pd, base, cursor - base, Access.ALL)

    def _wire_peer(self, other: "PhotonBase", qp: QueuePair) -> None:
        """Create the peer state for ``other`` (both endpoints bootstrapped)."""
        peer = PeerState(rank=other.rank, qp=qp)
        for name in RING_NAMES:
            spec = self._specs[name]
            # producer view: we write other's consumer ring for us
            peer.remote[name] = RemoteRing(
                spec,
                remote_base=other._layout[(self.rank, name, "cons")],
                rkey=other._ledger_mr.rkey,
                staging_base=self._layout[(other.rank, name, "stage")],
                credit_addr=self._layout[(other.rank, name, "credit")],
                memory=self.memory)
            # consumer view: our ring written by other; credits go back to
            # other's credit word for us
            peer.local[name] = LocalRing(
                spec,
                base=self._layout[(other.rank, name, "cons")],
                memory=self.memory,
                producer_credit_addr=other._layout[(self.rank, name, "credit")],
                producer_rkey=other._ledger_mr.rkey,
                credit_fraction=self.config.credit_fraction)
            peer.credit_staging[name] = self._layout[
                (other.rank, name, "credit_stage")]
        peer.scan_rings = tuple(peer.local[n] for n in RING_NAMES)
        # the four credit words are contiguous; a sender stalled on a full
        # ring sleeps until the peer's credit write rings the doorbell
        self.memory.watch(self._layout[(other.rank, RING_NAMES[0], "credit")],
                          8 * len(RING_NAMES))
        self.peers[other.rank] = peer
        self._top_up_recvs(peer)

    def _top_up_recvs(self, peer: PeerState) -> None:
        """Post receives until the pairing's window is ``imm_prepost``."""
        if self._use_imm:
            while peer.preposted < self._imm_prepost:
                peer.qp.post_recv(RecvWR())
                peer.preposted += 1

    # ------------------------------------------------------------- posting
    def _next_op(self, kind: str, callback: Optional[Callable],
                 on_error: Optional[Callable] = None) -> int:
        self._op_seq += 1
        self._ops[self._op_seq] = (kind, callback, on_error)
        return self._op_seq

    def _peer(self, rank: int) -> PeerState:
        peer = self.peers.get(rank)
        if peer is None:
            raise SimulationError(
                f"rank {self.rank}: no photon peer {rank} (self-sends are "
                "handled above this layer)")
        return peer

    def _post(self, peer: PeerState, wr: SendWR,
              on_ack: Optional[Callable] = None,
              on_error: Optional[Callable] = None):
        """Charge post overhead, track outstanding, post (generator).

        Backpressure: blocks while the peer has ``max_outstanding`` WRs in
        flight.  A peer declared dead meanwhile ends the wait through
        ``on_error`` with nothing posted.
        """
        limit = self.config.max_outstanding
        if peer.outstanding >= limit and not (yield from self._await_room(
                peer, lambda: peer.outstanding < limit)):
            if on_error is not None:
                on_error()
            return
        wr.wr_id = self._next_op("ack", on_ack, on_error)
        wr.signaled = True
        peer.outstanding += 1
        yield from peer.qp.post_send_timed(wr)
        self.counters.add("photon.posts")

    def _post_ring_entry(self, peer: PeerState, ring_name: str,
                         entry, on_ack: Optional[Callable] = None,
                         on_error: Optional[Callable] = None,
                         extent: Optional[int] = None,
                         op: Optional[ReliableOp] = None):
        """Claim a slot in the peer's ring and RDMA-write an entry into it.

        ``entry`` is either raw bytes or a builder ``f(seq) -> bytes`` —
        the builder form stamps the *claimed* sequence number, which is the
        only safe option when the claim can be preceded by a backpressure
        wait.  ``extent``: bytes of the slot actually written (defaults to
        the entry length) — eager entries only write header+payload+
        trailer, not the full slot.  Returns the claimed sequence number,
        or None when the peer was declared dead while the ring was full:
        nothing was claimed and ``on_error`` ran (generator).

        ``op``: the reliable op the entry belongs to.  Its replays are
        slot-stable, like ``_entry_error_cb``'s resends and for the same
        reason: a partition on a reliable fabric loses the write with no
        error CQE, only ``op.deadline`` notices, and a replay into a fresh
        slot would leave the lost one a hole.  A replay re-posts the first
        attempt's WR (its bytes are still staged) or, once the peer's
        credit covers the slot, counts the entry as delivered — credit is
        an ack — and never waits for ring room.  Only a re-arm, which
        restarts the ring's sequence space, makes it claim afresh.
        """
        ring = peer.remote[ring_name]
        if (op is not None and op.entry is not None
                and op.entry[0] == ring.generation):
            _generation, seq, wr = op.entry
            if seq <= ring.credit:
                if on_ack is not None:
                    on_ack()
            else:
                self.counters.add("photon.entry_rewrites")
                yield from self._post(
                    peer, wr, on_ack,
                    self._entry_error_cb(peer, wr, on_ack, on_error))
            return seq
        if ring.available() <= 0:
            self.counters.add(f"photon.{ring_name}_stalls")
            if not (yield from self._await_room(
                    peer, lambda: ring.available() > 0)):
                self.counters.add("photon.dead_peer_entry_drops")
                if on_error is not None:
                    on_error()
                return None
        seq, stage_addr, remote_addr = ring.claim()
        if callable(entry):
            entry = entry(seq)
        nbytes = extent if extent is not None else len(entry)
        if len(entry) > ring.spec.entry_size:
            raise SimulationError(
                f"entry of {len(entry)}B exceeds {ring.spec.name} slot")
        # compose into staging (host copy cost)
        self.memory.write(stage_addr, entry)
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(entry)))
        nic = self.cluster.params.nic
        use_inline = (self.config.use_inline and nbytes <= nic.max_inline)
        wr = SendWR(opcode=Opcode.RDMA_WRITE, local_addr=stage_addr,
                    length=nbytes, remote_addr=remote_addr, rkey=ring.rkey,
                    inline=use_inline)
        if op is not None:
            op.entry = (ring.generation, seq, wr)
        yield from self._post(peer, wr, on_ack,
                              self._entry_error_cb(peer, wr, on_ack, on_error))
        return seq

    def _await_room(self, peer: PeerState, room: Callable[[], bool]):
        """Block until ``room()`` toward ``peer`` (generator → bool).

        False: the failure detector declared the peer dead first, so the
        credit or CQE that would make room is never coming — the caller
        gives up through its error path (pending ops against the peer
        were already failed with ``PEER_DEAD``).
        """
        health, rank = self.health, peer.rank
        yield from self._wait_until(
            lambda: room() or (health is not None and health.is_dead(rank)))
        return room()

    def _entry_error_cb(self, peer: PeerState, wr: SendWR,
                        on_ack: Optional[Callable],
                        on_error: Optional[Callable], attempt: int = 0):
        """Slot-stable delivery retry for a lost ring-entry write.

        The consumer drains each ring strictly in sequence order, so a
        lost entry write would leave a hole no later entry can fill and
        stall the ring for good.  The entry bytes are still staged (the
        slot cannot be reclaimed before the peer returns credit for it),
        so re-posting the same WR into the same slot is idempotent and
        repairs the hole.  After ``entry_resend_limit`` resends the hole is
        declared permanent and the caller's ``on_error`` runs.
        """

        def cb():
            if self.health is not None and self.health.is_dead(peer.rank):
                # the slot belongs to the dead incarnation's seq space;
                # re-arm (not resend) is the recovery path
                self.counters.add("photon.dead_peer_entry_drops")
                if on_error is not None:
                    on_error()
                return
            if attempt >= self.config.entry_resend_limit:
                self.counters.add("photon.entry_drops")
                if on_error is not None:
                    on_error()
                return
            self.counters.add("photon.entry_resends")
            self.env.process(
                self._resend_ring_entry(peer, wr, on_ack, on_error,
                                        attempt + 1),
                name="photon:entry-resend")

        return cb

    def _resend_ring_entry(self, peer: PeerState, wr: SendWR,
                           on_ack: Optional[Callable],
                           on_error: Optional[Callable], attempt: int):
        backoff = min(self.config.backoff_base_ns << (attempt - 1),
                      self.config.backoff_max_ns)
        yield self.env.timeout(backoff)
        yield from self._post(peer, wr, on_ack,
                              self._entry_error_cb(peer, wr, on_ack, on_error,
                                                   attempt))

    def _send_credit(self, peer: PeerState, ring_name: str):
        """Return ledger credit to the producer (tiny RDMA write)."""
        peer.local[ring_name].mark_credit_sent()
        yield from self._post_credit(peer, ring_name)
        self.counters.add("photon.credit_writes")

    def _post_credit(self, peer: PeerState, ring_name: str):
        """Write the ring's credit word to the producer.  The word is an
        absolute value, so a lost write is resent as it stands now — which
        keeps the producer unblocked — unless the peer is dead (its re-arm
        resets credit state from scratch)."""
        local = peer.local[ring_name]
        stage = peer.credit_staging[ring_name]
        self.memory.write_u64(stage, local.credit_sent)
        nic = self.cluster.params.nic
        wr = SendWR(opcode=Opcode.RDMA_WRITE, local_addr=stage, length=8,
                    remote_addr=local.producer_credit_addr,
                    rkey=local.producer_rkey,
                    inline=self.config.use_inline and 8 <= nic.max_inline)

        def on_error():
            if self.health is not None and self.health.is_dead(peer.rank):
                return
            self.counters.add("photon.credit_resends")
            self.env.process(self._post_credit(peer, ring_name),
                             name="photon:credit-resend")

        yield from self._post(peer, wr, None, on_error)

    # ------------------------------------------------------------- reliability
    def _new_reliable_op(self, peer: PeerState, kind: str,
                         local_cid: Optional[int]) -> ReliableOp:
        peer.tx_op_seq += 1
        op = ReliableOp(peer_rank=peer.rank, op_id=peer.tx_op_seq, kind=kind,
                        local_cid=local_cid)
        self._reliable[op.key] = op
        return op

    def _op_cbs(self, op: ReliableOp, attempt: int):
        """(ack, error) WR callbacks bound to one attempt of one op.

        Callbacks from a superseded attempt (its WRs resolved after the
        deadline already declared the attempt dead) are ignored.
        """

        def on_ack():
            if op.state != "pending" or attempt != op.attempts:
                return
            op.acks_pending -= 1
            if op.acks_pending <= 0:
                self._op_done(op)

        def on_error():
            if attempt != op.attempts:
                return
            self._op_attempt_failed(op)

        return on_ack, on_error

    def _start_attempt(self, op: ReliableOp):
        # fail fast against a confirmed-dead peer instead of burning the
        # full deadline + retry budget (covers fresh posts and replays:
        # this is the single entry point for every attempt)
        if self.health is not None and self.health.is_dead(op.peer_rank):
            self._op_fail(op, WCStatus.PEER_DEAD)
            return
        op.attempts += 1
        op.deadline = self.env.now + self.config.op_timeout_ns
        yield from op.replay(op)

    def _release_op_mrs(self, op: ReliableOp) -> None:
        """Unpin the op's rcache registrations (called once, at settle)."""
        for mr in op.mrs:
            self.rcache.release_async(mr)
        op.mrs.clear()

    def _op_done(self, op: ReliableOp) -> None:
        if op.state in ("done", "failed"):
            return
        op.state = "done"
        self._reliable.pop(op.key, None)
        self._release_op_mrs(op)
        if op.span is not None:
            op.span.end(self.env.now, retries=op.attempts - 1)
        op.status = WCStatus.SUCCESS
        if op.local_cid is not None:
            self.local_cids.append((op.local_cid, WCStatus.SUCCESS))
            self.counters.add("photon.local_cids")
        self.doorbell.fire()
        if op.on_done is not None:
            op.on_done()

    def _op_fail(self, op: ReliableOp, status: WCStatus) -> None:
        """Terminally fail a reliable op with ``status`` (idempotent)."""
        if op.state in ("done", "failed"):
            return
        op.state = "failed"
        self._reliable.pop(op.key, None)
        self._release_op_mrs(op)
        if op.span is not None:
            label = ("failed" if status is WCStatus.RETRY_EXC_ERR
                     else status.value)
            op.span.end(self.env.now, status=label,
                        retries=max(0, op.attempts - 1))
        op.status = status
        if status is WCStatus.PEER_DEAD:
            self.counters.add("photon.dead_peer_fails")
        else:
            self.counters.add("photon.op_failures")
        if op.local_cid is not None:
            self.local_cids.append((op.local_cid, status))
            self.counters.add("photon.local_cids")
        self.arrivals.fire()

    def _op_attempt_failed(self, op: ReliableOp) -> None:
        """One attempt failed (WR error or deadline): back off or give up."""
        if op.state != "pending":
            return
        if op.attempts > self.config.max_op_retries:
            self._op_fail(op, WCStatus.RETRY_EXC_ERR)
            return
        self.counters.add("photon.op_retries")
        base = self.config.backoff_base_ns << (op.attempts - 1)
        backoff = min(base, self.config.backoff_max_ns)
        # jitter decorrelates retries of ops that share a deadline cadence
        # (e.g. every op against one dead peer); None keeps the historical
        # one-backoff_base_ns window byte-for-byte
        jitter = self.config.backoff_jitter_ns or self.config.backoff_base_ns
        backoff += int(self._retry_rng.integers(0, jitter))
        op.state = "backoff"
        op.next_retry_at = self.env.now + backoff

    # ------------------------------------------------------------- health
    def attach_health(self, monitor) -> None:
        """Consume a :class:`~repro.runtime.health.HealthMonitor`.

        Pending reliable ops against a peer the detector declares dead are
        failed with ``WCStatus.PEER_DEAD`` (and their flushed-out SQ slots
        reclaimed); when the peer rejoins with a new incarnation the
        pairing is re-armed from scratch.
        """
        self.health = monitor
        monitor.on_dead(self._on_peer_dead)
        monitor.on_join(self._on_peer_join)

    def _on_peer_dead(self, rank: int) -> None:
        if rank == self.rank or not self.alive:
            return
        self.handle_peer_dead(rank)

    def _on_peer_join(self, rank: int) -> None:
        if rank == self.rank or not self.alive:
            return
        self.rearm_peer(rank)

    def handle_peer_dead(self, rank: int) -> None:
        """Fail pending ops against a confirmed-dead peer, flush its QP.

        Without this a reliable (non-lossy) fabric leaks SQ slots: a WR
        posted toward a crashed peer is never acked and never errored, so
        its slot would stay occupied until QueueFullError.  Tearing the QP
        down flushes every pending WR with ``WR_FLUSH_ERR`` through the
        normal CQ path.
        """
        peer = self.peers.get(rank)
        if peer is None:
            return
        for key in [k for k in self._reliable if k[0] == rank]:
            op = self._reliable.get(key)
            if op is not None:
                self._op_fail(op, WCStatus.PEER_DEAD)
        if peer.qp.state is QPState.READY and peer.outstanding > 0:
            peer.qp.teardown()
        self.counters.add("photon.peer_dead_events")
        # senders blocked on this peer's credits re-check its health
        self.arrivals.fire()

    # ------------------------------------------------------------- crash
    def crash_local(self) -> None:
        """Crash injection: this endpoint's volatile state is gone.

        Called by the chaos controller *before* the NIC powers off.  No
        simulated time is charged — a crash is instantaneous.  The
        in-flight rcache pins are dropped without deregistration; the
        matching :meth:`rejoin` flushes the cache, which restores the
        reg/dereg balance.
        """
        self.alive = False
        for peer in self.peers.values():
            if peer.qp.state is QPState.READY:
                peer.qp.teardown()
        for op in self._reliable.values():
            op.state = "failed"
            op.mrs.clear()
        self._reliable.clear()
        self._ops.clear()
        self.local_cids.clear()
        self.remote_cids.clear()
        self.messages.clear()
        self.infos.clear()
        self._atomic_results.clear()
        self.counters.add("photon.crashes")
        self.arrivals.fire()

    def rejoin(self):
        """Restart this endpoint in place (generator, charges real time).

        Sequence mirrors a process restart on the same host: flush every
        cached registration (pins died with the process), re-register the
        ledger region (new rkey — peers learn it through the mesh, the
        PMI re-exchange analogue), drain stale CQ entries, then re-arm
        every peer pairing.  The caller must not issue operations toward
        a peer until that peer has also re-armed this pairing (the chaos
        controller sequences this via the membership join event).
        """
        yield from self.rcache.flush()
        if self._ledger_mr is not None:
            if self._ledger_mr.valid:
                yield from self.context.dereg_mr(self._ledger_mr)
            self._ledger_mr = self.context.reg_mr_sync(
                self.pd, self._ledger_base, self._ledger_size, Access.ALL)
        while self.send_cq.poll(max_entries=64):
            pass
        while self.recv_cq.poll(max_entries=64):
            pass
        for peer in self.peers.values():
            self._rearm_peer_state(peer)
            if peer.qp.state is not QPState.READY:
                peer.qp.reset_and_reconnect()
            # the drain above consumed every receive CQE, so the window in
            # use is what the RQ really holds: measured, not assumed empty
            peer.preposted = peer.qp.rq_posted
            self._top_up_recvs(peer)
        self.alive = True
        self.counters.add("photon.rejoins")
        self.arrivals.fire()

    def rearm_peer(self, rank: int) -> None:
        """Survivor side of a peer restart: reset the pairing's state.

        Any op still pending against the peer is failed with
        ``PEER_DEAD`` (it was addressed to the previous incarnation).
        """
        peer = self.peers.get(rank)
        if peer is None:
            return
        for key in [k for k in self._reliable if k[0] == rank]:
            op = self._reliable.get(key)
            if op is not None:
                self._op_fail(op, WCStatus.PEER_DEAD)
        self._rearm_peer_state(peer)
        if peer.qp.state is not QPState.READY:
            peer.qp.reset_and_reconnect()
        self._top_up_recvs(peer)
        self.counters.add("photon.peer_rearms")
        self.arrivals.fire()

    def _rearm_peer_state(self, peer: PeerState) -> None:
        """Reset both ring views of one pairing to their bootstrap state."""
        other = self._mesh.get(peer.rank)
        fresh_rkey = (other._ledger_mr.rkey
                      if other is not None and other._ledger_mr is not None
                      else None)
        for name in RING_NAMES:
            spec = self._specs[name]
            peer.remote[name].reset()
            peer.local[name].reset()
            if fresh_rkey is not None:
                peer.remote[name].rkey = fresh_rkey
                peer.local[name].producer_rkey = fresh_rkey
            # zero our consumer ring and both credit words for this peer:
            # stale sequence numbers must not alias the fresh seq space
            self.memory.write(self._layout[(peer.rank, name, "cons")],
                              b"\x00" * spec.nbytes)
            self.memory.write_u64(
                self._layout[(peer.rank, name, "credit")], 0)
            self.memory.write_u64(
                self._layout[(peer.rank, name, "credit_stage")], 0)
        peer.outstanding = 0
        # deliberately NOT touching peer.preposted: if the pairing's QP
        # was never torn down the RQ still holds our posted receives —
        # fungible empty WRs the new incarnation can consume.  If it
        # *was* torn down, the flush CQEs decrement the counter through
        # the normal poll path (possibly after this call), and the poll
        # loop tops the RQ back up once they drain.
        peer.tx_op_seq = 0
        peer.rx_hwm = 0
        peer.rx_seen.clear()

    def _reconnect_peer(self, peer: PeerState) -> None:
        """Re-arm an errored QP (reliability layer owns reconnection)."""
        if peer.qp.state is not QPState.ERROR:
            return
        peer.qp.reset_and_reconnect()
        self.counters.add("photon.qp_reconnects")

    def _rx_dup(self, peer: PeerState, op_id: int) -> bool:
        """True if this (peer, op) ledger entry was already delivered."""
        if op_id == 0:
            return False
        if op_id <= peer.rx_hwm or op_id in peer.rx_seen:
            self.counters.add("photon.dup_drops")
            return True
        peer.rx_seen.add(op_id)
        while peer.rx_hwm + 1 in peer.rx_seen:
            peer.rx_hwm += 1
            peer.rx_seen.discard(peer.rx_hwm)
        return False

    # ------------------------------------------------------------- progress
    def _progress_once(self):
        """One polling pass: CQs, ledgers, then retry deadlines (generator,
        charges time).

        A pass that found nothing runs its checks at one instant, so a
        caller that parks right after it cannot miss an arrival; a pass
        that found anything rings the doorbell when it ends — whoever it
        delivered to may be another process parked on this endpoint, and
        what landed while it was busy has not been looked at yet.  One
        that harvested a receive completion or a ledger entry rings
        ``arrivals``: ``_scan_peer`` advances a ring before its cost yield
        and hands the entry out after it, so a server pass woken by the
        same write can find neither and park in between.
        """
        env = self.env
        cqe_ns = self._cqe_poll_ns
        yield env.timeout(self._poll_ns)
        found = arrived = False
        # 1) source completions (successes and errors)
        for wc in self.send_cq.poll(max_entries=32):
            found = True
            yield env.timeout(cqe_ns)
            entry = self._ops.pop(wc.wr_id, None)
            peer = self.peers.get(wc.src_rank)
            if peer is not None and peer.outstanding > 0:
                # (> 0: completions of WRs flushed before a re-arm must
                # not drive the reset count negative)
                peer.outstanding -= 1
            if entry is None:
                continue
            kind, callback, on_error = entry
            if wc.ok:
                if callback is not None:
                    callback()
            else:
                self.counters.add("photon.wr_errors")
                if peer is not None:
                    self._reconnect_peer(peer)
                if on_error is not None:
                    on_error()
        # 2) immediate-mode remote completions (+ flushed receives)
        if self._use_imm:
            wcs = self.recv_cq.poll(max_entries=32)
            if wcs:
                arrived = True
                for wc in wcs:
                    yield env.timeout(cqe_ns)
                    peer = self.peers.get(wc.src_rank)
                    if peer is not None:
                        peer.preposted -= 1
                    if not wc.ok:
                        self.counters.add("photon.recv_flushes")
                        if peer is not None:
                            self._reconnect_peer(peer)
                        continue
                    if wc.opcode is WCOpcode.RECV_RDMA_WITH_IMM:
                        self.remote_cids.append((wc.imm, wc.src_rank))
                        self.counters.add("photon.remote_cids")
                # top preposts back up.  Only needed when this pass reaped
                # receive completions: every other path that lowers
                # ``preposted`` (init, rejoin, re-arm) refills inline.  Not
                # after a crash: a pass the crash caught mid-flight must not
                # re-post into QPs that rejoin() is about to re-arm.
                if self.alive:
                    for peer in self.peers.values():
                        if peer.qp.state is QPState.READY:
                            self._top_up_recvs(peer)
        # 3) ledger scans — ring state only changes when bytes land in a
        # ring region of this rank's memory (rings are watched ranges, so
        # such writes bump ``watch_version``) and entries are only ever
        # consumed inside _scan_peer below, so an unchanged version since
        # the last scan means every ring poll would miss: skip the whole
        # per-ring loop.  The version is snapshotted *before* scanning —
        # anything that lands while a scan yields leaves the version
        # ahead of the snapshot and forces a rescan on the next pass, so
        # nothing is ever missed.
        mem_version = self.memory.watch_version
        if mem_version != self._scanned_version:
            self._scanned_version = mem_version
            for peer in self.peers.values():
                for ring in peer.scan_rings:
                    if ring.ready() or ring.credit_due():
                        arrived = True
                        yield from self._scan_peer(peer)
                        break
        # 4) retry-deadline scan (skipped when re-entered from a replay's
        # own backpressure wait)
        if self._reliable and not self._in_deadline_scan:
            self._in_deadline_scan = True
            try:
                now = env.now
                health = self.health
                for key in list(self._reliable):
                    op = self._reliable.get(key)
                    if op is None:
                        continue
                    if health is not None and health.is_dead(op.peer_rank):
                        self._op_fail(op, WCStatus.PEER_DEAD)
                        continue
                    if op.state == "pending" and now >= op.deadline:
                        self._op_attempt_failed(op)
                    if op.state == "backoff" and now >= op.next_retry_at:
                        found = True
                        op.state = "pending"
                        yield from self._start_attempt(op)
            finally:
                self._in_deadline_scan = False
        self.counters.add("photon.progress_passes")
        if arrived:
            self.arrivals.fire()
        elif found:
            self.doorbell.fire()

    def attend_sends(self, on: bool) -> None:
        """While ``on``, send completions ring ``arrivals`` too: the
        caller is owed an RDMA read, which completes on the send CQ."""
        self.send_cq.doorbell = self.arrivals if on else self.doorbell

    def next_deadline(self) -> Optional[int]:
        """Earliest future instant a progress pass is owed with no
        arrival: a pending reliable op's deadline or a backed-off one's
        retry time (None: no such op).

        Times already reached do not count.  A pass acts on every one of
        those unless another process is inside the deadline scan, and that
        process's pass rings the doorbell when it ends.
        """
        now = self.env.now
        due = None
        for op in self._reliable.values():
            t = op.deadline if op.state == "pending" else op.next_retry_at
            if t > now and (due is None or t < due):
                due = t
        return due

    def _scan_peer(self, peer: PeerState):
        env = self.env
        nic = self.cluster.params.nic
        mem = self.memory
        buf = mem.data
        # completion ring
        ring = peer.local["cmp"]
        while ring.ready():
            entry = CompletionEntry.unpack_from(buf, ring.head_addr())
            ring.advance()
            yield env.timeout(nic.cqe_poll_ns)
            if self._rx_dup(peer, entry.op):
                continue  # replayed entry; already delivered
            self.remote_cids.append((entry.cid, entry.src))
            self.counters.add("photon.remote_cids")
        # eager ring (header seq + trailer seq must both match)
        ring = peer.local["eager"]
        while ring.ready():
            head = ring.head_addr()
            header = EagerHeader.unpack_from(buf, head)
            trailer = mem.read_u64(head + EAGER_HEADER_SIZE + header.size)
            if trailer != header.seq:
                break  # payload still landing
            # owned copy: the slot is recycled once credit returns, but the
            # message sits in self.messages until the app drains it
            payload = mem.read_bytes(head + EAGER_HEADER_SIZE, header.size)
            ring.advance()
            yield env.timeout(mem.memcpy_cost_ns(header.size)
                              + nic.cqe_poll_ns)
            if self._rx_dup(peer, header.op):
                continue  # replayed message; already delivered
            self.messages.append((header.src, header.cid, payload))
            self.counters.add("photon.eager_msgs")
        # info ring
        ring = peer.local["info"]
        while ring.ready():
            info = InfoEntry.unpack_from(buf, ring.head_addr())
            ring.advance()
            yield env.timeout(nic.cqe_poll_ns)
            self.infos.append(info)
            self.counters.add("photon.info_entries")
        # fin ring
        ring = peer.local["fin"]
        while ring.ready():
            fin = FinEntry.unpack_from(buf, ring.head_addr())
            ring.advance()
            yield env.timeout(nic.cqe_poll_ns)
            self.requests.complete(fin.req, env.now)
            self.counters.add("photon.fins")
        # credit returns
        for name in RING_NAMES:
            if peer.local[name].credit_due():
                yield from self._send_credit(peer, name)

    def stats(self) -> Dict[str, object]:
        """Endpoint telemetry snapshot (photon_get_dev_stats analogue).

        Every key and value is JSON-serializable — ``json.dumps(stats())``
        must always succeed (ledger credits are nested string-keyed dicts,
        not tuple-keyed).
        """
        return {
            "rank": self.rank,
            "pending_requests": self.requests.pending,
            "requests_created": self.requests.total_created,
            "queued_local_cids": len(self.local_cids),
            "queued_remote_cids": len(self.remote_cids),
            "queued_messages": len(self.messages),
            "queued_infos": len(self.infos),
            "outstanding_by_peer": {
                str(r): p.outstanding for r, p in self.peers.items()},
            "rcache": self.rcache.occupancy(),
            "ledger_credits": {
                str(peer.rank): {name: ring.available()
                                 for name, ring in peer.remote.items()}
                for peer in self.peers.values()},
        }

    def telemetry(self) -> Dict[str, object]:
        """Fault-domain telemetry: retry/recovery counters + in-flight ops.

        Counters are read from this rank's scope, so every value is
        genuinely per-rank (cluster-wide totals live in
        ``cluster.counters`` / ``cluster.metrics.aggregate``).
        ``reliable_ops_inflight`` is rank-local state, not a counter.
        """
        c = self.counters
        return {
            "nic.ack_timeouts": c.get("nic.ack_timeouts"),
            "nic.retransmits": c.get("nic.retransmits"),
            "nic.retry_exhausted": c.get("nic.retry_exhausted"),
            "qp.flushes": c.get("qp.flushes"),
            "qp.reconnects": c.get("qp.reconnects"),
            "photon.op_retries": c.get("photon.op_retries"),
            "photon.op_failures": c.get("photon.op_failures"),
            "photon.dup_drops": c.get("photon.dup_drops"),
            "photon.entry_resends": c.get("photon.entry_resends"),
            "photon.entry_rewrites": c.get("photon.entry_rewrites"),
            "photon.wr_errors": c.get("photon.wr_errors"),
            "photon.qp_reconnects": c.get("photon.qp_reconnects"),
            "transport.peer_down": c.get("transport.peer_down"),
            "reliable_ops_inflight": len(self._reliable),
        }

    def _wait_until(self, predicate: Callable[[], bool],
                    timeout_ns: Optional[int] = None):
        """Poll progress until ``predicate()`` holds (generator).

        Returns :class:`TimeoutStatus` — ``OK`` (truthy) on success,
        ``TIMED_OUT`` (falsy) if the optional timeout expired.  Probes
        that could not find anything are skipped, not run: see
        :func:`repro.sim.resources.poll_until`.
        """
        ok = yield from poll_until(
            self.doorbell, self._progress_once, predicate, timeout_ns,
            self.next_deadline)
        return TimeoutStatus.OK if ok else TimeoutStatus.TIMED_OUT
