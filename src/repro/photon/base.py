"""Photon endpoint state, bootstrap and the progress engine.

One :class:`PhotonBase` instance exists per rank.  Bootstrap (performed by
:func:`repro.photon.api.photon_init`) wires the full mesh: a reliable
queue pair and a ledger channel (:class:`~repro.photon.ledger.
PeerChannel`: four rings per direction, staging mirrors, credit words)
per peer — all in one registered region per rank, with bases/rkeys
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

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..cluster import Cluster, RankNode
from ..sim.core import Environment, SimulationError
from ..sim.resources import Signal, poll_until
from ..verbs.cq import CompletionQueue
from ..verbs.device import ProtectionDomain
from ..verbs.enums import Access, Opcode, QPState, WCOpcode, WCStatus
from ..verbs.qp import QueuePair, RecvWR, Repost, SendWR
from .config import PhotonConfig
from .ledger import (CMP, COVERED, EAGER, FIN, INFO, REWRITE, RING_NAMES,
                     Geometry, PeerChannel)
from .rcache import RegistrationCache
from .request import RequestTable
from .wire import (CompletionEntry, EAGER_HEADER_SIZE, EagerHeader, FinEntry,
                   InfoEntry)

__all__ = ["PhotonBase", "PeerState", "Completion", "ReliableOp"]

#: preposted zero-byte receives per peer when use_imm is on
IMM_PREPOST = 64
#: the one receive every immediate-mode window posts: zero bytes, so it
#: lands nothing and no two of its receives differ
_IMM_RECV = RecvWR()
#: maximum outstanding PWC operations per peer before put backpressure
MAX_OUTSTANDING = 256
#: base of the exponential retry backoff (doubles per attempt, plus seeded
#: jitter drawn from [0, PhotonConfig.backoff_jitter_ns)), ns
BACKOFF_BASE_NS = 20_000
#: ceiling for the exponential retry backoff (ns)
BACKOFF_MAX_NS = 1_000_000
#: slot-stable resends of a lost ledger-entry write before the hole is
#: declared permanent.  Deliberately deeper than ``max_op_retries``: rings
#: are consumed strictly in sequence order, so an unfilled slot stalls
#: every later entry from that peer — ring liveness is worth retrying much
#: harder than a single operation's latency budget
ENTRY_RESEND_LIMIT = 12


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
    #: endpoint-local key in ``PhotonBase._reliable``
    handle: int
    kind: str  # "put" | "send" | "get" | "notify" | "info" | "fin"
    #: generator factory posting one (re)attempt of the op's work requests:
    #: ``replay(op, on_ack, on_error)`` with the attempt's WR callbacks
    replay: Optional[Callable[["ReliableOp", Callable, Callable],
                              object]] = None
    local_cid: Optional[int] = None
    #: the per-peer id the target dedups replays by, 0 until the first
    #: entry that carries one (a completion entry or an eager header) is
    #: built: an op that never builds one leaves no gap in the sequence
    op_id: int = 0
    #: fired once when the op completes successfully (get-notify spawn etc.)
    on_done: Optional[Callable[[], None]] = None
    #: fired once when the op fails terminally
    on_fail: Optional[Callable[[], None]] = None
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
    #: the ring slot this op's ledger entry claimed, as (channel epoch,
    #: seq, WR): a replay rewrites that slot (see ``_post_ring_entry``)
    entry: Optional[Tuple[int, int, SendWR]] = None
    #: open op-latency span (None when span recording is disabled)
    span: Optional[object] = None


@dataclass
class PeerState:
    """Everything rank-local about one peer."""

    rank: int
    qp: QueuePair
    #: both directions of the pairing's ledger rings
    channel: PeerChannel
    outstanding: int = 0
    #: immediate-mode receive window in use: receives posted on the RQ
    #: plus this peer's receive CQEs not yet reaped.  Kept at or below
    #: ``IMM_PREPOST``, so a slow poller RNR-stalls its senders instead
    #: of growing the receive CQ.
    preposted: int = 0


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
        # the longest write posted inline (-1: none)
        self._inline_max = (cluster.params.nic.max_inline
                            if config.use_inline else -1)
        # memory.version as of the last ledger scan (see _progress_once)
        self._scanned_version = -1
        self.context = node.context
        self.memory = node.memory
        # this rank's counter scope (cluster.counters sums the scopes)
        self.counters = cluster.scope(node.rank)
        self.pd: ProtectionDomain = self.context.alloc_pd()
        qp_total = cluster.n * (2 * MAX_OUTSTANDING + 64)
        self.send_cq: CompletionQueue = self.context.create_cq(
            capacity=max(4096, qp_total))
        self.recv_cq: CompletionQueue = self.context.create_cq(
            capacity=max(4096, cluster.n * IMM_PREPOST * 2))
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
            enabled=config.rcache_enabled)
        self.requests = RequestTable(self.rank)
        self.peers: Dict[int, PeerState] = {}
        # engine queues
        self._op_seq = 0
        self._ops: Dict[int, Tuple[Optional[Callable], Callable]] = {}
        # reliability layer: live retryable ops by handle, seeded jitter
        # stream
        self._reliable: Dict[int, ReliableOp] = {}
        self._op_handles = 0
        self._in_deadline_scan = False
        self._retry_rng = cluster.rng.stream(f"photon.retry.{self.rank}")
        #: False between a chaos crash and the matching rejoin
        self.alive = True
        node.on_peer_dead.append(self._on_peer_dead)
        node.on_peer_join.append(self._on_peer_join)
        node.on_crash.append(self.crash_local)
        node.on_restart.append(self.rejoin)
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
        #: the open collective's epoch, -1 before the first (SPMD calls
        #: advance it identically)
        self._coll_epoch = -1
        # the ledger region: one block per peer (filled by _alloc_ledgers)
        self._ledger_mr = None
        self._ledger_base = 0
        self._ledger_size = 0
        self._geometry = Geometry.of(config)

    # ------------------------------------------------------------- bootstrap
    def _alloc_ledgers(self) -> None:
        """Allocate + register the ledger region: per peer its consumer
        rings, staging mirrors, credit words and credit staging."""
        if self.cluster.n == 1:
            return  # single rank: no ledgers needed
        self._ledger_size = (self.cluster.n - 1) * self._geometry.stride
        self._ledger_base = self.memory.alloc(self._ledger_size, align=64)
        self._ledger_mr = self.context.reg_mr_sync(
            self.pd, self._ledger_base, self._ledger_size, Access.ALL)

    def _wire_peer(self, other: "PhotonBase", qp: QueuePair) -> None:
        """Create the peer state for ``other`` (both endpoints bootstrapped)."""
        g = self._geometry
        channel = PeerChannel(
            g, self.memory.data,
            g.block(self._ledger_base, self.rank, other.rank),
            g.block(other._ledger_base, other.rank, self.rank),
            other._ledger_mr.rkey)
        # writes landing in a ring bump memory.watch_version, letting the
        # progress loop skip whole scan passes, and a sender stalled on a
        # full ring sleeps until the peer's credit write rings the
        # doorbell; the watch also bounds-checks what the channel reads
        for addr, nbytes in channel.watched():
            self.memory.watch(addr, nbytes)
        peer = PeerState(rank=other.rank, qp=qp, channel=channel)
        self.peers[other.rank] = peer
        self._top_up_recvs(peer)

    def _top_up_recvs(self, peer: PeerState) -> None:
        """Post receives until the pairing's window is ``IMM_PREPOST``:
        the whole deficit as one run of the shared empty template."""
        deficit = IMM_PREPOST - peer.preposted
        if self._use_imm and deficit > 0:
            peer.qp.post_recv(_IMM_RECV, deficit)
            peer.preposted = IMM_PREPOST

    # ------------------------------------------------------------- posting
    def _peer(self, rank: int) -> PeerState:
        peer = self.peers.get(rank)
        if peer is None:
            raise SimulationError(
                f"rank {self.rank}: no photon peer {rank} (self-sends are "
                "handled above this layer)")
        return peer

    def _post(self, peer: PeerState, wr: SendWR,
              on_ack: Optional[Callable], on_error: Callable):
        """Charge post overhead, track outstanding, post (generator).

        Backpressure: blocks while the peer has ``MAX_OUTSTANDING`` WRs in
        flight.  A peer declared dead meanwhile ends the wait through
        ``on_error`` with nothing posted.
        """
        if peer.outstanding >= MAX_OUTSTANDING and not (
                yield from self._await_room(
                    peer, lambda: peer.outstanding < MAX_OUTSTANDING)):
            on_error()
            return
        self._op_seq += 1
        wr.wr_id = self._op_seq
        self._ops[wr.wr_id] = (on_ack, on_error)
        wr.signaled = True
        peer.outstanding += 1
        yield from peer.qp.post_send_timed(wr)
        self.counters.add("photon.posts")

    def _post_ring_entry(self, peer: PeerState, ring: int,
                         build: Callable[[int, int], bytes], op: ReliableOp,
                         on_ack: Callable, on_error: Callable):
        """Claim a slot in the peer's ``ring`` (a ledger kind) and
        RDMA-write the entry ``build(seq, op_id)`` into it, stamped with
        the *claimed* sequence number and the op's dedup id (generator).
        When the peer is declared dead while the ring is full nothing is
        claimed and ``on_error`` runs; nor is it by an attempt whose op
        moved on while it waited (a later attempt, or the op settled).

        Every entry belongs to the reliable op ``op``, and its replays are
        slot-stable, like ``_post_entry``'s resends and for the same
        reason: a partition on a reliable fabric loses the write with no
        error CQE, only ``op.deadline`` notices, and a replay into a fresh
        slot would leave the lost one a hole.  A replay re-posts the first
        attempt's WR (its bytes are still staged) or, once the peer's
        credit covers the slot, counts the entry as delivered — credit is
        an ack — and never waits for ring room.  Only a re-arm, which
        restarts the ring's sequence space, makes it claim afresh.
        """
        channel = peer.channel
        if op.entry is not None:
            epoch, seq, wr = op.entry
            verdict = channel.replay(ring, epoch, seq)
            if verdict is COVERED:
                on_ack()
                return
            if verdict is REWRITE:
                self.counters.add("photon.entry_rewrites")
                yield from self._post_entry(peer, wr, on_ack, on_error)
                return
        if channel.available(ring) <= 0:
            self.counters.add(f"photon.{RING_NAMES[ring]}_stalls")
            attempt = op.attempts
            if not (yield from self._await_room(
                    peer, lambda: channel.available(ring) > 0)):
                self._drop_entry("photon.dead_peer_entry_drops", on_error)
                return
            if op.attempts != attempt or op.state in ("done", "failed"):
                return  # the op moved on while this attempt waited
        op.op_id, seq, entry, stage_addr, remote_addr = channel.claim(
            ring, op.op_id, build)
        # compose into staging (host copy cost)
        self.memory.write(stage_addr, entry)
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(entry)))
        wr = SendWR(opcode=Opcode.RDMA_WRITE, local_addr=stage_addr,
                    length=len(entry), remote_addr=remote_addr,
                    rkey=channel.rkey, inline=len(entry) <= self._inline_max)
        op.entry = (channel.epoch, seq, wr)
        yield from self._post_entry(peer, wr, on_ack, on_error)

    def _await_room(self, peer: PeerState, room: Callable[[], bool]):
        """Block until ``room()`` toward ``peer`` (generator → bool).

        False: the failure detector declared the peer dead first, so the
        credit or CQE that would make room is never coming — the caller
        gives up through its error path (pending ops against the peer
        were already failed with ``PEER_DEAD``).
        """
        yield from self._wait_until(
            lambda: room() or self._dead(peer.rank))
        return room()

    def _dead(self, rank: int) -> bool:
        """Has this rank's failure detector declared ``rank`` dead?"""
        health = self.node.health
        return health is not None and health.is_dead(rank)

    def _post_entry(self, peer: PeerState, wr: SendWR, on_ack: Callable,
                    on_error: Callable):
        """Post a ring entry's write (generator).  The consumer drains each
        ring strictly in sequence order, so a lost write would leave a hole
        no later entry can fill; its bytes stay staged until the peer's
        credit frees the slot, so re-posting the same WR into the same
        slot is idempotent and repairs it.  After ``ENTRY_RESEND_LIMIT``
        resends, or at once against a dead peer (its re-arm recovers), the
        op's ``on_error`` runs."""
        post = partial(self._post, peer, wr, on_ack)
        yield from post(Repost(
            peer.qp, post, "photon.entry_resends", budget=ENTRY_RESEND_LIMIT,
            delay=lambda k: min(BACKOFF_BASE_NS << (k - 1), BACKOFF_MAX_NS),
            dead=lambda: self._dead(peer.rank),
            on_dead=partial(self._drop_entry, "photon.dead_peer_entry_drops",
                            on_error),
            give_up=partial(self._drop_entry, "photon.entry_drops", on_error)))

    def _drop_entry(self, counter: str, on_error: Callable) -> None:
        self.counters.add(counter)
        on_error()

    def _send_credit(self, peer: PeerState, ring: int):
        """Return ledger credit to the producer (tiny RDMA write).  The
        word is an absolute value, so a lost write is resent as it stands
        now, with no budget — which keeps the producer unblocked — unless
        the peer is dead (its re-arm resets credit state from scratch)."""
        peer.channel.mark_credit_sent(ring)

        def post(on_error):
            value, stage, remote = peer.channel.credit_word(ring)
            self.memory.write_u64(stage, value)
            wr = SendWR(opcode=Opcode.RDMA_WRITE, local_addr=stage, length=8,
                        remote_addr=remote, rkey=peer.channel.rkey,
                        inline=8 <= self._inline_max)
            return self._post(peer, wr, None, on_error)

        yield from post(Repost(
            peer.qp, post, "photon.credit_resends",
            dead=lambda: self._dead(peer.rank)))
        self.counters.add("photon.credit_writes")

    # ------------------------------------------------------------- reliability
    def _new_reliable_op(self, peer: PeerState, kind: str,
                         local_cid: Optional[int], replay: Callable,
                         span: Optional[object] = None,
                         mr=None) -> ReliableOp:
        """Register a retryable op that ``replay`` posts, holding ``span``
        and the rcache pin ``mr`` until it settles; the caller starts it
        with :meth:`_start_attempt`."""
        self._op_handles += 1
        op = ReliableOp(peer_rank=peer.rank, handle=self._op_handles,
                        kind=kind, replay=replay, local_cid=local_cid,
                        mrs=[] if mr is None else [mr], span=span)
        self._reliable[op.handle] = op
        return op

    def _entry_op(self, peer: PeerState, kind: str, ring: int,
                  build: Callable[[int, int], bytes],
                  on_fail: Optional[Callable[[], None]] = None):
        """Post a reliable op whose one work request writes the entry
        ``build(seq, op_id)`` into the peer's ``ring`` (generator → the
        op handle)."""

        def replay(op, on_ack, on_error):
            op.acks_pending = 1
            yield from self._post_ring_entry(peer, ring, build, op,
                                             on_ack, on_error)

        op = self._new_reliable_op(peer, kind, None, replay)
        op.on_fail = on_fail
        yield from self._start_attempt(op)
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
        if self._dead(op.peer_rank):
            self._op_fail(op, WCStatus.PEER_DEAD)
            return
        op.attempts += 1
        op.deadline = self.env.now + self.config.op_timeout_ns
        on_ack, on_error = self._op_cbs(op, op.attempts)
        yield from op.replay(op, on_ack, on_error)

    def _dead_at_post(self, req) -> bool:
        """Fail a request-tracked post to a peer the detector has already
        declared dead, as :meth:`_start_attempt` fails a PWC op: nothing
        is pinned or posted.  (With nothing outstanding at the death, the
        peer's QP was never torn down, and a WR on it would never
        settle.)"""
        if not self._dead(req.peer):
            return False
        self.requests.fail(req.rid, self.env.now)
        self.counters.add("photon.dead_peer_fails")
        return True

    def _release_op_mrs(self, op: ReliableOp) -> None:
        """Unpin the op's rcache registrations (called once, at settle)."""
        for mr in op.mrs:
            self.rcache.release_async(mr)
        op.mrs.clear()

    def _op_done(self, op: ReliableOp) -> None:
        if op.state in ("done", "failed"):
            return
        op.state = "done"
        self._reliable.pop(op.handle, None)
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
        self._reliable.pop(op.handle, None)
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
        if op.on_fail is not None:
            op.on_fail()
        self.arrivals.fire()

    def _op_attempt_failed(self, op: ReliableOp) -> None:
        """One attempt failed (WR error or deadline): back off or give up."""
        if op.state != "pending":
            return
        if op.attempts > self.config.max_op_retries:
            self._op_fail(op, WCStatus.RETRY_EXC_ERR)
            return
        self.counters.add("photon.op_retries")
        backoff = min(BACKOFF_BASE_NS << (op.attempts - 1), BACKOFF_MAX_NS)
        # jitter decorrelates retries of ops that share a deadline cadence
        # (e.g. every op against one dead peer)
        backoff += int(self._retry_rng.integers(
            0, self.config.backoff_jitter_ns))
        op.state = "backoff"
        op.next_retry_at = self.env.now + backoff

    # ------------------------------------------------------------- health
    # the rank's detector verdicts (subscribed in __init__): pending
    # reliable ops against a dead peer fail with ``WCStatus.PEER_DEAD``
    # (their flushed-out SQ slots reclaimed); a peer that rejoins with a
    # new incarnation has its pairing re-armed from scratch
    def _on_peer_dead(self, rank: int) -> None:
        if rank == self.rank or not self.alive:
            return
        self.handle_peer_dead(rank)

    def _on_peer_join(self, rank: int) -> None:
        if rank == self.rank or not self.alive:
            return
        self.rearm_peer(rank)

    def handle_peer_dead(self, rank: int) -> None:
        """Fail pending ops and requests against a confirmed-dead peer,
        flush its QP.

        Without this a reliable (non-lossy) fabric leaks SQ slots: a WR
        posted toward a crashed peer is never acked and never errored, so
        its slot would stay occupied until QueueFullError.  Tearing the QP
        down flushes every pending WR with ``WR_FLUSH_ERR`` through the
        normal CQ path.
        """
        peer = self.peers.get(rank)
        if peer is None:
            return
        self._fail_pending(rank)
        if peer.qp.state is QPState.READY and peer.outstanding > 0:
            peer.qp.teardown()
        self.counters.add("photon.peer_dead_events")
        # senders blocked on this peer's credits re-check its health
        self.arrivals.fire()

    def _fail_pending(self, rank: int) -> None:
        """Fail the reliable ops (``PEER_DEAD``) and the requests still
        pending against ``rank``; a failed request releases its pin."""
        for op in [op for op in self._reliable.values()
                   if op.peer_rank == rank]:
            self._op_fail(op, WCStatus.PEER_DEAD)
        failed = self.requests.fail_peer(rank, self.env.now)
        if failed:
            self.counters.add("photon.dead_peer_fails", failed)

    # ------------------------------------------------------------- crash
    def crash_local(self) -> None:
        """The rank crashed: this endpoint's volatile state is gone.

        Subscribed to ``RankNode.on_crash`` (before the NIC powers off).  No
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
        """The rank restarted: restart this endpoint in place (generator,
        charges real time; subscribed to ``RankNode.on_restart``).

        Sequence mirrors a process restart on the same host: flush every
        cached registration (pins died with the process), re-register the
        ledger region (new rkey — peers learn it through the mesh, the
        PMI re-exchange analogue), drain stale CQ entries, then re-arm
        every peer pairing.  The caller must not issue operations toward
        a peer until that peer has also re-armed this pairing (the rank's
        detector resumes after this, and survivors re-arm at its join).
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

        Any op or request still pending against the peer is failed (it
        was addressed to the previous incarnation).
        """
        peer = self.peers.get(rank)
        if peer is None:
            return
        self._fail_pending(rank)
        self._rearm_peer_state(peer)
        if peer.qp.state is not QPState.READY:
            peer.qp.reset_and_reconnect()
        self._top_up_recvs(peer)
        self.counters.add("photon.peer_rearms")
        self.arrivals.fire()

    def _rearm_peer_state(self, peer: PeerState) -> None:
        """Start a new ledger epoch for one pairing."""
        other = self._mesh.get(peer.rank)
        fresh_rkey = (other._ledger_mr.rkey
                      if other is not None and other._ledger_mr is not None
                      else None)
        for addr, nbytes in peer.channel.reset(fresh_rkey):
            self.memory.write(addr, bytes(nbytes))
        peer.outstanding = 0
        # deliberately NOT touching peer.preposted: if the pairing's QP
        # was never torn down the RQ still holds our posted receives —
        # fungible empty WRs the new incarnation can consume.  If it
        # *was* torn down, the flush CQEs decrement the counter through
        # the normal poll path (possibly after this call), and the poll
        # loop tops the RQ back up once they drain.

    def _reconnect_peer(self, peer: PeerState) -> None:
        """Re-arm an errored QP (reliability layer owns reconnection)."""
        if peer.qp.state is not QPState.ERROR:
            return
        peer.qp.reset_and_reconnect()
        self.counters.add("photon.qp_reconnects")

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
            callback, on_error = entry
            if wc.ok:
                if callback is not None:
                    callback()
            else:
                self.counters.add("photon.wr_errors")
                if peer is not None:
                    self._reconnect_peer(peer)
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
                if peer.channel.pending():
                    arrived = True
                    yield from self._scan_peer(peer)
        # 4) retry-deadline scan (skipped when re-entered from a replay's
        # own backpressure wait)
        if self._reliable and not self._in_deadline_scan:
            self._in_deadline_scan = True
            try:
                now = env.now
                health = self.node.health
                for handle in list(self._reliable):
                    op = self._reliable.get(handle)
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
        """Drain the peer's rings in order, then return the credit they
        owe.  A ring advances before its cost yield and the entry is
        handed out after it (see :meth:`_progress_once`)."""
        env = self.env
        cqe_ns = self._cqe_poll_ns
        mem = self.memory
        buf = mem.data
        channel = peer.channel
        take = channel.take
        while (head := take(CMP)) is not None:
            entry = CompletionEntry.unpack_from(buf, head)
            yield env.timeout(cqe_ns)
            if not channel.fresh(entry.op):
                self.counters.add("photon.dup_drops")
                continue  # replayed entry; already delivered
            self.remote_cids.append((entry.cid, entry.src))
            self.counters.add("photon.remote_cids")
        while (head := take(EAGER)) is not None:  # trailer landed too
            header = EagerHeader.unpack_from(buf, head)
            # owned copy: the slot is recycled once credit returns, but the
            # message sits in self.messages until the app drains it
            payload = mem.read_bytes(head + EAGER_HEADER_SIZE, header.size)
            yield env.timeout(mem.memcpy_cost_ns(header.size) + cqe_ns)
            if not channel.fresh(header.op):
                self.counters.add("photon.dup_drops")
                continue  # replayed message; already delivered
            self.messages.append((header.src, header.cid, payload))
            self.counters.add("photon.eager_msgs")
        while (head := take(INFO)) is not None:
            info = InfoEntry.unpack_from(buf, head)
            yield env.timeout(cqe_ns)
            self.infos.append(info)
            self.counters.add("photon.info_entries")
        while (head := take(FIN)) is not None:
            fin = FinEntry.unpack_from(buf, head)
            yield env.timeout(cqe_ns)
            self.requests.complete(fin.req, env.now)
            self.counters.add("photon.fins")
        for ring in (CMP, EAGER, INFO, FIN):
            if channel.credit_due(ring):
                yield from self._send_credit(peer, ring)

    def stats(self) -> Dict[str, object]:
        """Endpoint state snapshot (photon_get_dev_stats analogue; the
        counts are the counters in this rank's metrics scope).

        Every key and value is JSON-serializable — ``json.dumps(stats())``
        must always succeed (ledger credits are nested string-keyed dicts,
        not tuple-keyed).
        """
        return {
            "rank": self.rank,
            "pending_requests": self.requests.pending,
            "reliable_ops_inflight": len(self._reliable),
            "requests_created": self.requests.total_created,
            "queued_local_cids": len(self.local_cids),
            "queued_remote_cids": len(self.remote_cids),
            "queued_messages": len(self.messages),
            "queued_infos": len(self.infos),
            "outstanding_by_peer": {
                str(r): p.outstanding for r, p in self.peers.items()},
            "rcache": self.rcache.occupancy(),
            "ledger_credits": {
                str(peer.rank): {name: peer.channel.available(ring)
                                 for ring, name in enumerate(RING_NAMES)}
                for peer in self.peers.values()},
        }

    def _wait_until(self, predicate: Callable[[], bool],
                    timeout_ns: Optional[int] = None):
        """Poll progress until ``predicate()`` holds (generator → bool,
        False if the optional timeout expired).  Probes that could not
        find anything are skipped, not run: see
        :func:`repro.sim.resources.poll_until`.
        """
        return (yield from poll_until(
            self.doorbell, self._progress_once, predicate, timeout_ns,
            self.next_deadline))
