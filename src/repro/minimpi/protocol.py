"""The minimpi protocol engine: eager + rendezvous over verbs.

This is the two-sided comparator the paper evaluates Photon against.  It
implements the standard MPI transport design over RC queue pairs:

- **Eager** (size <= threshold): the payload is *copied* into a registered
  send bounce buffer behind a 48-byte header and SENT; it lands in one of
  the receiver's preposted bounce buffers, where the progress engine
  matches it against posted receives and *copies* it out to the user
  buffer (or to an unexpected-queue allocation).  Two copies that Photon's
  PWC path does not pay.
- **Rendezvous** (size > threshold): the sender registers the user buffer
  (registration cache) and SENDs an RTS carrying (addr, rkey, size); the
  receiver matches it, registers its landing buffer, RDMA-READs the
  payload directly, and SENDs back a FIN that completes the sender's
  request (or fails it, when the read failed past its retries).  One
  and a half round trips of control traffic that Photon's
  pre-exposed-buffer put does not pay.

Progress is polling and runs inside blocking calls, exactly like the
Photon engine, so the two libraries share cost accounting conventions —
including the wait loop: blocking calls park on the engine's ``doorbell``
(both CQs ring it) between the probes that can find something
(:func:`repro.sim.resources.poll_until`).
"""

from __future__ import annotations

import itertools
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..cluster import Cluster, RankNode
from ..photon.rcache import RegistrationCache
from ..sim.core import Environment, SimulationError
from ..sim.resources import Signal, poll_until
from ..verbs.enums import Access, Opcode, QPState
from ..verbs.qp import QueuePair, RecvWR, Repost, SendWR
from .matching import MatchEngine, PostedRecv, UnexpectedMsg
from .status import ANY_SOURCE, ANY_TAG, MPIConfig, Status

__all__ = ["Engine", "MPIRequest", "HDR"]

#: per-peer send bounce slots (eager flow-control window)
EAGER_CREDITS = 32
#: per-peer preposted receive bounce buffers
PREPOST = 64
#: per-call software-stack overhead (ns): request allocation, protocol
#: selection, matching-engine bookkeeping.  Charged at isend/irecv entry
#: and per inbound protocol message.  Production MPI libraries measure
#: 100-300 ns here on top of raw verbs; Photon's thin completion-oriented
#: layer is the paper's alternative to exactly this cost.
SW_OVERHEAD_NS = 120
#: host cost of one progress pass (ns); a blocking call probes back to
#: back, so also how long after an arrival the waiter sees it
PROGRESS_POLL_NS = 60
#: registration-cache entries for rendezvous buffers
RCACHE_CAPACITY = 128
#: extra attempts for a control message / rendezvous fetch the fabric
#: failed before the owning request is completed with an error
MAX_OP_RETRIES = 3

# kind(q) tag(q) size(q) sreq(q) addr(q) rkey(q)
HDR = struct.Struct("<qqqqqq")
KIND_EAGER = 1
KIND_RTS = 2
KIND_FIN = 3
#: a FIN's tag (spare in a FIN) when the receiver's read of the advertised
#: buffer failed: the sender fails its request instead of completing it
FIN_FAILED = 1


class MPIRequest:
    """Handle for a non-blocking operation."""

    __slots__ = ("rid", "kind", "peer", "done", "status", "t_completed",
                 "error", "on_settle", "span", "_live")
    _ids = itertools.count(1)

    def __init__(self, kind: str,
                 live: Optional[Dict[int, "MPIRequest"]] = None):
        self.rid = next(MPIRequest._ids)
        #: the engine's table of unsettled requests: this one is in it
        #: until it settles
        self._live = live
        if live is not None:
            live[self.rid] = self
        self.kind = kind
        #: destination (sends) or expected source (receives); -1 wildcard
        self.peer = -1
        self.done = False
        self.status = Status()
        self.t_completed = -1
        #: None, or the error the transport gave up with ("retry_exceeded")
        self.error: Optional[str] = None
        #: fired exactly once when the request turns terminal — resource
        #: cleanup hook (rcache release)
        self.on_settle: Optional[Callable[[], None]] = None
        #: open op-latency span (None when span recording is disabled)
        self.span = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def _settle(self) -> None:
        if self._live is not None:
            self._live.pop(self.rid, None)
        hook, self.on_settle = self.on_settle, None
        if hook is not None:
            hook()

    def complete(self, now: int) -> None:
        if self.done:
            raise SimulationError(f"request {self.rid} completed twice")
        self.done = True
        self.t_completed = now
        if self.span is not None:
            self.span.end(now)
        self._settle()

    def fail(self, now: int, error: str = "retry_exceeded") -> None:
        """Settle the request with an error so waits unblock."""
        if self.done:
            return
        self.error = error
        self.done = True
        self.t_completed = now
        if self.span is not None:
            self.span.end(now, status=error)
        self._settle()


@dataclass
class _PeerChannel:
    """Per-peer transport state."""

    qp: QueuePair
    #: the first of the channel's ``EAGER_CREDITS`` send-bounce slots
    send_base: int = 0
    #: free send-bounce slot addresses
    send_slots: Deque[int] = field(default_factory=deque)
    #: recv bounce slot address by verbs wr_id
    recv_slots: Dict[int, int] = field(default_factory=dict)


class Engine:
    """Per-rank minimpi transport engine."""

    def __init__(self, node: RankNode, cluster: Cluster, config: MPIConfig):
        config.validate()
        self.node = node
        self.cluster = cluster
        self.config = config
        self.rank = node.rank
        self.env: Environment = cluster.env
        self.context = node.context
        self.memory = node.memory
        # this rank's counter scope (cluster.counters sums the scopes)
        self.counters = cluster.scope(node.rank)
        self.pd = self.context.alloc_pd()
        depth = cluster.n * (EAGER_CREDITS + PREPOST) * 2 + 256
        self.send_cq = self.context.create_cq(capacity=depth)
        self.recv_cq = self.context.create_cq(capacity=depth)
        #: rung by every CQ push and by whatever settles a request outside
        #: a progress pass; blocking calls park here
        self.doorbell = Signal(self.env)
        self.send_cq.doorbell = self.recv_cq.doorbell = self.doorbell
        #: the receive side of the doorbell (runtime seam 9): this engine
        #: cannot tell the two apart, so it is the doorbell
        self.arrivals = self.doorbell
        self.rcache = RegistrationCache(
            self.context, self.pd, capacity=RCACHE_CAPACITY)
        self.matcher = MatchEngine()
        self.peers: Dict[int, _PeerChannel] = {}
        #: unsettled requests by rid; a request leaves when it settles
        self.live_requests: Dict[int, MPIRequest] = {}
        #: wr_id -> (done, error) of every send WR in flight
        self._ops: Dict[int, Tuple[Callable, Callable]] = {}
        self._wr_seq = itertools.count(1)
        self.slot_size = HDR.size + config.eager_threshold
        self._bounce_mr = None
        node.on_peer_dead.append(self._fail_dead_peer)
        node.on_crash.append(self._on_crash)
        node.on_restart.append(self._on_restart)

    # ------------------------------------------------------------- health
    def _fail_dead_peer(self, rank: int) -> None:
        """The rank's detector declared ``rank`` dead: pending requests
        against it settle now with ``error="peer_dead"`` instead of
        burning their full resend budget (new ones fail at post time)."""
        now = self.env.now
        failed = 0
        for req in list(self.live_requests.values()):
            if req.peer != rank:
                continue
            req.fail(now, error="peer_dead")
            failed += 1
        if failed:
            self.counters.add("mpi.dead_peer_fails", failed)
        # flush pending WRs so their SQ slots don't leak against a peer
        # that will never ack (reliable fabrics never error them)
        ch = self.peers.get(rank)
        if ch is not None and ch.qp.state is QPState.READY:
            ch.qp.teardown()
        # senders blocked on this peer's bounce slots re-check its health
        self.doorbell.fire()

    # ------------------------------------------------------------- crash
    def _on_crash(self) -> None:
        """The rank crashed: its requests, posted and unexpected messages
        and WR callbacks go unsettled (their waiters died with it), and
        every connection is torn down, flushing what it had posted."""
        self.live_requests.clear()
        self._ops.clear()
        self.matcher = MatchEngine()
        for ch in self.peers.values():
            if ch.qp.state is QPState.READY:
                ch.qp.teardown()

    def _on_restart(self):
        """The rank restarted (generator): flush the registration cache
        (its pins died), drop the dead incarnation's completions, and
        re-arm every connection with its full eager window and bounce
        receives."""
        yield from self.rcache.flush()
        while self.send_cq.poll(max_entries=64):
            pass
        for ch in self.peers.values():
            if ch.qp.state is not QPState.READY:
                ch.qp.reset_and_reconnect()
            ch.send_slots = deque(range(
                ch.send_base, ch.send_base + EAGER_CREDITS * self.slot_size,
                self.slot_size))
        wcs = self.recv_cq.poll(max_entries=64)
        while wcs:
            for wc in wcs:
                ch = self.peers[wc.src_rank]
                self._post_bounce(ch, ch.recv_slots.pop(wc.wr_id))
            wcs = self.recv_cq.poll(max_entries=64)

    # ------------------------------------------------------------- bootstrap
    def _alloc_bounce(self) -> None:
        n_peers = self.cluster.n - 1
        total = n_peers * self.slot_size * (EAGER_CREDITS + PREPOST)
        base = self.memory.alloc(max(total, 8), align=64)
        self._bounce_mr = self.context.reg_mr_sync(
            self.pd, base, max(total, 8), Access.ALL)
        self._bounce_cursor = base

    def _wire_peer(self, peer_rank: int, qp: QueuePair) -> None:
        ch = _PeerChannel(qp=qp, send_base=self._bounce_cursor)
        for _ in range(EAGER_CREDITS):
            ch.send_slots.append(self._bounce_cursor)
            self._bounce_cursor += self.slot_size
        for _ in range(PREPOST):
            self._post_bounce(ch, self._bounce_cursor)
            self._bounce_cursor += self.slot_size
        self.peers[peer_rank] = ch

    def _post_bounce(self, ch: _PeerChannel, slot: int) -> None:
        """Post a receive into the bounce ``slot`` on the channel."""
        wr_id = next(self._wr_seq)
        ch.recv_slots[wr_id] = slot
        ch.qp.post_recv(RecvWR(wr_id=wr_id, addr=slot, length=self.slot_size))

    def _peer(self, rank: int) -> _PeerChannel:
        ch = self.peers.get(rank)
        if ch is None:
            raise SimulationError(f"rank {self.rank}: unknown peer {rank}")
        return ch

    # ------------------------------------------------------------- send side
    def isend(self, addr: int, size: int, dst: int, tag: int):
        """Non-blocking send from simulated memory (generator → request)."""
        if size < 0 or tag < 0:
            raise SimulationError("isend needs size >= 0 and tag >= 0")
        req = MPIRequest("send", self.live_requests)
        req.peer = dst
        name = ("mpi.eager_send" if size <= self.config.eager_threshold
                else "mpi.rndv_send")
        req.span = self.counters.span(name, self.env.now, peer=dst,
                                      nbytes=size)
        self.counters.add("mpi.isends")
        health = self.node.health
        if health is not None and dst != self.rank and health.is_dead(dst):
            # fail fast: don't burn the resend budget on a confirmed corpse
            self.counters.add("mpi.dead_peer_fails")
            req.fail(self.env.now, error="peer_dead")
            return req
        yield self.env.timeout(SW_OVERHEAD_NS)
        if dst == self.rank:
            # owned snapshot: a self-send may sit in the unexpected queue
            # while the source buffer is reused
            payload = self.memory.read_bytes(addr, size)
            yield self.env.timeout(self.memory.memcpy_cost_ns(size))
            yield from self._deliver_local(self.rank, tag, payload)
            req.complete(self.env.now)
            return req
        if size <= self.config.eager_threshold:
            yield from self._send_eager(req, addr, size, dst, tag)
        else:
            yield from self._send_rts(req, addr, size, dst, tag)
        return req

    def _acquire_slot(self, ch: _PeerChannel):
        """Take a free send-bounce slot toward the channel's peer, blocking
        while the eager window is full (generator → address, or None when
        the peer was declared dead first: its slots are not coming back)."""
        if not ch.send_slots:
            self.counters.add("mpi.eager_stalls")
            health, rank = self.node.health, ch.qp.remote_rank
            yield from self._wait_until(
                lambda: ch.send_slots
                or (health is not None and health.is_dead(rank)))
            if not ch.send_slots:
                return None
        return ch.send_slots.popleft()

    def _post(self, ch: _PeerChannel, wr: SendWR, done: Callable,
              error: Callable):
        """Post a send WR on the channel: ``done`` or ``error`` runs when
        its completion is reaped (generator)."""
        wr.wr_id = next(self._wr_seq)
        self._ops[wr.wr_id] = (done, error)
        yield from ch.qp.post_send_timed(wr)

    def _send_ctrl(self, ch: _PeerChannel, slot: int, raw: bytes,
                   on_ack: Optional[Callable], give_up: Callable):
        """Stage ``raw`` into ``slot`` and SEND it (generator).

        A SEND the fabric gave up on is staged and sent again after
        ``SW_OVERHEAD_NS`` (the progress engine re-arms the QP first), up
        to ``MAX_OP_RETRIES`` times; after that the slot is returned and
        ``give_up`` fires.
        """

        def done():
            ch.send_slots.append(slot)
            if on_ack is not None:
                on_ack()

        def failed():
            ch.send_slots.append(slot)
            self.counters.add("mpi.ctrl_failures")
            give_up()

        wr = SendWR(opcode=Opcode.SEND, local_addr=slot, length=len(raw))

        def post(on_error):
            self.memory.write(slot, raw)
            yield self.env.timeout(self.memory.memcpy_cost_ns(len(raw)))
            yield from self._post(ch, wr, done, on_error)

        yield from post(Repost(
            ch.qp, post, "mpi.ctrl_resends", budget=MAX_OP_RETRIES,
            delay=lambda k: SW_OVERHEAD_NS, give_up=failed))

    def _send_failed(self, req: MPIRequest) -> None:
        """An eager send or RTS failed past its resends, or the receiver's
        read of a rendezvous payload did: fail its request (a no-op if a
        dead-peer failure settled it first)."""
        self.counters.add("mpi.send_failures")
        req.fail(self.env.now)

    def _send_eager(self, req: MPIRequest, addr: int, size: int, dst: int,
                    tag: int):
        ch = self._peer(dst)
        slot = yield from self._acquire_slot(ch)
        if slot is None:
            req.fail(self.env.now, error="peer_dead")
            return
        payload = self.memory.read(addr, size) if size else b""
        # join (not +) accepts the zero-copy view and snapshots it exactly
        # once, into the owned bytes the resend closures hold on to
        raw = b"".join((HDR.pack(KIND_EAGER, tag, size, req.rid, 0, 0),
                        payload))

        def on_ack():
            # eager completes locally once the bounce copy is on the wire,
            # unless a dead-peer failure settled it first
            if not req.done:
                req.complete(self.env.now)

        yield from self._send_ctrl(ch, slot, raw, on_ack,
                                   partial(self._send_failed, req))
        self.counters.add("mpi.eager_sends")

    def _send_rts(self, req: MPIRequest, addr: int, size: int, dst: int,
                  tag: int):
        ch = self._peer(dst)
        mr = yield from self.rcache.acquire(addr, size)
        # pinned until the receiver fetched + FINed (or the send failed)
        req.on_settle = lambda: self.rcache.release_async(mr)
        slot = yield from self._acquire_slot(ch)
        if slot is None:
            req.fail(self.env.now, error="peer_dead")
            return
        raw = HDR.pack(KIND_RTS, tag, size, req.rid, addr, mr.rkey)
        # a failed advertisement never arrived: no FIN will ever come back
        yield from self._send_ctrl(ch, slot, raw, None,
                                   partial(self._send_failed, req))
        self.counters.add("mpi.rndv_sends")
        # request completes when the FIN arrives

    def _send_fin(self, dst: int, sreq: int, failed: bool = False):
        ch = self._peer(dst)
        slot = yield from self._acquire_slot(ch)
        if slot is None:
            self.counters.add("mpi.fin_failures")
            return
        raw = HDR.pack(KIND_FIN, FIN_FAILED if failed else 0, 0, sreq, 0, 0)
        # a lost FIN is only counted; the sender's request keeps no
        # deadline, so only a dead-peer teardown settles it
        yield from self._send_ctrl(
            ch, slot, raw, None, partial(self.counters.add, "mpi.fin_failures"))

    # ------------------------------------------------------------- recv side
    def irecv(self, addr: int, length: int, src: int, tag: int):
        """Non-blocking receive into simulated memory (generator → request)."""
        req = MPIRequest("recv", self.live_requests)
        req.peer = src
        req.span = self.counters.span("mpi.recv", self.env.now,
                                      peer=src, nbytes=length)
        self.counters.add("mpi.irecvs")
        health = self.node.health
        if (health is not None and src >= 0 and src != self.rank
                and health.is_dead(src)):
            self.counters.add("mpi.dead_peer_fails")
            req.fail(self.env.now, error="peer_dead")
            return req
        yield self.env.timeout(SW_OVERHEAD_NS)
        # check the unexpected queue first (standard MPI behaviour)
        msg = self.matcher.match_posted(src, tag)
        if msg is not None:
            yield from self._satisfy_recv(req, addr, length, msg)
            return req
        self.matcher.post(PostedRecv(request=req, src=src, tag=tag,
                                     addr=addr, length=length))
        return req

    def _satisfy_recv(self, req: MPIRequest, addr: int, length: int,
                      msg: UnexpectedMsg):
        if msg.is_rts:
            posted = PostedRecv(request=req, src=msg.src, tag=msg.tag,
                                addr=addr, length=length)
            yield from self._fetch_rendezvous(posted, msg)
        else:
            if len(msg.payload) > length:
                raise SimulationError(
                    f"rank {self.rank}: eager message of {len(msg.payload)}B "
                    f"truncates {length}B receive (tag {msg.tag})")
            self.memory.write(addr, msg.payload)
            yield self.env.timeout(
                self.memory.memcpy_cost_ns(len(msg.payload)))
            req.status = Status(source=msg.src, tag=msg.tag,
                                count=len(msg.payload))
            req.complete(self.env.now)

    def _fetch_rendezvous(self, posted: PostedRecv, msg: UnexpectedMsg):
        """RGET: read the advertised buffer, then FIN the sender."""
        if msg.size > posted.length:
            raise SimulationError(
                f"rank {self.rank}: rendezvous message of {msg.size}B "
                f"truncates {posted.length}B receive")
        mr = yield from self.rcache.acquire(posted.addr, msg.size)
        req = posted.request
        src, tag, size, sreq = msg.src, msg.tag, msg.size, msg.sreq

        def done():
            self.rcache.release_async(mr)
            req.status = Status(source=src, tag=tag, count=size)
            req.complete(self.env.now)
            self.env.process(self._send_fin(src, sreq), name="mpi:fin")

        def give_up():
            self.rcache.release_async(mr)
            self.counters.add("mpi.recv_failures")
            req.status = Status(source=src, tag=tag, count=0)
            req.fail(self.env.now)
            # the sender's request has no deadline: tell it, so its pin goes
            self.env.process(self._send_fin(src, sreq, failed=True),
                             name="mpi:fin")

        ch = self._peer(src)
        wr = SendWR(opcode=Opcode.RDMA_READ, local_addr=posted.addr,
                    length=size, remote_addr=msg.remote_addr,
                    rkey=msg.remote_key)

        post = partial(self._post, ch, wr, done)
        # RDMA reads are idempotent: a failed one is posted again as is
        yield from post(Repost(
            ch.qp, post, "mpi.fetch_retries", budget=MAX_OP_RETRIES,
            give_up=give_up))
        self.counters.add("mpi.rndv_fetches")

    def _deliver_local(self, src: int, tag: int, payload: bytes):
        """Self-send: goes straight through matching."""
        posted = self.matcher.match_arrival(src, tag)
        if posted is None:
            self.matcher.add_unexpected(
                UnexpectedMsg(src=src, tag=tag, payload=payload))
            self.doorbell.fire()
            return
        if len(payload) > posted.length:
            raise SimulationError("self-send truncates receive")
        self.memory.write(posted.addr, payload)
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(payload)))
        posted.request.status = Status(source=src, tag=tag,
                                       count=len(payload))
        posted.request.complete(self.env.now)
        self.doorbell.fire()

    # ------------------------------------------------------------- progress
    def _reconnect(self, rank: int) -> None:
        ch = self.peers.get(rank)
        if ch is not None and ch.qp.state is QPState.ERROR:
            ch.qp.reset_and_reconnect()
            self.counters.add("mpi.qp_reconnects")

    def _progress_once(self):
        """One polling pass over both CQs (generator, charges time).  A
        pass that found nothing runs its checks at one instant, so parking
        right after it misses no arrival; one that found anything rings
        the doorbell when it ends (see the Photon engine's pass)."""
        env = self.env
        nic = self.cluster.params.nic
        yield env.timeout(PROGRESS_POLL_NS)
        found = False
        for wc in self.send_cq.poll(max_entries=32):
            found = True
            yield env.timeout(nic.cqe_poll_ns)
            done, error = self._ops.pop(wc.wr_id)
            if not wc.ok:
                self.counters.add("mpi.wr_errors")
                self._reconnect(wc.src_rank)
                error()
                continue
            done()
        for wc in self.recv_cq.poll(max_entries=32):
            found = True
            yield env.timeout(nic.cqe_poll_ns)
            if not wc.ok:
                # flushed bounce receive: reclaim the slot and repost once
                # the QP is re-armed
                self.counters.add("mpi.recv_flushes")
                ch = self.peers[wc.src_rank]
                slot = ch.recv_slots.pop(wc.wr_id)
                self._reconnect(wc.src_rank)
                if ch.qp.state is QPState.READY:
                    self._post_bounce(ch, slot)
                continue
            yield from self._on_recv(wc)
        self.counters.add("mpi.progress_passes")
        if found:
            self.doorbell.fire()

    def _on_recv(self, wc):
        yield self.env.timeout(SW_OVERHEAD_NS)
        ch = self._peer(wc.src_rank)
        slot = ch.recv_slots.pop(wc.wr_id)
        raw = self.memory.read(slot, wc.byte_len)
        kind, tag, size, sreq, raddr, rkey = HDR.unpack_from(raw)
        if kind == KIND_EAGER:
            payload = raw[HDR.size:HDR.size + size]
            posted = self.matcher.match_arrival(wc.src_rank, tag)
            if posted is None:
                # copy out of the bounce so it can be reposted
                yield self.env.timeout(self.memory.memcpy_cost_ns(size))
                self.matcher.add_unexpected(UnexpectedMsg(
                    src=wc.src_rank, tag=tag, payload=bytes(payload)))
                self.counters.add("mpi.unexpected")
            else:
                if size > posted.length:
                    raise SimulationError(
                        f"rank {self.rank}: eager message of {size}B "
                        f"truncates {posted.length}B receive (tag {tag})")
                self.memory.write(posted.addr, payload)
                yield self.env.timeout(self.memory.memcpy_cost_ns(size))
                posted.request.status = Status(source=wc.src_rank, tag=tag,
                                               count=size)
                posted.request.complete(self.env.now)
        elif kind == KIND_RTS:
            posted = self.matcher.match_arrival(wc.src_rank, tag)
            msg = UnexpectedMsg(src=wc.src_rank, tag=tag, payload=None,
                                remote_addr=raddr, remote_key=rkey,
                                size=size, sreq=sreq)
            if posted is None:
                self.matcher.add_unexpected(msg)
                self.counters.add("mpi.unexpected_rts")
            else:
                yield from self._fetch_rendezvous(posted, msg)
        elif kind == KIND_FIN:
            sender_req = self.live_requests.get(sreq)
            if sender_req is not None and tag == FIN_FAILED:
                self._send_failed(sender_req)
            elif sender_req is not None:
                sender_req.complete(self.env.now)
        else:
            raise SimulationError(f"bad wire kind {kind}")
        # repost the bounce; the QP may have errored while this receive
        # was being processed (the handler above yields sim time, and a
        # concurrent send failure flips the QP to ERROR) — re-arm it
        # first, as the flushed-receive path does
        self._reconnect(wc.src_rank)
        self._post_bounce(ch, slot)

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        """JSON-serializable engine snapshot (mirrors Endpoint.stats())."""
        return {
            "rank": self.rank,
            "live_requests": len(self.live_requests),
            "posted_recvs": len(self.matcher.posted),
            "unexpected_queued": len(self.matcher.unexpected),
            "unexpected_peak": self.matcher.max_unexpected,
            "send_slots_free": {
                str(r): len(ch.send_slots) for r, ch in self.peers.items()},
            "rcache": self.rcache.occupancy(),
        }

    # ------------------------------------------------------------- waits
    def _wait_until(self, predicate: Callable[[], bool],
                    timeout_ns: Optional[int] = None):
        """Poll progress until ``predicate()`` holds (generator → bool,
        False on timeout)."""
        return (yield from poll_until(self.doorbell, self._progress_once,
                                      predicate, timeout_ns))

    def wait(self, req: MPIRequest, timeout_ns: Optional[int] = None):
        """Block until the request completes (generator → bool)."""
        return (yield from self._wait_until(lambda: req.done, timeout_ns))

    def waitall(self, reqs: List[MPIRequest],
                timeout_ns: Optional[int] = None):
        return (yield from self._wait_until(
            lambda: all(r.done for r in reqs), timeout_ns))

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Progress once; returns a Status if a matching message is queued
        (generator)."""
        yield from self._progress_once()
        msg = self.matcher.peek_unexpected(src, tag)
        if msg is None:
            return None
        count = msg.size if msg.is_rts else len(msg.payload)
        return Status(source=msg.src, tag=msg.tag, count=count)
