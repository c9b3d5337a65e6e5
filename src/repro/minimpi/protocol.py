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
  request.  One and a half round trips of control traffic that Photon's
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
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..cluster import Cluster, RankNode
from ..photon.rcache import RegistrationCache
from ..sim.core import Environment, SimulationError
from ..sim.resources import Signal, poll_until
from ..verbs.enums import Access, Opcode, QPState
from ..verbs.qp import QueuePair, RecvWR, SendWR
from .matching import MatchEngine, PostedRecv, UnexpectedMsg
from .status import ANY_SOURCE, ANY_TAG, MPIConfig, Status

__all__ = ["Engine", "MPIRequest", "HDR"]

# kind(q) tag(q) size(q) sreq(q) addr(q) rkey(q)
HDR = struct.Struct("<qqqqqq")
KIND_EAGER = 1
KIND_RTS = 2
KIND_FIN = 3


class MPIRequest:
    """Handle for a non-blocking operation."""

    __slots__ = ("rid", "kind", "peer", "done", "status", "t_posted",
                 "t_completed", "error", "on_settle", "span")
    _ids = itertools.count(1)

    def __init__(self, kind: str, now: int):
        self.rid = next(MPIRequest._ids)
        self.kind = kind
        #: destination (sends) or expected source (receives); -1 wildcard
        self.peer = -1
        self.done = False
        self.status = Status()
        self.t_posted = now
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("failed" if self.failed
                 else "done" if self.done else "pending")
        return f"<MPIRequest {self.rid} {self.kind} {state}>"


@dataclass
class _PeerChannel:
    """Per-peer transport state."""

    qp: QueuePair
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
        # this rank's counter scope: writes mirror into cluster.counters
        self.counters = cluster.scope(node.rank)
        self.pd = self.context.alloc_pd()
        depth = cluster.n * (config.eager_credits + config.prepost) * 2 + 256
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
            self.context, self.pd, capacity=config.rcache_capacity,
            enabled=config.rcache_enabled,
            max_pinned_bytes=config.rcache_max_pinned_bytes)
        self.matcher = MatchEngine()
        self.peers: Dict[int, _PeerChannel] = {}
        self.live_requests: Dict[int, MPIRequest] = {}
        self._ops: Dict[int, Callable] = {}
        #: error handlers by wr_id (retry closures, request failure)
        self._op_errors: Dict[int, Callable] = {}
        self._wr_seq = itertools.count(1)
        self.slot_size = HDR.size + config.eager_threshold
        self._bounce_mr = None
        #: failure-detector handle (None unless attach_health was called)
        self.health = None
        # deferred self-messages (no wire)
        self._self_queue: Deque[Tuple[int, bytes]] = deque()

    # ------------------------------------------------------------- health
    def attach_health(self, monitor) -> None:
        """Consume a failure detector: pending requests against a peer
        declared dead settle immediately with ``error="peer_dead"``
        instead of burning their full resend budget, and new requests
        toward a dead peer fail fast at post time."""
        self.health = monitor
        monitor.on_dead(self._fail_dead_peer)

    def _fail_dead_peer(self, rank: int) -> None:
        now = self.env.now
        failed = 0
        for req in list(self.live_requests.values()):
            if req.done or req.peer != rank:
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

    # ------------------------------------------------------------- bootstrap
    def _alloc_bounce(self) -> None:
        n_peers = self.cluster.n - 1
        c = self.config
        total = n_peers * self.slot_size * (c.eager_credits + c.prepost)
        base = self.memory.alloc(max(total, 8), align=64)
        self._bounce_mr = self.context.reg_mr_sync(
            self.pd, base, max(total, 8), Access.ALL)
        self._bounce_cursor = base

    def _wire_peer(self, peer_rank: int, qp: QueuePair) -> None:
        c = self.config
        ch = _PeerChannel(qp=qp)
        for _ in range(c.eager_credits):
            ch.send_slots.append(self._bounce_cursor)
            self._bounce_cursor += self.slot_size
        for _ in range(c.prepost):
            wr_id = next(self._wr_seq)
            addr = self._bounce_cursor
            self._bounce_cursor += self.slot_size
            ch.recv_slots[wr_id] = addr
            qp.post_recv(RecvWR(wr_id=wr_id, addr=addr,
                                length=self.slot_size))
        self.peers[peer_rank] = ch

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
        req = MPIRequest("send", self.env.now)
        req.peer = dst
        name = ("mpi.eager_send" if size <= self.config.eager_threshold
                else "mpi.rndv_send")
        req.span = self.counters.span(name, self.env.now, peer=dst,
                                      nbytes=size)
        self.live_requests[req.rid] = req
        self.counters.add("mpi.isends")
        if (self.health is not None and dst != self.rank
                and self.health.is_dead(dst)):
            # fail fast: don't burn the resend budget on a confirmed corpse
            self.counters.add("mpi.dead_peer_fails")
            req.fail(self.env.now, error="peer_dead")
            return req
        yield self.env.timeout(self.config.sw_overhead_ns)
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
            health, rank = self.health, ch.qp.remote_rank
            yield from self._wait_until(
                lambda: ch.send_slots
                or (health is not None and health.is_dead(rank)))
            if not ch.send_slots:
                return None
        return ch.send_slots.popleft()

    def _send_ctrl(self, ch: _PeerChannel, slot: int, raw: bytes,
                   on_ack: Optional[Callable],
                   on_fail: Optional[Callable] = None,
                   attempt: int = 0) -> "generator":
        """Stage ``raw`` into ``slot`` and SEND it (generator).

        A SEND the fabric gave up on is replayed (the QP is re-armed by
        the progress engine first) up to ``max_op_retries`` extra times;
        after that the slot is returned and ``on_fail`` fires.
        """
        self.memory.write(slot, raw)
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(raw)))
        wr_id = next(self._wr_seq)

        def done():
            ch.send_slots.append(slot)
            if on_ack is not None:
                on_ack()

        def error():
            if attempt < self.config.max_op_retries:
                self.counters.add("mpi.ctrl_resends")
                self.env.process(
                    self._resend_ctrl(ch, slot, raw, on_ack, on_fail,
                                      attempt + 1),
                    name="mpi:ctrl-resend")
            else:
                ch.send_slots.append(slot)
                self.counters.add("mpi.ctrl_failures")
                if on_fail is not None:
                    on_fail()

        self._ops[wr_id] = done
        self._op_errors[wr_id] = error
        wr = SendWR(opcode=Opcode.SEND, wr_id=wr_id, local_addr=slot,
                    length=len(raw))
        yield from ch.qp.post_send_timed(wr)

    def _resend_ctrl(self, ch: _PeerChannel, slot: int, raw: bytes,
                     on_ack: Optional[Callable], on_fail: Optional[Callable],
                     attempt: int):
        yield self.env.timeout(self.config.sw_overhead_ns)
        yield from self._send_ctrl(ch, slot, raw, on_ack, on_fail, attempt)

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
        # eager completes locally once the bounce copy is on the wire
        rid = req.rid

        def on_ack():
            self.live_requests[rid].complete(self.env.now)

        def on_fail():
            self.counters.add("mpi.send_failures")
            failed = self.live_requests.get(rid)
            if failed is not None:
                failed.fail(self.env.now)

        yield from self._send_ctrl(ch, slot, raw, on_ack, on_fail)
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
        rid = req.rid

        def on_fail():
            # the advertisement never arrived: no FIN will ever come back
            self.counters.add("mpi.send_failures")
            failed = self.live_requests.get(rid)
            if failed is not None:
                failed.fail(self.env.now)

        yield from self._send_ctrl(ch, slot, raw, None, on_fail)
        self.counters.add("mpi.rndv_sends")
        # request completes when the FIN arrives

    def _send_fin(self, dst: int, sreq: int):
        ch = self._peer(dst)
        slot = yield from self._acquire_slot(ch)
        if slot is None:
            self.counters.add("mpi.fin_failures")
            return
        raw = HDR.pack(KIND_FIN, 0, 0, sreq, 0, 0)

        def on_fail():
            # the sender's request will settle via its own deadline/teardown;
            # all we can do here is record the loss
            self.counters.add("mpi.fin_failures")

        yield from self._send_ctrl(ch, slot, raw, None, on_fail)

    # ------------------------------------------------------------- recv side
    def irecv(self, addr: int, length: int, src: int, tag: int):
        """Non-blocking receive into simulated memory (generator → request)."""
        req = MPIRequest("recv", self.env.now)
        req.peer = src
        req.span = self.counters.span("mpi.recv", self.env.now,
                                      peer=src, nbytes=length)
        self.live_requests[req.rid] = req
        self.counters.add("mpi.irecvs")
        if (self.health is not None and src >= 0 and src != self.rank
                and self.health.is_dead(src)):
            self.counters.add("mpi.dead_peer_fails")
            req.fail(self.env.now, error="peer_dead")
            return req
        yield self.env.timeout(self.config.sw_overhead_ns)
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
        state = {"attempts": 0}

        def done():
            self.rcache.release_async(mr)
            req.status = Status(source=src, tag=tag, count=size)
            req.complete(self.env.now)
            self.env.process(self._send_fin(src, sreq), name="mpi:fin")

        def error():
            # RDMA reads are idempotent — repost the same fetch
            if state["attempts"] < self.config.max_op_retries:
                state["attempts"] += 1
                self.counters.add("mpi.fetch_retries")
                self.env.process(post_once(), name="mpi:refetch")
            else:
                self.rcache.release_async(mr)
                self.counters.add("mpi.recv_failures")
                req.status = Status(source=src, tag=tag, count=0)
                req.fail(self.env.now)

        def post_once():
            wr_id = next(self._wr_seq)
            self._ops[wr_id] = done
            self._op_errors[wr_id] = error
            ch = self._peer(src)
            wr = SendWR(opcode=Opcode.RDMA_READ, wr_id=wr_id,
                        local_addr=posted.addr, length=size,
                        remote_addr=msg.remote_addr, rkey=msg.remote_key)
            yield from ch.qp.post_send_timed(wr)

        yield from post_once()
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
        yield env.timeout(self.config.progress_poll_ns)
        found = False
        for wc in self.send_cq.poll(max_entries=32):
            found = True
            yield env.timeout(nic.cqe_poll_ns)
            cb = self._ops.pop(wc.wr_id, None)
            ecb = self._op_errors.pop(wc.wr_id, None)
            if not wc.ok:
                self.counters.add("mpi.wr_errors")
                self._reconnect(wc.src_rank)
                if ecb is not None:
                    ecb()
                continue
            if cb is not None:
                cb()
        for wc in self.recv_cq.poll(max_entries=32):
            found = True
            yield env.timeout(nic.cqe_poll_ns)
            if not wc.ok:
                # flushed bounce receive: reclaim the slot and repost once
                # the QP is re-armed
                self.counters.add("mpi.recv_flushes")
                ch = self.peers.get(wc.src_rank)
                slot = (ch.recv_slots.pop(wc.wr_id, None)
                        if ch is not None else None)
                self._reconnect(wc.src_rank)
                if (ch is not None and slot is not None
                        and ch.qp.state is QPState.READY):
                    new_id = next(self._wr_seq)
                    ch.recv_slots[new_id] = slot
                    ch.qp.post_recv(RecvWR(wr_id=new_id, addr=slot,
                                           length=self.slot_size))
                continue
            yield from self._on_recv(wc)
        self.counters.add("mpi.progress_passes")
        if found:
            self.doorbell.fire()

    def _on_recv(self, wc):
        yield self.env.timeout(self.config.sw_overhead_ns)
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
            if sender_req is not None and not sender_req.done:
                sender_req.complete(self.env.now)
        else:
            raise SimulationError(f"bad wire kind {kind}")
        # repost the bounce; the QP may have errored while this receive
        # was being processed (the handler above yields sim time, and a
        # concurrent send failure flips the QP to ERROR) — re-arm it
        # first, as the flushed-receive path does
        self._reconnect(wc.src_rank)
        new_id = next(self._wr_seq)
        ch.recv_slots[new_id] = slot
        ch.qp.post_recv(RecvWR(wr_id=new_id, addr=slot,
                               length=self.slot_size))

    # ------------------------------------------------------------- telemetry
    def stats(self) -> Dict[str, object]:
        """JSON-serializable engine snapshot (mirrors Endpoint.stats())."""
        return {
            "rank": self.rank,
            "live_requests": len(self.live_requests),
            "pending_requests": sum(1 for r in self.live_requests.values()
                                    if not r.done),
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
        ok = yield from self._wait_until(lambda: req.done, timeout_ns)
        if ok:
            self.live_requests.pop(req.rid, None)
        return ok

    def waitall(self, reqs: List[MPIRequest],
                timeout_ns: Optional[int] = None):
        ok = yield from self._wait_until(
            lambda: all(r.done for r in reqs), timeout_ns)
        if ok:
            for r in reqs:
                self.live_requests.pop(r.rid, None)
        return ok

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Progress once; returns a Status if a matching message is queued
        (generator)."""
        yield from self._progress_once()
        msg = self.matcher.peek_unexpected(src, tag)
        if msg is None:
            return None
        count = msg.size if msg.is_rts else len(msg.payload)
        return Status(source=msg.src, tag=msg.tag, count=count)

    def probe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              timeout_ns: Optional[int] = None):
        """Block until a matching message can be received (generator)."""
        ok = yield from self._wait_until(
            lambda: self.matcher.peek_unexpected(src, tag) is not None,
            timeout_ns)
        if not ok:
            return None
        msg = self.matcher.peek_unexpected(src, tag)
        count = msg.size if msg.is_rts else len(msg.payload)
        return Status(source=msg.src, tag=msg.tag, count=count)
