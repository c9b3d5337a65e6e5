"""The simulated RDMA-capable NIC.

Each rank owns one :class:`Nic`, with two transmit paths: :meth:`transmit`
(the *requester*: a posted work request is processed by the send engine —
per-WQE cost, optional bulk-engine startup — segmented into chunks,
DMA-fetched and streamed into the route's first link) and :meth:`respond`
(the *responder*: READ responses and atomic replies share the target's
links but bypass its send queue, as on real hardware).

Ingress (:meth:`_ingress`, fed by a route's last link) places data chunks
in memory at once (RDMA: no destination CPU); the last chunk of a message
queues it for the delivery loop, which charges the per-message cost and
fires ``on_delivered`` (the verbs layer's CQEs).  A reliable-connection ack
is the source's ``on_acked`` one return latency later.

Event economy: a message handed to an *idle* engine / responder / delivery
loop wakes it one fixed stage cost (``wqe_process_ns`` / ``delivery_ns``)
later, message in hand, instead of at once to sleep that long; a busy loop
dequeues the message and charges the stage itself (:meth:`Nic._hand_off`).
Lossy-mode recovery is a record and one deadline timer per un-acked
message (:class:`_Arq`), not a process: the transport ack withdraws the
deadline, an expired one re-injects the copies from its own callback, and
a process exists only while copies are parked behind a full first hop.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional

from ..sim.core import Environment
from ..sim.resources import Store
from ..sim.trace import Counters, Tracer
from ..util.units import serialization_ns
from .link import Chunk
from .memory import Memory
from .params import FabricParams
from .topology import Topology

__all__ = ["Nic", "WireMsg"]

#: wire header for request/ack-only messages (no payload), bytes
CTRL_BYTES = 28
#: cap on chunks per message: large transfers are simulated in coarser
#: chunks (wire time is preserved; per-packet headers are accounted
#: proportionally) to bound event count.
MAX_CHUNKS = 64


class WireMsg:
    """One message on the wire, with its placement/notification hooks."""

    __slots__ = ("src", "dst", "nbytes", "kind", "meta", "fetch", "place",
                 "on_delivered", "on_acked", "on_error", "ack", "inline_data",
                 "rx_buffer", "t_injected", "t_delivered",
                 "n_chunks", "rx_offsets", "delivered", "ack_event")

    def __init__(self, src: int, dst: int, nbytes: int, kind: str,
                 fetch: Optional[Callable[[int, int], bytes]] = None,
                 place: Optional[Callable[[int, bytes], None]] = None,
                 on_delivered: Optional[Callable[["Nic", "WireMsg"], None]] = None,
                 on_acked: Optional[Callable[[], None]] = None,
                 on_error: Optional[Callable[[], None]] = None,
                 ack: bool = False,
                 inline_data: Optional[bytes] = None,
                 meta: Optional[Dict] = None):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.kind = kind
        self.meta = meta or {}
        self.fetch = fetch
        self.place = place
        self.on_delivered = on_delivered
        self.on_acked = on_acked
        #: transport gave up on this message (lossy mode, retries exhausted)
        self.on_error = on_error
        self.ack = ack
        self.inline_data = inline_data
        #: buffered payload for messages placed only at delivery time (SEND)
        self.rx_buffer: Optional[List] = None if place else []
        self.t_injected = -1
        self.t_delivered = -1
        # --- lossy-mode end-to-end recovery state ---
        #: chunk count stamped by the sender at segmentation time
        self.n_chunks = 0
        #: chunk offsets seen so far at the receiver (dedup across retries)
        self.rx_offsets = None
        #: receiver delivered this message already (dedups late retransmits)
        self.delivered = False
        #: sender-side ARQ record (:class:`_Arq`); the receiver's
        #: transport-level ack calls its ``ack()``
        self.ack_event = None

    def collect_rx(self) -> bytes:
        """Reassemble buffered chunk payloads (SEND-style messages).

        Chunks are placed by offset into one preallocated buffer, so
        reassembly is O(n) regardless of arrival order — no sort, no
        quadratic ``bytes + bytes`` accumulation.
        """
        if self.rx_buffer is None:
            raise RuntimeError("message was placed directly; nothing buffered")
        if len(self.rx_buffer) == 1 and self.rx_buffer[0][0] == 0:
            return bytes(self.rx_buffer[0][1])
        buf = bytearray(self.nbytes)
        for off, data in self.rx_buffer:
            buf[off:off + len(data)] = data
        return bytes(buf)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WireMsg {self.kind} {self.src}->{self.dst} {self.nbytes}B>"


class _Arq:
    """Lossy-mode ARQ state of one message, held in its ``ack_event`` slot
    and the NIC's live set: await the transport ack, retransmit on timeout,
    fail the message after ``transport_retries`` retransmissions."""

    __slots__ = ("nic", "msg", "chunks", "span", "timeout_ns", "attempt",
                 "acked", "timer", "due")

    def __init__(self, nic: "Nic", msg: WireMsg, chunks: List[Chunk]):
        self.nic, self.msg, self.chunks = nic, msg, chunks
        self.span = nic.counters.span("nic.arq", nic.env.now, peer=msg.dst,
                                      nbytes=msg.nbytes)
        params = nic.params
        total_wire = sum(c.wire_bytes for c in chunks)
        # expected round trip: serialisation (per hop, pipelined ≈ one full
        # serialisation) + forward path latency + return ack latency
        rtt = (serialization_ns(total_wire, params.link.bandwidth_gbps)
               + 2 * nic.topology.path_latency_ns(nic.rank, msg.dst)
               + params.nic.ack_overhead_ns + params.nic.delivery_ns)
        self.timeout_ns = params.nic.ack_timeout_ns + rtt
        self.attempt, self.acked = 0, False
        nic._arqs.add(self)
        self._arm()

    def _arm(self) -> None:
        env = self.nic.env
        self.due = env.now + self.timeout_ns
        self.timer = env.timeout(self.timeout_ns)
        self.timer.callbacks.append(self._expired)

    def ack(self) -> None:
        """The transport ack landed: withdraw the deadline.  With none
        armed the record is finished, or its copies are still parked on the
        first hop: they go out first."""
        self.acked = True
        if self.timer is not None:
            self.nic.env.unschedule(self.timer, self.due)
            self._finish()

    def _finish(self, status: str = "ok") -> None:
        nic = self.nic
        self.timer = None
        nic._arqs.discard(self)
        # a NIC that is down says nothing: the crashed rank's state is gone
        if self.span is not None and not nic.down:
            self.span.end(nic.env.now, status, retries=self.attempt)

    def _expired(self, _ev) -> None:
        nic, msg = self.nic, self.msg
        if nic.down:
            return self._finish()  # silently: no retransmit, no on_error
        nic.counters.add("nic.ack_timeouts")
        if self.attempt == nic.params.nic.transport_retries:
            nic.counters.add("nic.retry_exhausted")
            self._finish("exhausted")
            nic.tracer.log(nic.env.now, "nic.retry_exhausted", src=nic.rank,
                           dst=msg.dst, kind=msg.kind, nbytes=msg.nbytes)
            if msg.on_error is not None:
                msg.on_error()
            return
        nic.counters.add("nic.retransmits")
        self.timer = None
        # run the re-injection here up to a full first hop, if it meets
        # one; only then does a process park on it for the rest
        copies = self._reinject()
        parked = next(copies, None)
        if parked is not None:
            nic.env.process(_after(parked, copies), name=f"nic{nic.rank}:arq")

    def _reinject(self):
        """Go-back-N: fresh copies of every chunk (retransmitted from the
        NIC's retry buffer — no new DMA fetch), then the next deadline,
        unless a crash dropped the record or the ack landed meanwhile."""
        inbox = self.chunks[0].path[0].inbox
        for c in self.chunks:
            copy = Chunk(self.msg, c.offset, c.size, c.wire_bytes,
                         c.is_first, c.is_last, c.path)
            copy.data = c.data
            if not inbox.try_put(copy):
                yield inbox.put(copy)
        self.attempt += 1
        if self not in self.nic._arqs:
            return
        if self.acked:
            self._finish()
        else:
            self._arm()


def _after(event, rest):
    yield event
    yield from rest


class _Train:
    """A message's DMA fetches booked on its first hop at their ends
    (``ats``) and the one wake of its loop.  A withdrawn booking cuts it
    (``cut``): the wake moves to that fetch end, the rest stream singly."""

    __slots__ = ("env", "chunks", "ats", "cut", "wake")

    def __init__(self, env: Environment, chunks: List[Chunk]):
        self.env, self.chunks, self.ats, self.cut = env, chunks, [], 0

    def sleep(self):
        self.cut = len(self.ats)
        self.wake = self.env.timeout(self.ats[-1] - self.env.now)
        return self.wake

    def take_back(self, chunk: Chunk, _at: int, _up) -> None:
        k, env = self.chunks.index(chunk), self.env
        if k >= self.cut:
            return
        if self.wake.processed:  # chaos at the last fetch end, after it
            return chunk.path[0].put_discard(chunk)
        # the same timer, re-armed: the loop is parked on it
        env.unschedule(self.wake, self.ats[min(self.cut, len(self.ats) - 1)])
        self.cut = k
        env._schedule(self.wake, self.ats[k] - env.now)


class Nic:
    """Simulated NIC for one rank (see module docstring)."""

    def __init__(self, env: Environment, rank: int, params: FabricParams,
                 memory: Memory, topology: Topology,
                 counters: Optional[Counters] = None,
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.rank = rank
        self.params = params
        self.memory = memory
        self.topology = topology
        self.counters = counters or Counters()
        self.tracer = tracer or Tracer()
        #: fault injection was armed at build time: lossy-mode bookkeeping
        #: (offsets, ARQ records) stays on if the drop rate later falls to 0
        self._fault_armed = params.link.drop_rate > 0.0
        #: crash injection: a downed NIC drops all ingress, discards queued
        #: work, suppresses acks and drops its ARQ records
        self.down = False
        #: ARQ records of un-acked lossy-mode messages
        self._arqs: set = set()
        topology.attach(rank, self._ingress)

        self._engine_q: Store = Store(env)
        self._responder_q: Store = Store(env)
        self._rx_q: Store = Store(env)
        env.process(self._stage_loop(self._engine_q, True),
                    name=f"nic{rank}:engine")
        env.process(self._stage_loop(self._responder_q, False),
                    name=f"nic{rank}:responder")
        env.process(self._delivery_loop(), name=f"nic{rank}:delivery")

    # ------------------------------------------------------------ crash power
    def power_off(self) -> None:
        """Crash injection: queued work and ARQ records vanish (no callback,
        retransmit or ``on_error`` — a host crash as its peers see it); what
        is on the wire still arrives, and is discarded at ingress."""
        self.down = True
        self._engine_q.items.clear()
        self._responder_q.items.clear()
        self._rx_q.items.clear()
        for arq in self._arqs:
            if arq.timer is not None:
                self.env.unschedule(arq.timer, arq.due)
                arq.timer = None
        self._arqs.clear()
        self.counters.add("nic.power_off")
        self.tracer.log(self.env.now, "nic.power_off", rank=self.rank)

    def power_on(self) -> None:
        self.down = False
        self.counters.add("nic.power_on")
        self.tracer.log(self.env.now, "nic.power_on", rank=self.rank)

    # ------------------------------------------------------------------ egress
    def transmit(self, msg: WireMsg) -> None:
        """Queue a message on the requester send engine (post costs are
        charged by the caller before calling this)."""
        self.counters.add("nic.tx_msgs")
        self._hand_off(self._engine_q, msg, self.params.nic.wqe_process_ns)

    def respond(self, msg: WireMsg) -> None:
        """Queue a message on the responder pipeline (READ data, atomic
        replies) — does not consume a send-queue slot."""
        self.counters.add("nic.resp_msgs")
        self._hand_off(self._responder_q, msg, self.params.nic.wqe_process_ns)

    def _hand_off(self, stage_q: Store, msg: WireMsg, stage_ns: int) -> None:
        """An idle stage loop is woken ``stage_ns`` from now, message in
        hand and stage cost pre-charged, with ``down`` checked here — the
        instant the loop used to wake; a busy loop dequeues the message
        later, then checks ``down`` and charges the stage itself."""
        if not (self.down and stage_q.waiting):
            stage_q.put_nowait(msg, stage_ns)

    def _stage_loop(self, stage_q: Store, engine: bool):
        """The send engine (``engine``: with the bulk engine's startup) or
        the responder: take a message, charge its stage, stream it."""
        nic = self.params.nic
        while True:
            # work already queued: skip the StoreGet event; woken by a
            # hand-off: the per-WQE cost is already paid (see _hand_off)
            msg: WireMsg = stage_q.try_get()
            if msg is None:
                msg = yield stage_q.get()
            elif self.down:
                continue
            else:
                yield self.env.timeout(nic.wqe_process_ns)
            if (engine and nic.bulk_threshold is not None
                    and msg.nbytes > nic.bulk_threshold):
                yield self.env.timeout(nic.bulk_startup_ns)
                self.counters.add("nic.bulk_engine_msgs")
            yield from self._stream(msg)

    def _segment(self, msg: WireMsg, path) -> List[Chunk]:
        link = self.params.link
        if msg.nbytes == 0:
            return [Chunk(msg, 0, 0, CTRL_BYTES, True, True, path)]
        chunk_size = link.mtu
        n_chunks = math.ceil(msg.nbytes / chunk_size)
        if n_chunks > MAX_CHUNKS:
            chunk_size = link.mtu * math.ceil(msg.nbytes / (link.mtu * MAX_CHUNKS))
            n_chunks = math.ceil(msg.nbytes / chunk_size)
        chunks = []
        for i in range(n_chunks):
            off = i * chunk_size
            size = min(chunk_size, msg.nbytes - off)
            wire = size + link.header_bytes * math.ceil(size / link.mtu)
            chunks.append(Chunk(msg, off, size, wire,
                                i == 0, i == n_chunks - 1, path))
        return chunks

    def _stream(self, msg: WireMsg):
        """Fetch + inject all chunks of one message (runs in engine ctx).
        Its bytes are read when the stream starts (a source modified before
        local completion is undefined); a multi-chunk one fetched by DMA is
        a :class:`_Train` up to the first fetch the first hop will not book,
        then one fetch sleep per chunk."""
        if msg.dst == self.rank:
            yield from self._loopback(msg)
            return
        nic = self.params.nic
        env = self.env
        path = self.topology.path(self.rank, msg.dst)
        msg.t_injected = env.now
        link = self.topology.link_params
        lossy = (link.loss_mode == "lossy"
                 and (self._fault_armed or link.drop_rate > 0.0))
        inline = (msg.inline_data is not None
                  and msg.nbytes <= nic.max_inline)
        chunks = self._segment(msg, path)
        msg.n_chunks = len(chunks)
        inbox = path[0].inbox
        if lossy:
            msg.rx_offsets = set()
        # slicing a memoryview is zero-copy; inline_data is an owned
        # snapshot (captured at post time), so views of it are stable
        src = (memoryview(msg.inline_data)
               if msg.inline_data is not None and len(chunks) > 1
               else msg.inline_data)
        for chunk in chunks:
            if chunk.size > 0 and src is not None:
                chunk.data = src[chunk.offset:chunk.offset + chunk.size]
            elif chunk.size > 0 and msg.fetch is not None:
                chunk.data = msg.fetch(chunk.offset, chunk.size)
            self.counters.add("nic.tx_bytes", chunk.size)
        # data captured at post time but too big for true inline still
        # pays the DMA fetch
        fetched = inline or (src is None and msg.fetch is None)
        first = booked = 0
        if len(chunks) > 1 and not fetched:
            train, at = _Train(env, chunks), env.now
            for chunk in chunks:
                at += serialization_ns(chunk.size, nic.dma_gbps)
                if inbox.reserve(chunk, at, train) is None:
                    break
                train.ats.append(at)
            if train.ats:
                yield train.sleep()
            first, booked = train.cut, len(train.ats)
        for i in range(first, len(chunks)):
            chunk = chunks[i]
            # a chunk a cut withdrew first has its fetch behind it
            if not fetched and not first == i < booked:
                yield env.timeout(serialization_ns(chunk.size, nic.dma_gbps))
            # fast path: room in the first hop's queue — admit without a
            # kernel event; fall back to a parked put for backpressure
            if not inbox.try_put(chunk):
                yield inbox.put(chunk)
        if lossy:
            # end-to-end recovery runs beside the engine so one un-acked
            # message never serialises the whole send pipeline
            msg.ack_event = _Arq(self, msg, chunks)
        self.tracer.log(self.env.now, "nic.tx", src=self.rank, dst=msg.dst,
                        kind=msg.kind, nbytes=msg.nbytes)

    def _loopback(self, msg: WireMsg):
        """Same-rank transfer: memory copy through the DMA engines."""
        nic = self.params.nic
        cost = serialization_ns(msg.nbytes, nic.dma_gbps) + nic.delivery_ns
        yield self.env.timeout(cost)
        data = b""
        if msg.nbytes:
            if msg.inline_data is not None:
                data = msg.inline_data
            elif msg.fetch is not None:
                data = msg.fetch(0, msg.nbytes)
        if msg.place is not None and msg.nbytes:
            msg.place(0, data)
        elif msg.rx_buffer is not None and msg.nbytes:
            msg.rx_buffer.append((0, data))
        msg.t_delivered = self.env.now
        self.counters.add("nic.loopback_msgs")
        if msg.on_delivered is not None:
            msg.on_delivered(self, msg)
        if msg.ack and msg.on_acked is not None:
            msg.on_acked()

    # ------------------------------------------------------------------ ingress
    def _ingress(self, chunk: Chunk) -> None:
        if self.down:
            self.counters.add("nic.down_drops")
            return
        msg = chunk.msg
        if msg.rx_offsets is not None:
            # lossy mode: chunks can be lost or (after a spurious timeout)
            # duplicated — track offsets, deliver once when all are present
            if msg.delivered or chunk.offset in msg.rx_offsets:
                self.counters.add("nic.dup_chunks")
                return
            msg.rx_offsets.add(chunk.offset)
        if chunk.size > 0:
            if msg.place is not None:
                msg.place(chunk.offset, chunk.data)
            else:
                msg.rx_buffer.append((chunk.offset, chunk.data))
        self.counters.add("nic.rx_bytes", chunk.size)
        if msg.rx_offsets is not None:
            if len(msg.rx_offsets) == msg.n_chunks:
                msg.delivered = True
                delay = (self.topology.path_latency_ns(self.rank, msg.src)
                         + self.params.nic.ack_overhead_ns)
                dt = self.env.timeout(delay)
                dt.callbacks.append(partial(self._transport_ack_fire, msg))
                self._rx_q.put_nowait(msg, self.params.nic.delivery_ns)
        elif chunk.is_last:
            self._rx_q.put_nowait(msg, self.params.nic.delivery_ns)

    def _transport_ack_fire(self, msg: WireMsg, _ev) -> None:
        """Lossy mode: tell the sender's ARQ record the message landed.
        Acks ride a reliable control channel (as link-level credits do on
        real fabrics): only data chunks are lost."""
        if self.down or not self.topology.reachable(self.rank, msg.src):
            return
        if msg.ack_event is not None:
            msg.ack_event.ack()

    def _delivery_loop(self):
        nic = self.params.nic
        rx_q = self._rx_q
        while True:
            msg: WireMsg = rx_q.try_get()
            if msg is None:
                msg = yield rx_q.get()
            elif self.down:
                continue
            else:
                yield self.env.timeout(nic.delivery_ns)
            msg.t_delivered = self.env.now
            self.counters.add("nic.rx_msgs")
            self.tracer.log(self.env.now, "nic.rx", src=msg.src,
                            dst=self.rank, kind=msg.kind, nbytes=msg.nbytes)
            if msg.on_delivered is not None:
                msg.on_delivered(self, msg)
            if msg.ack and msg.on_acked is not None:
                # raw timer callback: cheaper than spawning an ack process
                delay = (self.topology.path_latency_ns(self.rank, msg.src)
                         + nic.ack_overhead_ns)
                dt = self.env.timeout(delay)
                dt.callbacks.append(partial(self._ack_fire, msg))

    def _ack_fire(self, msg: WireMsg, _ev) -> None:
        if self.down or not self.topology.reachable(self.rank, msg.src):
            return
        msg.on_acked()
