"""Directed links and the chunk pipeline.

A :class:`Link` is a directed pipe with finite bandwidth, fixed latency and
a small input queue.  Messages are segmented by the NIC into :class:`Chunk`
objects (≈ MTU-sized packets); each link runs a server process that
serialises chunks at link bandwidth and forwards them after the propagation
latency.  Because every link buffers and serialises independently, chunks
pipeline across multi-hop paths (cut-through behaviour) and contention on a
shared hop (e.g. the destination's downlink during an incast) emerges
naturally from queueing.

Event economy: one server loop with one branch.  While neither a drop
stream (``rng``) nor chaos is armed it drains a whole back-to-back burst of
queued chunks in one go; per-chunk exit times are reconstructed
arithmetically (chunk *i* finishes at ``t0 + ser_1 + ... + ser_i``) and
each delivery is a single raw timer callback instead of a spawned process.
The inbox's occupancy semantics are preserved exactly via
:meth:`~repro.sim.resources.Store.add_holds` — a producer blocked on a full
queue is admitted at the same simulated instant as under per-chunk
draining.  With chaos/gray modes or a drop rate armed the same loop serves
the one chunk it admitted, which keeps RNG draw order and drop points
identical to the historical model.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from ..sim.core import Environment
from ..sim.resources import Store
from ..sim.trace import Counters
from ..util.units import serialization_ns
from .params import LinkParams

__all__ = ["Chunk", "Link", "LinkChaos"]


class LinkChaos:
    """Gray-failure state armed on a link by the chaos controller.

    A link with chaos armed is still *alive* (unless ``up`` is False):
    it serialises and propagates chunks, just worse — higher latency,
    a fraction of its bandwidth, jittered propagation.  Each mode draws
    from its own RNG stream (``rng``, used only for jitter), so arming
    one mode never perturbs draws consumed by another link or mode.
    """

    __slots__ = ("up", "latency_add_ns", "bw_scale", "jitter_ns", "rng")

    def __init__(self, up: bool = True, latency_add_ns: int = 0,
                 bw_scale: float = 1.0, jitter_ns: int = 0, rng=None):
        self.up = up
        self.latency_add_ns = int(latency_add_ns)
        self.bw_scale = float(bw_scale)
        self.jitter_ns = int(jitter_ns)
        self.rng = rng

    def is_neutral(self) -> bool:
        return (self.up and self.latency_add_ns == 0
                and self.bw_scale == 1.0 and self.jitter_ns == 0)


class Chunk:
    """One packet of a wire message traversing a path of links."""

    __slots__ = ("msg", "offset", "size", "wire_bytes", "is_first", "is_last",
                 "path", "hop", "data")

    def __init__(self, msg, offset: int, size: int, wire_bytes: int,
                 is_first: bool, is_last: bool, path: List["Link"]):
        self.msg = msg
        self.offset = offset
        self.size = size
        self.wire_bytes = wire_bytes
        self.is_first = is_first
        self.is_last = is_last
        self.path = path
        self.hop = 0
        #: actual payload bytes (filled by the sender's DMA fetch)
        self.data: bytes = b""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Chunk off={self.offset} size={self.size} "
                f"hop={self.hop}/{len(self.path)}>")


class Link:
    """One directed link with its own serialisation server.

    ``deliver`` on the last hop hands the chunk to the destination NIC's
    ingress handler (set via :meth:`Link.__init__`'s sink or chunk path
    construction by the topology).
    """

    def __init__(self, env: Environment, params: LinkParams, name: str,
                 counters: Optional[Counters] = None, queue_depth: int = 16,
                 extra_latency_ns: int = 0, rng=None):
        self.env = env
        self.params = params
        self.name = name
        self.counters = counters or Counters()
        self.latency_ns = params.latency_ns + extra_latency_ns
        #: deterministic fault stream (set by the topology when the link
        #: parameters specify a non-zero drop_rate)
        self.rng = rng
        #: gray-failure state (None until a chaos controller arms it);
        #: checked with a plain ``is not None`` so unarmed runs draw no
        #: extra RNG values and take no extra simulated time
        self.chaos: Optional[LinkChaos] = None
        self.inbox: Store = Store(env, capacity=queue_depth)
        #: called with the chunk when it exits this link *and* this link is
        #: the last hop of the chunk's path; set by the topology.
        self.sink: Optional[Callable[[Chunk], None]] = None
        self._busy_ns = 0
        # per-link tallies (the counters above are fabric-wide)
        self._chunks = 0
        self._bytes = 0
        self._drops = 0
        env.process(self._server(), name=f"link:{name}")

    def arm_chaos(self, chaos: Optional[LinkChaos]) -> None:
        """Install (or clear, with ``None``) gray-failure state."""
        self.chaos = None if chaos is not None and chaos.is_neutral() \
            else chaos

    def occupancy_ns(self) -> int:
        """Total time this link spent serialising (utilisation numerator)."""
        return self._busy_ns

    def stats(self) -> dict:
        """JSON-serializable per-link tallies (fabric section of reports)."""
        return {"name": self.name, "chunks": self._chunks,
                "bytes": self._bytes, "drops": self._drops,
                "busy_ns": self._busy_ns, "latency_ns": self.latency_ns}

    def _server(self):
        env = self.env
        inbox = self.inbox
        items = inbox.items
        inbox_get = inbox.get
        try_get = inbox.try_get
        timeout = env.timeout
        counters = self.counters
        # ``params`` is a frozen dataclass, but fault-injection harnesses
        # hack ``drop_rate`` mid-run via object.__setattr__ to heal the
        # fabric — so the drop knobs are re-read per chunk; only the truly
        # invariant lookups (queue, counters, bandwidth, RNG) are hoisted.
        params = self.params
        bw0 = params.bandwidth_gbps
        lat = self.latency_ns
        deliver = self._deliver
        bounded = inbox.capacity is not None
        # ``rng`` is assigned once at construction (only when the link was
        # built with a non-zero drop_rate).  A link that has one serves
        # chunk by chunk for good, and admits each through a StoreGet event,
        # so its draw order and event order never depend on queue depth.
        rng_random = None if self.rng is None else self.rng.random
        # ``end`` is the wire's virtually-committed busy-until time: the
        # burst drain never sleeps through a serialisation, it just extends
        # the schedule arithmetically and arms one delivery timer per chunk.
        end = 0
        while True:
            if inbox._put_queue and end > env.now:
                # saturated queue: a parked producer must be admitted
                # exactly when the wire schedule frees its slot, so fall
                # back to per-chunk cadence until the backlog clears
                yield timeout(end - env.now)
            chunk: Chunk = try_get() if rng_random is None else None
            if chunk is None:
                chunk = yield inbox_get()
            chaos = self.chaos
            if chaos is None and rng_random is None:
                now = env.now
                if items and not inbox._put_queue:
                    # back-to-back burst: drain it in one go (no per-item
                    # StoreGet events)
                    burst = [chunk]
                    burst.extend(items)
                    items.clear()
                else:
                    burst = (chunk,)
                # Chunk i starts serialising when the wire frees up and
                # exits at start + ser_i; delivery at exit + latency via one
                # raw timer callback (no per-chunk process or serialisation
                # sleep).
                t = start0 = end if end > now else now
                nbytes = 0
                holds = None
                for c in burst:
                    if t > now and bounded:
                        # occupancy contract: under one-at-a-time serving
                        # this chunk would leave the queue only at its
                        # serialisation start — keep its slot virtually
                        # occupied until then
                        if holds is None:
                            holds = [t]
                        else:
                            holds.append(t)
                    t += serialization_ns(c.wire_bytes, bw0)
                    nbytes += c.wire_bytes
                    dt = timeout(t + lat - now)
                    dt.callbacks.append(partial(deliver, c))
                end = t
                self._busy_ns += t - start0
                self._chunks += len(burst)
                self._bytes += nbytes
                counters.add("link.chunks", len(burst))
                counters.add("link.bytes", nbytes)
                if holds is not None:
                    inbox.add_holds(holds)
                continue
            # drop stream or gray failure armed: serve this one chunk, after
            # the virtually-committed backlog has cleared the wire so
            # serialisations stay strictly sequential
            if end > env.now:
                yield timeout(end - env.now)
            bw = bw0
            if chaos is not None:
                if not chaos.up:
                    self._drops += 1
                    counters.add("link.chaos_drops")
                    continue
                bw *= chaos.bw_scale
            ser = serialization_ns(chunk.wire_bytes, bw)
            drop_rate = 0.0 if rng_random is None else params.drop_rate
            if drop_rate > 0.0:
                if params.loss_mode == "lossy":
                    # genuine loss: the chunk still occupies the wire for
                    # its serialisation time, then vanishes.  Recovery (if
                    # any) is end-to-end at the sending NIC.
                    if rng_random() < drop_rate:
                        self._drops += 1
                        counters.add("link.drops")
                        counters.add("link.lost_bytes", chunk.wire_bytes)
                        self._busy_ns += ser
                        yield timeout(ser)
                        continue
                else:
                    # reliable mode: a dropped chunk costs the recovery
                    # timeout plus a fresh serialisation before it finally
                    # goes through.  Every failed attempt occupies the wire
                    # (_busy_ns grows by ser per attempt) and the wasted
                    # bytes are tallied separately — ``link.bytes`` stays
                    # goodput-only.
                    while rng_random() < drop_rate:
                        self._drops += 1
                        counters.add("link.drops")
                        counters.add("link.retrans_bytes", chunk.wire_bytes)
                        self._busy_ns += ser
                        yield timeout(ser + params.retransmit_ns)
            self._busy_ns += ser
            self._chunks += 1
            self._bytes += chunk.wire_bytes
            counters.add("link.chunks")
            counters.add("link.bytes", chunk.wire_bytes)
            yield timeout(ser)
            end = env.now
            # Propagation overlaps with serialising the next chunk.
            env.process(self._propagate(chunk), name=f"prop:{self.name}")

    def _deliver(self, chunk: Chunk, _ev) -> None:
        """Timer callback: chunk exits this link (batched fast path)."""
        chaos = self.chaos
        if chaos is not None and not chaos.up:
            # the link went dark after this chunk's burst was committed:
            # per-chunk serving would have dropped it at the server, so
            # drop it here rather than leak traffic across a partition
            self._drops += 1
            self.counters.add("link.chaos_drops")
            return
        chunk.hop += 1
        if chunk.hop < len(chunk.path):
            nxt = chunk.path[chunk.hop]
            # fire-and-forget put: admission order and backpressure are
            # enforced by the store's FIFO put queue, and nothing ever
            # waited on the old propagate process either
            nxt.inbox.put_discard(chunk)
        else:
            if self.sink is None:
                raise RuntimeError(f"link {self.name}: no sink at end of path")
            self.sink(chunk)

    def _propagate(self, chunk: Chunk):
        delay = self.latency_ns
        chaos = self.chaos
        if chaos is not None:
            delay += chaos.latency_add_ns
            if chaos.jitter_ns and chaos.rng is not None:
                delay += int(chaos.rng.integers(0, chaos.jitter_ns))
        yield self.env.timeout(delay)
        chunk.hop += 1
        if chunk.hop < len(chunk.path):
            nxt = chunk.path[chunk.hop]
            yield nxt.inbox.put(chunk)
        else:
            if self.sink is None:
                raise RuntimeError(f"link {self.name}: no sink at end of path")
            self.sink(chunk)
