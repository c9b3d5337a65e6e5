"""Directed links and the chunk pipeline.

A :class:`Link` is a directed pipe with finite bandwidth, fixed latency and
a small bounded input queue.  Messages are segmented by the NIC into
:class:`Chunk` objects (≈ MTU-sized packets); each link serialises chunks
one at a time at link bandwidth and forwards them after the propagation
latency.  Because every link buffers and serialises independently, chunks
pipeline across multi-hop paths (cut-through behaviour) and contention on a
shared hop (e.g. the destination's downlink during an incast) emerges
naturally from queueing.

Event economy: a link is in one of two states.

*Scheduled* — no drop stream (``rng``), no chaos, nothing queued for the
server.  One-at-a-time service of a clean link is pure arithmetic, so
admission itself computes it: the chunk starts at ``max(end, now)``, exits
at ``start + ser``, and one raw timer delivers it at ``exit + latency`` —
one kernel event per chunk-hop, no process.  The bounded queue is the
deque of start times still ahead of the clock (a chunk holds its slot
until it starts serialising); a producer that finds it full parks FIFO and
is admitted by one timer at the start time that frees its slot.

*Served* — built with an ``rng``, or from :meth:`Link.arm_chaos` until
chaos is cleared and the queue has drained.  A server process admits each
chunk through a ``StoreGet`` event and sleeps through its serialisation,
so RNG draw order, drop points and event order never depend on queue
depth.  It shares the wire's busy-until time and the slot count with the
schedule: chunks scheduled before the switch are not served again, and a
chunk leaving the wire arms the same delivery timer.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, List, Optional, Tuple

from ..sim.core import Environment, Event
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
    """One directed link: a bounded input queue in front of one wire.

    Chunks enter through :meth:`put` / :meth:`try_put` /
    :meth:`put_discard` (``link.inbox`` is the link itself) and leave
    through the next hop's queue or, on the last hop of the chunk's path,
    ``sink`` (the destination NIC's ingress handler, set by the topology).
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
        #: the input queue, by the name producers reach it
        self.inbox = self
        #: called with the chunk when it exits this link *and* this link is
        #: the last hop of the chunk's path; set by the topology.
        self.sink: Optional[Callable[[Chunk], None]] = None
        self._depth = queue_depth
        #: the wire is committed until this instant
        self._end = 0
        #: serialisation starts of scheduled chunks still waiting for the
        #: wire, ascending: each holds a queue slot until the clock is there
        self._starts: Deque[int] = deque()
        #: producers waiting for a slot, FIFO: (chunk, event or None)
        self._parked: Deque[Tuple[Chunk, Optional[Event]]] = deque()
        self._wake_at = -1
        #: chunks admitted for the server process (their slots count with
        #: ``_starts``); None until the link is first armed
        self._queue: Optional[Store] = None
        self._busy_ns = 0
        # per-link tallies (the counters above are fabric-wide)
        self._chunks = 0
        self._bytes = 0
        self._drops = 0
        if rng is not None:
            self._start_server()

    def arm_chaos(self, chaos: Optional[LinkChaos]) -> None:
        """Install (or clear, with ``None``) gray-failure state."""
        self.chaos = None if chaos is not None and chaos.is_neutral() \
            else chaos
        if self.chaos is not None and self._queue is None:
            self._start_server()

    def _start_server(self) -> None:
        self._queue = Store(self.env)
        self.env.process(self._server(), name=f"link:{self.name}")

    def occupancy_ns(self) -> int:
        """Total time this link spent serialising (utilisation numerator):
        what is committed, less the part of it still ahead of the clock."""
        return self._busy_ns - max(0, self._end - self.env.now)

    def stats(self) -> dict:
        """JSON-serializable per-link tallies (fabric section of reports)."""
        return {"name": self.name, "chunks": self._chunks,
                "bytes": self._bytes, "drops": self._drops,
                "busy_ns": self.occupancy_ns(), "latency_ns": self.latency_ns}

    # ------------------------------------------------------------ admission
    def try_put(self, chunk: Chunk, _head: bool = False) -> bool:
        """Admit ``chunk`` now if a slot is free and no producer is parked
        ahead (``_head``: it *is* the head of the parked line); False
        otherwise — the caller falls back to :meth:`put`."""
        if self._parked and not _head:
            return False
        env = self.env
        now = env.now
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        queue = self._queue
        if (self.chaos is not None or self.rng is not None
                or (queue is not None and not queue.waiting)):
            # served: armed, or the server still has chunks to drain
            if len(starts) + len(queue.items) >= self._depth:
                return False
            queue.put_nowait(chunk)
            return True
        if len(starts) >= self._depth:
            return False
        # scheduled: one-at-a-time service, computed instead of run
        start = self._end
        if start > now:
            starts.append(start)
        else:
            start = now
        ser = serialization_ns(chunk.wire_bytes, self.params.bandwidth_gbps)
        self._end = end = start + ser
        self._busy_ns += ser
        self._chunks += 1
        self._bytes += chunk.wire_bytes
        self.counters.add("link.chunks")
        self.counters.add("link.bytes", chunk.wire_bytes)
        dt = env.timeout(end + self.latency_ns - now)
        dt.callbacks.append(partial(self._deliver, chunk))
        return True

    def put(self, chunk: Chunk) -> Event:
        """Blocking put: the returned event fires once ``chunk`` has a slot."""
        ev = Event(self.env)
        if self.try_put(chunk):
            ev.succeed()
        else:
            self._park(chunk, ev)
        return ev

    def put_discard(self, chunk: Chunk) -> None:
        """Fire-and-forget put: same FIFO admission and backpressure as
        :meth:`put`, with no event for anyone to wait on."""
        if not self.try_put(chunk):
            self._park(chunk, None)

    def _park(self, chunk: Chunk, ev: Optional[Event]) -> None:
        self._parked.append((chunk, ev))
        self._arm_wake()

    def _arm_wake(self) -> None:
        # a slot held by a scheduled chunk frees when the clock reaches
        # its start: one timer, at the next such instant
        starts = self._starts
        if starts and self._wake_at != starts[0]:
            self._wake_at = starts[0]
            wake = self.env.timeout(starts[0] - self.env.now)
            wake.callbacks.append(self._admit_parked)

    def _admit_parked(self, _ev=None) -> None:
        """Admit parked producers while slots are free: the wake timer's
        callback, and the server's when it takes a chunk off its queue."""
        parked = self._parked
        while parked and self.try_put(parked[0][0], _head=True):
            ev = parked.popleft()[1]
            if ev is not None:
                ev.succeed()
        if parked:
            self._arm_wake()

    # --------------------------------------------------------------- server
    def _server(self):
        """Served state: one chunk at a time, through real kernel events."""
        env = self.env
        queue = self._queue
        timeout = env.timeout
        counters = self.counters
        # ``params`` is a frozen dataclass, but fault-injection harnesses
        # hack ``drop_rate`` mid-run via object.__setattr__ to heal the
        # fabric — so the drop knobs are re-read per chunk.
        params = self.params
        bw0 = params.bandwidth_gbps
        # ``rng`` is assigned once, at construction.  A link that has one
        # is served for good, and admits each chunk through a StoreGet
        # event, so draw order and event order never depend on queue depth.
        rng_random = None if self.rng is None else self.rng.random
        while True:
            chunk: Chunk = queue.try_get() if rng_random is None else None
            if chunk is None:
                # parked here with nothing armed, the link is scheduled
                chunk = yield queue.get()
            if self._parked:
                self._admit_parked()  # the chunk's slot is free
            chaos = self.chaos
            # chunks scheduled before the switch still own the wire
            if self._end > env.now:
                yield timeout(self._end - env.now)
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
                        self._end = env.now + ser
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
                        self._end = env.now + ser
                        yield timeout(ser + params.retransmit_ns)
            self._busy_ns += ser
            self._end = env.now + ser
            self._chunks += 1
            self._bytes += chunk.wire_bytes
            counters.add("link.chunks")
            counters.add("link.bytes", chunk.wire_bytes)
            yield timeout(ser)
            # off the wire: propagation (sampled now, from the chaos state
            # of this instant) overlaps with serialising the next chunk
            delay = self.latency_ns
            chaos = self.chaos
            if chaos is not None:
                delay += chaos.latency_add_ns
                if chaos.jitter_ns and chaos.rng is not None:
                    delay += int(chaos.rng.integers(0, chaos.jitter_ns))
            dt = timeout(delay)
            dt.callbacks.append(partial(self._exit, chunk))

    # ----------------------------------------------------------------- exit
    def _deliver(self, chunk: Chunk, _ev) -> None:
        """Timer callback: a scheduled chunk reaches the far end."""
        chaos = self.chaos
        if chaos is not None and not chaos.up:
            # the link went dark after this chunk was scheduled: the server
            # would have dropped it, so drop it here rather than leak
            # traffic across a partition
            self._drops += 1
            self.counters.add("link.chaos_drops")
            return
        self._exit(chunk, _ev)

    def _exit(self, chunk: Chunk, _ev) -> None:
        """Timer callback: a chunk that left the wire reaches the far end
        (a served chunk met its dark-link check at the server)."""
        chunk.hop = hop = chunk.hop + 1
        path = chunk.path
        if hop < len(path):
            # fire-and-forget: admission order and backpressure are the
            # next hop's FIFO parked line
            path[hop].put_discard(chunk)
        elif self.sink is None:
            raise RuntimeError(f"link {self.name}: no sink at end of path")
        else:
            self.sink(chunk)
