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
server: one-at-a-time service is arithmetic, computed at admission.  A
chunk admitted at ``at`` starts at ``max(end, at)`` and exits at ``start +
ser``; the bounded queue is the deque of start times still ahead of the
clock (a chunk holds its slot until it starts serialising), and a producer
that finds it full parks FIFO, admitted by one timer at the start that
frees its slot.  Admission is a booking (:meth:`Link.reserve`), ``at`` now
or ahead of the clock: a clean hop books its chunk on the path's last hop,
if clean, at ``exit + latency``, and the NIC books a message's DMA fetches
on its first hop at their ends — a clean path costs one kernel event per
chunk and one engine wake per message.  What would reach the link ahead of
a booking (a producer, an earlier booking, an unbooked chunk's timer,
chaos here or on the hop it came from) *withdraws* it: wire, slots,
tallies and counters restored, its timer unscheduled, the chunk handed
back to that hop's delivery timer or the NIC's wake.  At equal instants
the earlier booking is first.

*Served* — built with an ``rng``, or from :meth:`Link.arm_chaos` until
chaos is cleared and the queue has drained.  Two timers, no process:
admission to an idle link starts service on the spot (chaos read, drop
draw, one serialisation timer); that timer's callback samples the
propagation delay, arms the delivery timer and starts the next queued
chunk the same way.  Two kernel events per chunk-hop, plus one per failed
reliable-mode attempt; draws are made at service start, FIFO per link, so
draw order and drop points never depend on queue depth.  The wire's
busy-until time and the slot count are shared with the schedule: chunks
scheduled before the switch are not served again; nothing is booked.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import partial
from typing import Callable, Deque, List, Optional, Set, Tuple

from ..sim.core import Environment, Event
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


#: a booking (a list): ``out`` is the delivery timer it armed, due at
#: ``due``, or its booking on the next hop; ``src`` takes the chunk back if
#: it is withdrawn (None once it was); ``up`` is its booking on that hop
_AT, _CHUNK, _PREV, _SER, _HELD, _OUT, _DUE, _SRC, _UP = range(9)


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
        #: bookings by instant, unbooked chunks on their way here (nothing
        #: is booked while one is), links this one booked chunks on
        self._booked: Deque[list] = deque()
        self._inbound = 0
        self._booked_on: Set["Link"] = set()
        #: producers waiting for a slot, FIFO: (chunk, event or None)
        self._parked: Deque[Tuple[Chunk, Optional[Event]]] = deque()
        self._wake_at = -1
        #: served chunks waiting behind the one in service (their slots
        #: count with ``_starts``), and whether one is in service
        self._queue: Deque[Chunk] = deque()
        self._serving = False
        self._busy_ns = 0
        # per-link tallies (the counters above are fabric-wide)
        self._chunks = 0
        self._bytes = 0
        self._drops = 0

    def arm_chaos(self, chaos: Optional[LinkChaos]) -> None:
        """Install (or clear, with ``None``) gray-failure state."""
        self.chaos = None if chaos is not None and chaos.is_neutral() \
            else chaos
        if self.chaos is not None:
            # nothing booked from now on may skip the served state here, or
            # the dark-link check in _deliver of a chunk booked on the next
            for link in (self, *self._booked_on):
                link._recall(link._first_after(self.env.now - 1))

    def occupancy_ns(self) -> int:
        """Total time this link spent serialising (utilisation numerator):
        what is committed, less the part of it still ahead of the clock."""
        ahead = list(self._booked)[self._first_after(self.env.now):]
        end = ahead[0][_PREV] if ahead else self._end
        return (self._busy_ns - sum(b[_SER] for b in ahead)
                - max(0, end - self.env.now))

    def stats(self) -> dict:
        """JSON-serializable per-link tallies (fabric section of reports)."""
        ahead = list(self._booked)[self._first_after(self.env.now):]
        return {"name": self.name, "chunks": self._chunks - len(ahead),
                "bytes": self._bytes - sum(b[_CHUNK].wire_bytes
                                           for b in ahead),
                "drops": self._drops, "busy_ns": self.occupancy_ns(),
                "latency_ns": self.latency_ns}

    # ------------------------------------------------------------ admission
    def try_put(self, chunk: Chunk, _head: bool = False) -> bool:
        """Admit ``chunk`` now if a slot is free and no producer is parked
        ahead (``_head``: it *is* the head of the parked line); False
        otherwise — the caller falls back to :meth:`put`."""
        if self._parked and not _head:
            return False
        now = self.env.now
        if self._booked and self._booked[-1][_AT] > now:
            self._recall(self._first_after(now))
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        if self.chaos is not None or self.rng is not None or self._serving:
            # served: armed, or a served chunk still holds the wire
            if len(starts) + len(self._queue) >= self._depth:
                return False
            if self._serving:
                self._queue.append(chunk)
            else:
                self._serving = True
                if not self._start(chunk):
                    self._next()
            return True
        if len(starts) >= self._depth:
            return False
        self._book(chunk, now, None, None)
        return True

    def reserve(self, chunk: Chunk, at: int, src,
                up: Optional[list] = None) -> Optional[list]:
        """Book ``chunk`` at ``at`` (>= now), or None (served, a producer
        parked, an unbooked chunk due, full then, or :meth:`_book` says
        no).  Withdrawn, it calls ``src.take_back(chunk, at, up)``."""
        if (self._inbound or self._parked or self._serving
                or self.chaos is not None or self.rng is not None):
            return None
        booked, now = self._booked, self.env.now
        while booked and booked[0][_AT] < now:
            booked.popleft()[_OUT] = None     # passed: no longer withdrawable
        if booked and booked[-1][_AT] > at:
            self._recall(self._first_after(at))
        starts, depth = self._starts, self._depth
        if (len(starts) >= depth
                and len(starts) - bisect_right(starts, at) >= depth):
            return None
        b = self._book(chunk, at, src, up)
        if b is not None:
            booked.append(b)
        return b

    def _book(self, chunk: Chunk, at: int, src,
              up: Optional[list]) -> Optional[list]:
        """The one admission, at ``at`` (a booking if ``src`` is given): on
        to a booking on the path's last hop if that is next, else a timer
        here — too early for a booking ahead of the clock, not made."""
        start = prev_end = self._end
        if start < at:
            start = at
        wire = chunk.wire_bytes
        ser = serialization_ns(wire, self.params.bandwidth_gbps)
        b = (None if src is None
             else [at, chunk, prev_end, ser, start > at, None, 0, src, up])
        due = start + ser + self.latency_ns
        path, hop = chunk.path, chunk.hop + 1
        out = None
        if hop + 1 == len(path):
            chunk.hop = hop
            out = path[hop].reserve(chunk, due, self, b)
            if out is None:
                chunk.hop -= 1
                if b is not None and at > self.env.now:
                    return None
        if start > at:
            self._starts.append(start)
        self._end = start + ser
        self._busy_ns += ser
        self._chunks += 1
        self._bytes += wire
        self.counters.add("link.chunks")
        self.counters.add("link.bytes", wire)
        if out is not None:
            self._booked_on.add(path[hop])
        elif hop < len(path):
            out = self._arm(chunk, due, self._deliver)
        else:                                  # the last hop: no one to tell
            out = self.env.timeout(due - self.env.now)
            out.callbacks.append(partial(self._deliver, chunk))
        if b is not None:
            b[_OUT], b[_DUE] = out, due
        return b

    def _arm(self, chunk: Chunk, due: int, then) -> Event:
        """``then`` when ``chunk`` reaches the far end (at ``due``): the
        next hop withdraws what it booked from then on."""
        if chunk.hop + 1 < len(chunk.path):
            nxt = chunk.path[chunk.hop + 1]
            nxt._inbound += 1
            if nxt._booked:
                nxt._recall(nxt._first_after(due - 1))
        timer = self.env.timeout(due - self.env.now)
        timer.callbacks.append(partial(then, chunk))
        return timer

    def take_back(self, chunk: Chunk, at: int, up: Optional[list]) -> None:
        """Withdrawn from the next hop: a delivery timer here after all —
        or, booked here too ahead of the clock, withdrawn here too."""
        if up is not None and up[_AT] > self.env.now:
            return self._recall(self._booked.index(up))
        chunk.hop -= 1
        timer = self._arm(chunk, at, self._deliver)
        if up is not None:
            up[_OUT], up[_DUE] = timer, at

    # ----------------------------------------------------------- withdrawal
    def _first_after(self, t: int) -> int:
        """Index of the first booking dated after ``t``."""
        booked, i = self._booked, len(self._booked)
        while i and booked[i - 1][_AT] > t:
            i -= 1
        return i

    def _recall(self, i: int) -> None:
        """Withdraw bookings ``i..``: restore the wire, slots and tallies,
        cancel what each armed, hand every chunk back, oldest first."""
        booked = self._booked
        gone = [booked.pop() for _ in range(len(booked) - i)][::-1]
        if not gone:
            return
        self._end = gone[0][_PREV]
        for _ in range(sum(b[_HELD] for b in gone)):
            self._starts.pop()
        wire = sum(b[_CHUNK].wire_bytes for b in gone)
        self._busy_ns -= sum(b[_SER] for b in gone)
        self._chunks -= len(gone)
        self._bytes -= wire
        self.counters.add("link.chunks", -len(gone))
        self.counters.add("link.bytes", -wire)
        srcs = [b[_SRC] for b in gone]
        for b in gone:
            b[_SRC] = None                     # withdrawn
        for b in gone:
            out, chunk = b[_OUT], b[_CHUNK]
            if type(out) is list:              # booked on the last hop
                if out[_SRC] is not None:
                    last = chunk.path[-1]
                    last._recall(last._booked.index(out))
                chunk.hop -= 1
            else:
                self.env.unschedule(out, b[_DUE])
                if chunk.hop + 1 < len(chunk.path):
                    chunk.path[chunk.hop + 1]._inbound -= 1
        for b, src in zip(gone, srcs):
            if b[_UP] is None or b[_UP][_SRC] is not None:
                src.take_back(b[_CHUNK], b[_AT], b[_UP])

    # ------------------------------------------------------------- parking
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
        callback, and called when a served chunk leaves the queue."""
        parked = self._parked
        while parked and self.try_put(parked[0][0], _head=True):
            ev = parked.popleft()[1]
            if ev is not None:
                ev.succeed()
        if parked:
            self._arm_wake()

    # -------------------------------------------------------------- service
    def _next(self, _ev=None) -> None:
        """The wire is free: start the next queued chunk, or go idle."""
        while self._queue:
            chunk = self._queue.popleft()
            if self._parked:
                self._admit_parked()  # the chunk's slot is free
            if self._start(chunk):
                return
            if self.rng is not None:
                # a dark link swallowed it; with a drop stream that empty turn
                # still ends in its own event, so what else happens in this
                # nanosecond interleaves per chunk whatever the queue depth
                self.env.timeout(0).callbacks.append(self._next)
                return
        self._serving = False

    def _start(self, chunk: Chunk) -> bool:
        """Start service of ``chunk``; False if a dark link swallowed it on
        the spot (nothing armed: the caller moves on)."""
        chaos = self.chaos
        wait = self._end - self.env.now
        if wait > 0:
            # chunks scheduled before the switch still own the wire; the
            # chaos state that applies is the one read here
            late = self.env.timeout(wait)
            late.callbacks.append(
                lambda _ev: self._begin(chunk, chaos) or self._next())
            return True
        return self._begin(chunk, chaos)

    def _begin(self, chunk: Chunk, chaos: Optional[LinkChaos]) -> bool:
        bw = self.params.bandwidth_gbps
        if chaos is not None:
            if not chaos.up:
                self._drops += 1
                self.counters.add("link.chaos_drops")
                return False
            bw *= chaos.bw_scale
        # ``params`` is frozen, but harnesses heal the fabric mid-run by
        # object.__setattr__ on it: the drop knobs are re-read per chunk
        self._attempt(chunk, serialization_ns(chunk.wire_bytes, bw),
                      0.0 if self.rng is None else self.params.drop_rate)
        return True

    def _attempt(self, chunk: Chunk, ser: int, drop_rate: float, _ev=None):
        """One attempt: failed or not, it occupies the wire for ``ser`` ns."""
        counters = self.counters
        timeout = self.env.timeout
        self._busy_ns += ser
        self._end = self.env.now + ser
        if drop_rate > 0.0 and self.rng.random() < drop_rate:
            self._drops += 1
            counters.add("link.drops")
            if self.params.loss_mode == "lossy":
                # genuine loss: the chunk vanishes after its serialisation
                # time.  Recovery (if any) is end-to-end at the sending NIC.
                counters.add("link.lost_bytes", chunk.wire_bytes)
                timeout(ser).callbacks.append(self._next)
            else:
                # reliable mode: the recovery timeout, then a fresh attempt
                counters.add("link.retrans_bytes", chunk.wire_bytes)
                timeout(ser + self.params.retransmit_ns).callbacks.append(
                    partial(self._attempt, chunk, ser, drop_rate))
            return
        self._chunks += 1
        self._bytes += chunk.wire_bytes
        counters.add("link.chunks")
        counters.add("link.bytes", chunk.wire_bytes)
        timeout(ser).callbacks.append(partial(self._sent, chunk))

    def _sent(self, chunk: Chunk, _ev) -> None:
        """Off the wire: propagation (sampled now, from the chaos state of
        this instant) overlaps with serialising the next chunk."""
        delay = self.latency_ns
        chaos = self.chaos
        if chaos is not None:
            delay += chaos.latency_add_ns
            if chaos.jitter_ns and chaos.rng is not None:
                delay += int(chaos.rng.integers(0, chaos.jitter_ns))
        self._arm(chunk, self.env.now + delay, self._exit)
        self._next()

    # ----------------------------------------------------------------- exit
    def _deliver(self, chunk: Chunk, _ev) -> None:
        """Timer callback: a scheduled chunk reaches the far end."""
        while self._booked and self._booked[0][_AT] < self.env.now:
            self._booked.popleft()[_OUT] = None   # frees the firing timer
        chaos = self.chaos
        if chaos is not None and not chaos.up:
            # the link went dark after this chunk was scheduled: served, it
            # would have been dropped, so drop it here rather than leak
            # traffic across a partition
            self._drops += 1
            self.counters.add("link.chaos_drops")
            if chunk.hop + 1 < len(chunk.path):
                chunk.path[chunk.hop + 1]._inbound -= 1
            return
        self._exit(chunk, _ev)

    def _exit(self, chunk: Chunk, _ev) -> None:
        """Timer callback: a chunk that left the wire reaches the far end
        (a served chunk met its dark-link check at service start)."""
        chunk.hop = hop = chunk.hop + 1
        path = chunk.path
        if hop < len(path):
            # fire-and-forget: admission order and backpressure are the
            # next hop's FIFO parked line
            path[hop]._inbound -= 1
            path[hop].put_discard(chunk)
        elif self.sink is None:
            raise RuntimeError(f"link {self.name}: no sink at end of path")
        else:
            self.sink(chunk)
