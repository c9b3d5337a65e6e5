"""Directed links and the chunk pipeline.

A :class:`Link` is a directed pipe with finite bandwidth, fixed latency and
a small bounded input queue.  Messages are segmented by the NIC into
:class:`Chunk` objects (≈ MTU-sized packets); each link serialises chunks
one at a time at link bandwidth and forwards them after the propagation
latency.  Because every link buffers and serialises independently, chunks
pipeline across multi-hop paths (cut-through behaviour) and contention on a
shared hop (e.g. the destination's downlink during an incast) emerges
naturally from queueing.

Event economy: a link is a schedule, and service is arithmetic computed at
admission — a *booking* (:meth:`Link.reserve`), dated now or ahead of the
clock.  A chunk admitted at ``at`` starts at ``max(end, at)`` and holds a
queue slot until then (a producer that finds the queue full parks FIFO,
admitted by one timer at the start that frees its slot).  Chaos scales its
serialisation by ``bw_scale`` or, dark, swallows it there; a dropped
attempt holds the wire for one serialisation, followed in reliable mode by
a retry ``retransmit_ns`` later; it propagates for ``latency_ns`` plus
chaos's ``latency_add_ns`` and jitter.  Draws belong to service positions:
a booking takes its link's next drop (and jitter) draws and a withdrawn one
hands them back, so the k-th chunk served gets the k-th draw.  A hop books
its chunk on the path's last hop at its exit + propagation, and the NIC a
message's DMA fetches on its first hop at their ends: one kernel event per
delivered chunk on a path, one engine wake per message.  What would reach
a link ahead of a booking (a producer, an earlier booking, an unbooked
chunk's timer, chaos here or on the hop it came from) *withdraws* it —
wire, slots, draws, tallies and counters restored, its timer unscheduled,
the chunk handed back to that hop's delivery timer or the NIC's wake.  At
equal instants the earlier booking is first.

A booking reads the drop rate and chaos of its service start (chaos again,
for propagation, where it leaves the wire): a change of either
(:meth:`Link.arm_chaos`, ``Topology.set_drop_rate``) books again those
that start after it and re-reads the propagation of those on the wire.
Except: a chunk admitted while the link had neither keeps its schedule
(dropped at the far end if the link went dark), and the first admitted
with them behind such chunks waits, slotless, under its admission state.
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


#: one admission (a list): ``busy`` wire ns from ``start`` (a slot until
#: then if ``held``) to ``end``, after ``prev``; ``out``: its timer, due at
#: ``due``, or booking on the next hop (None: not sent on); ``src`` takes
#: it back if withdrawn (None: booked again here; _GONE: withdrawn);
#: ``up``: its booking on the hop before; ``srv``: reads the drop rate and
#: chaos of its service start; ``draws``: the drop draws it took;
#: ``drops``: failed attempts (-1: swallowed); ``jit``: (stream, state
#: before, value) of its jitter draw
(_AT, _CHUNK, _PREV, _BUSY, _HELD, _OUT, _DUE, _SRC, _UP, _SRV, _START, _END,
 _DRAWS, _DROPS, _JIT) = range(15)
_GONE = "withdrawn"


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
        #: the drop stream (given with a non-zero drop_rate) and the
        #: gray-failure state (None until a chaos controller arms it)
        self.rng = rng
        self.chaos: Optional[LinkChaos] = None
        #: the input queue, by the name producers reach it
        self.inbox = self
        #: called with the chunk when it exits this link *and* this link is
        #: the last hop of the chunk's path; set by the topology.
        self.sink: Optional[Callable[[Chunk], None]] = None
        self._depth = queue_depth
        #: the wire is committed until this instant
        self._end = 0
        #: starts still ahead of the clock, ascending: each holds a slot
        self._starts: Deque[int] = deque()
        #: records by instant, unbooked chunks on their way here (nothing is
        #: booked while one is), links booked on, drop draws handed back
        self._booked: Deque[list] = deque()
        self._inbound = 0
        self._booked_on: Set["Link"] = set()
        self._spare: Deque[float] = deque()
        #: producers waiting for a slot, FIFO: (chunk, event or None)
        self._parked: Deque[Tuple[Chunk, Optional[Event]]] = deque()
        self._wake_at = -1
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
            # a chunk admitted clean here and booked on the next hop meets
            # the dark-link check at this link's far end after all
            for link in self._booked_on:
                link._recall(link._first_after(self.env.now - 1))
        self._restate(True)

    def occupancy_ns(self) -> int:
        """Total time this link spent serialising (utilisation numerator):
        what is committed, less the part of it still ahead of the clock."""
        now, booked = self.env.now, self._booked
        ahead = max(0, self._end - max(now, booked[-1][_END] if booked
                                       else now))
        for b in reversed(booked):
            if b[_END] <= now:
                break
            n = b[_DROPS] + 1 if b[_OUT] is not None else 1
            p = b[_BUSY] // n
            for k in range(n):
                t = b[_START] + k * (p + self.params.retransmit_ns)
                ahead += max(0, min(p, t + p - now))
        return self._busy_ns - ahead

    def stats(self) -> dict:
        """JSON-serializable per-link tallies (fabric section of reports)."""
        ahead = [b for b in list(self._booked)[self._first_after(
            self.env.now):] if b[_OUT] is not None]  # counted, not yet due
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
        if len(starts) >= self._depth:
            return False
        self._book(chunk, now, None, None)
        return True

    def reserve(self, chunk: Chunk, at: int, src,
                up: Optional[list] = None) -> Optional[list]:
        """Book ``chunk`` at ``at`` (>= now), or None (a producer parked, an
        unbooked chunk due, full then, or :meth:`_book` says no)."""
        if self._inbound or self._parked:
            return None
        booked = self._booked
        if booked and booked[-1][_AT] > at:
            self._recall(self._first_after(at))
        starts = self._starts
        while starts and starts[0] <= self.env.now:
            starts.popleft()                   # slots freed already
        if len(starts) - bisect_right(starts, at) >= self._depth:
            return None
        return self._book(chunk, at, src, up)

    def _book(self, chunk: Chunk, at: int, src,
              up: Optional[list]) -> Optional[list]:
        """The one admission, at ``at``: service computed now, then
        :meth:`_send` (a booking ahead it cannot send on is not made)."""
        now, booked, params = self.env.now, self._booked, self.params
        while booked and booked[0][_AT] < now and booked[0][_END] < now:
            booked.popleft()[_OUT] = None     # passed: no longer withdrawable
        tail = booked[-1] if booked else None
        chaos, rng = self.chaos, self.rng
        behind = tail is not None and tail[_SRV] and tail[_END] > at
        srv = chaos is not None or rng is not None or behind
        start = prev = self._end
        if start < at:
            start = at
        held = start > at and (behind or not srv)   # else late, or starting
        wire = chunk.wire_bytes
        end, busy, drops, draws, sent = prev, 0, -1, (), False
        if chaos is None or chaos.up:         # else swallowed where it starts
            busy = ser = serialization_ns(wire, params.bandwidth_gbps * (
                1.0 if chaos is None else chaos.bw_scale))
            end, drops = start + ser, 0
            rate = 0.0 if rng is None else params.drop_rate
            sent = True
            if rate > 0.0:
                spare = self._spare
                while True:
                    draw = spare.popleft() if spare else rng.random()
                    draws += (draw,)
                    if draw >= rate:
                        break
                    drops += 1
                    if params.loss_mode == "lossy":
                        sent = False
                        break
                    busy += ser
                    end += ser + params.retransmit_ns
        b = None
        if src is not None or srv or (tail is not None and tail[_END] >= now):
            b = [at, chunk, prev, busy, held, None, 0, src, up, srv, start,
                 end, draws, drops, None]
            booked.append(b)
        if held:
            self._starts.append(start)
        self._end = end
        self._busy_ns += busy
        self._tally(wire, drops, sent, 1)
        ahead = src is not None and at > now
        if sent and self._send(chunk, end, b, srv, ahead) is None and ahead:
            self._withdraw(len(booked) - 1)
            return None
        return b

    def _send(self, chunk: Chunk, end: int, b: Optional[list], srv: bool,
              ahead: bool = False) -> Optional[object]:
        """``chunk`` leaves the wire at ``end``: propagation under today's
        chaos, then a booking on the path's last hop if that is next, else a
        timer here — none (None) for a booking ``b`` ahead of the clock."""
        chaos, lat, jit = self.chaos, self.latency_ns, None
        if chaos is not None:
            lat += chaos.latency_add_ns
            if chaos.jitter_ns and chaos.rng is not None:
                if ahead:   # dues out of order: no booking ahead goes on
                    return None
                gen = chaos.rng
                jit = (gen, gen.bit_generator.state,
                       int(gen.integers(0, chaos.jitter_ns)))
                lat += jit[2]
        due, path, hop = end + lat, chunk.path, chunk.hop + 1
        out = None
        if hop + 1 == len(path):
            chunk.hop = hop
            out = path[hop].reserve(chunk, due, self, b)
            if out is None:
                chunk.hop -= 1
                if ahead:
                    return None
            elif path[hop] not in self._booked_on:
                self._booked_on.add(path[hop])
        if out is None:
            out = self._arm(chunk, due, not srv)
        if b is not None:
            b[_OUT], b[_DUE], b[_JIT] = out, due, jit
        return out

    def _tally(self, wire: int, drops: int, sent: bool, sign: int) -> None:
        """Count (``sign`` 1) or uncount (-1) one admission's outcome."""
        add = self.counters.add
        if drops < 0:
            self._drops += sign
            add("link.chaos_drops", sign)
        elif drops:
            self._drops += sign * drops
            add("link.drops", sign * drops)
            add("link.retrans_bytes" if sent else "link.lost_bytes",
                sign * wire * (drops if sent else 1))
        if sent:
            self._chunks += sign
            self._bytes += sign * wire
            add("link.chunks", sign)
            add("link.bytes", sign * wire)

    def _arm(self, chunk: Chunk, due: int, checked: bool) -> Event:
        """A timer for ``chunk`` reaching the far end at ``due`` (``checked``:
        admitted clean); the next hop withdraws its bookings from then on."""
        if chunk.hop + 1 < len(chunk.path):
            nxt = chunk.path[chunk.hop + 1]
            nxt._inbound += 1
            if nxt._booked:
                nxt._recall(nxt._first_after(due - 1))
        timer = self.env.timeout(due - self.env.now)
        timer.callbacks.append(partial(self._arrive, chunk, checked))
        return timer

    def take_back(self, chunk: Chunk, at: int, up: Optional[list]) -> None:
        """Withdrawn from the next hop: a delivery timer here after all —
        or, booked here too ahead of the clock, withdrawn here too."""
        if up is not None and up[_AT] > self.env.now:
            return self._recall(self._booked.index(up))
        chunk.hop -= 1
        timer = self._arm(chunk, at, up is None or not up[_SRV])
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
        """Withdraw records ``i..``; hand each chunk back, oldest first."""
        self._readmit(self._withdraw(i))

    def _readmit(self, pairs: List[Tuple[list, object]]) -> None:
        """Withdrawn (record, src) pairs: one admitted already is booked
        again here, a booking ahead goes back to its ``src``."""
        now = self.env.now
        for b, src in pairs:
            up = b[_UP]
            if up is not None and up[_SRC] is _GONE:
                continue                       # its hop withdrew it too
            if src is None or b[_AT] < now:
                again = self._book(b[_CHUNK], b[_AT], src, up)
                if up is not None:
                    up[_OUT] = again
            else:
                src.take_back(b[_CHUNK], b[_AT], up)

    def _withdraw(self, i: int) -> List[Tuple[list, object]]:
        """Undo records ``i..``: restore the wire, slots, draws and
        tallies, cancel what each armed; returns (record, src) pairs."""
        booked, now, starts = self._booked, self.env.now, self._starts
        gone = [booked.pop() for _ in range(len(booked) - i)][::-1]
        if not gone:
            return []
        self._end = gone[0][_PREV]
        while starts and starts[0] <= now:
            starts.popleft()                   # slots freed already
        for _ in range(sum(b[_HELD] and b[_START] > now for b in gone)):
            starts.pop()
        self._busy_ns -= sum(b[_BUSY] for b in gone)
        self._unspend([(b[_DRAWS], b[_JIT]) for b in gone])
        pairs = [(b, b[_SRC]) for b in gone]
        for b in gone:
            b[_SRC] = _GONE
            drops = b[_DROPS]
            self._tally(b[_CHUNK].wire_bytes, drops, drops == 0 or drops > 0
                        and self.params.loss_mode != "lossy", -1)
        for b in gone:
            self._unsend(b)
        return pairs

    def _unsend(self, b: list) -> None:
        """Cancel the delivery timer or next-hop booking ``b`` made."""
        out, chunk = b[_OUT], b[_CHUNK]
        if type(out) is list:                  # booked on the last hop
            if out[_SRC] is not _GONE:
                last = chunk.path[-1]
                last._recall(last._booked.index(out))
            chunk.hop -= 1
        elif out is not None:
            self.env.unschedule(out, b[_DUE])
            if chunk.hop + 1 < len(chunk.path):
                chunk.path[chunk.hop + 1]._inbound -= 1

    def _unspend(self, spent) -> None:
        """Hand back (drop draws, jitter) pairs, oldest first."""
        self._spare.extendleft(reversed([d for draws, _ in spent
                                         for d in draws]))
        for _, jit in reversed(spent):
            if jit is not None:
                jit[0].bit_generator.state = jit[1]

    def _restate(self, chaos: bool) -> None:
        """Chaos (``chaos``) or the drop rate changed: book again the
        ``srv`` chunks starting after now (not a late one), hand back
        bookings ahead, and for chaos re-send the ``srv`` ones on the
        wire."""
        if not chaos and self.rng is None:
            return
        now, booked = self.env.now, self._booked
        i = len(booked)
        while i:
            b = booked[i - 1]
            late = b[_START] > b[_AT] and not b[_HELD]
            if not (b[_START] > now and not late if b[_SRV]
                    else b[_AT] >= now):
                break
            i -= 1
        pairs = self._withdraw(i)
        j = i
        while chaos and j and booked[j - 1][_END] > now:
            j -= 1
        live = [b for b in list(booked)[j:i]
                if b[_SRV] and b[_OUT] is not None]
        for b in live:
            src, b[_SRC] = b[_SRC], _GONE      # not handed back to us
            self._unsend(b)
            b[_SRC] = src
        self._unspend([((), b[_JIT]) for b in live])
        for b in live:
            self._send(b[_CHUNK], b[_END], b, True)
        self._readmit(pairs)

    # ------------------------------------------------------------- parking
    def put(self, chunk: Chunk) -> Event:
        """Blocking put: the returned event fires once ``chunk`` has a slot."""
        ev = Event(self.env)
        if self.try_put(chunk):
            ev.succeed()
        else:
            self._parked.append((chunk, ev))
            self._arm_wake()
        return ev

    def put_discard(self, chunk: Chunk) -> None:
        """Fire-and-forget put: same FIFO admission and backpressure as
        :meth:`put`, with no event for anyone to wait on."""
        if not self.try_put(chunk):
            self._parked.append((chunk, None))
            self._arm_wake()

    def _arm_wake(self) -> None:
        # a slot frees when the clock reaches its chunk's start: one timer,
        # at the next such instant
        starts = self._starts
        if starts and self._wake_at != starts[0]:
            self._wake_at = starts[0]
            wake = self.env.timeout(starts[0] - self.env.now)
            wake.callbacks.append(self._admit_parked)

    def _admit_parked(self, _ev=None) -> None:
        """Wake timer: admit parked producers while slots are free."""
        parked = self._parked
        while parked and self.try_put(parked[0][0], _head=True):
            ev = parked.popleft()[1]
            if ev is not None:
                ev.succeed()
        if parked:
            self._arm_wake()

    # ----------------------------------------------------------------- exit
    def _arrive(self, chunk: Chunk, checked: bool, _ev) -> None:
        """Timer callback: a chunk reaches the far end — dropped if admitted
        clean (``checked``) and the link went dark since."""
        booked, now = self._booked, self.env.now
        while booked and booked[0][_AT] < now and booked[0][_END] < now:
            booked.popleft()[_OUT] = None     # frees the firing timer
        chunk.hop = hop = chunk.hop + 1
        path, chaos = chunk.path, self.chaos
        on = hop < len(path)
        if on:
            path[hop]._inbound -= 1
        if checked and chaos is not None and not chaos.up:
            self._drops += 1
            self.counters.add("link.chaos_drops")
        elif on:
            # fire-and-forget: admission order and backpressure are the
            # next hop's FIFO parked line
            path[hop].put_discard(chunk)
        elif self.sink is None:
            raise RuntimeError(f"link {self.name}: no sink at end of path")
        else:
            self.sink(chunk)
