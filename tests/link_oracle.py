"""Reference links: the literal one-chunk-at-a-time server, the link
without bookings, and the two-timer service machine.

:class:`OracleLink` is a bounded :class:`~repro.sim.resources.Store` in
front of a process that takes one chunk, sleeps through its serialisation,
and hands it on one propagation latency later — the statement of what a
clean :class:`repro.fabric.link.Link` must be observably identical to while
it *computes* that schedule instead of running it.  It admits nothing
without an event (``try_put`` says no, ``reserve`` books nothing), so a
:class:`~repro.fabric.nic.Nic` streams into it one blocking put per chunk.

:class:`UnbookedLink` is :class:`~repro.fabric.link.Link` with every
booking refused: each hop arms its own delivery timer and every DMA fetch
sleeps, which is the model bookings must reproduce exactly — chaos,
parked producers and same-nanosecond arrivals included.


:class:`ServedLink` serves a link with a drop stream or chaos armed the way
:class:`~repro.fabric.link.Link` once did: two timers per chunk-hop, no
bookings.  Service starts when the wire frees (chaos read then, drop draws
made then, one serialisation timer per attempt); the timer's callback
reads chaos again for the propagation delay, arms the delivery timer and
starts the next queued chunk.  A chunk admitted while the link is clean is
scheduled as :class:`~repro.fabric.link.Link` schedules it.  It is the
statement of what booking a served chunk must reproduce.

Test tree only; ``tests/test_fabric_link.py`` and
``tests/test_property_served.py`` drive generated scripts through them.
"""

from __future__ import annotations

from collections import deque
from functools import partial

from repro.fabric import link as link_module
from repro.fabric.link import Link
from repro.sim.resources import Store
from repro.sim.trace import Counters
from repro.util.units import serialization_ns


class OracleLink:
    def __init__(self, env, params, name, counters=None, queue_depth=16,
                 extra_latency_ns=0):
        self.env = env
        self.params = params
        self.name = name
        self.counters = counters or Counters()
        self.latency_ns = params.latency_ns + extra_latency_ns
        # the same surface as Link: ``inbox`` is the link, and a put nobody
        # waits on is the fire-and-forget one
        self.inbox = self
        self._store = Store(env, capacity=queue_depth)
        self.put = self.put_discard = self._store.put
        self.sink = None
        self._busy_ns = self._chunks = self._bytes = self._drops = 0
        env.process(self._server(), name=f"oracle:{name}")

    def try_put(self, chunk, _head=False):
        return False

    def reserve(self, chunk, at, src, up=None):
        return None

    def _server(self):
        while True:
            chunk = yield self._store.get()
            ser = serialization_ns(chunk.wire_bytes,
                                   self.params.bandwidth_gbps)
            self._busy_ns += ser
            self._chunks += 1
            self._bytes += chunk.wire_bytes
            self.counters.add("link.chunks")
            self.counters.add("link.bytes", chunk.wire_bytes)
            yield self.env.timeout(ser)
            arrival = self.env.timeout(self.latency_ns)
            arrival.callbacks.append(partial(self._deliver, chunk))

    def _deliver(self, chunk, _ev) -> None:
        chunk.hop += 1
        if chunk.hop < len(chunk.path):
            chunk.path[chunk.hop].put_discard(chunk)
        else:
            self.sink(chunk)


class UnbookedLink(Link):
    def reserve(self, chunk, at, src, up=None):
        return None


class ServedLink(Link):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: served chunks waiting behind the one in service (their slots
        #: count with ``_starts``), and whether one is in service
        self._queue = deque()
        self._serving = False

    def arm_chaos(self, chaos) -> None:
        self.chaos = None if chaos is not None and chaos.is_neutral() \
            else chaos
        if self.chaos is not None:
            for link in (self, *self._booked_on):
                link._recall(link._first_after(self.env.now - 1))

    def _restate(self, chaos) -> None:
        pass            # the drop rate is read where each service starts

    def try_put(self, chunk, _head=False):
        if self._parked and not _head:
            return False
        now = self.env.now
        if self._booked and self._booked[-1][0] > now:
            self._recall(self._first_after(now))
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        if self.chaos is not None or self.rng is not None or self._serving:
            if len(starts) + len(self._queue) >= self._depth:
                return False
            if self._serving:
                self._queue.append(chunk)
            else:
                self._serving = True
                if not self._start(chunk):
                    self._next()
            return True
        return super().try_put(chunk, _head)

    def reserve(self, chunk, at, src, up=None):
        if self._serving or self.chaos is not None or self.rng is not None:
            return None
        return super().reserve(chunk, at, src, up)

    def _next(self, _ev=None) -> None:
        """The wire is free: start the next queued chunk, or go idle."""
        while self._queue:
            chunk = self._queue.popleft()
            if self._parked:
                self._admit_parked()  # the chunk's slot is free
            if self._start(chunk):
                return
            if self.rng is not None:
                # a dark link swallowed it; with a drop stream that empty
                # turn still ends in its own event
                self.env.timeout(0).callbacks.append(self._next)
                return
        self._serving = False

    def _start(self, chunk) -> bool:
        """Start service of ``chunk``; False if a dark link swallowed it."""
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

    def _begin(self, chunk, chaos) -> bool:
        bw = self.params.bandwidth_gbps
        if chaos is not None:
            if not chaos.up:
                self._drops += 1
                self.counters.add("link.chaos_drops")
                return False
            bw *= chaos.bw_scale
        self._attempt(chunk, serialization_ns(chunk.wire_bytes, bw),
                      0.0 if self.rng is None else self.params.drop_rate)
        return True

    def _attempt(self, chunk, ser, drop_rate, _ev=None):
        """One attempt: failed or not, it occupies the wire for ``ser``."""
        counters = self.counters
        timeout = self.env.timeout
        self._busy_ns += ser
        self._end = self.env.now + ser
        if drop_rate > 0.0 and self.rng.random() < drop_rate:
            self._drops += 1
            counters.add("link.drops")
            if self.params.loss_mode == "lossy":
                counters.add("link.lost_bytes", chunk.wire_bytes)
                timeout(ser).callbacks.append(self._next)
            else:
                counters.add("link.retrans_bytes", chunk.wire_bytes)
                timeout(ser + link_module.RETRANSMIT_NS).callbacks.append(
                    partial(self._attempt, chunk, ser, drop_rate))
            return
        self._chunks += 1
        self._bytes += chunk.wire_bytes
        counters.add("link.chunks")
        counters.add("link.bytes", chunk.wire_bytes)
        timeout(ser).callbacks.append(partial(self._sent, chunk))

    def _sent(self, chunk, _ev) -> None:
        """Off the wire: propagation, sampled now from the chaos state of
        this instant, overlaps with serialising the next chunk."""
        delay = self.latency_ns
        chaos = self.chaos
        if chaos is not None:
            delay += chaos.latency_add_ns
            if chaos.jitter_ns and chaos.rng is not None:
                delay += int(chaos.rng.integers(0, chaos.jitter_ns))
        self._arm(chunk, self.env.now + delay, False)
        self._next()
