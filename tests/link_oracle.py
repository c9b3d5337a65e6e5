"""Reference links: the literal one-chunk-at-a-time server, and the link
without bookings.

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

Test tree only; ``tests/test_fabric_link.py`` drives generated scripts
through all three.
"""

from __future__ import annotations

from functools import partial

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
