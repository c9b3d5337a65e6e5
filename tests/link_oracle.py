"""Reference link: the literal one-chunk-at-a-time server.

A bounded :class:`~repro.sim.resources.Store` in front of a process that
takes one chunk, sleeps through its serialisation, and hands it on one
propagation latency later — the statement of what a clean
:class:`repro.fabric.link.Link` must be observably identical to while it
*computes* that schedule instead of running it.  Test tree only;
``tests/test_fabric_link.py`` drives generated scripts through both.
"""

from __future__ import annotations

from functools import partial

from repro.sim.resources import Store
from repro.sim.trace import Counters
from repro.util.units import serialization_ns


class OracleLink:
    def __init__(self, env, params, name, counters=None, queue_depth=16):
        self.env = env
        self.params = params
        self.name = name
        self.counters = counters or Counters()
        # the same surface as Link: ``inbox`` is the link, and a put nobody
        # waits on is the fire-and-forget one
        self.inbox = self
        self._store = Store(env, capacity=queue_depth)
        self.put = self.put_discard = self._store.put
        self.sink = None
        self._busy_ns = self._chunks = self._bytes = 0
        env.process(self._server(), name=f"oracle:{name}")

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
            arrival = self.env.timeout(self.params.latency_ns)
            arrival.callbacks.append(partial(self._deliver, chunk))

    def _deliver(self, chunk, _ev) -> None:
        chunk.hop += 1
        if chunk.hop < len(chunk.path):
            chunk.path[chunk.hop].put_discard(chunk)
        else:
            self.sink(chunk)
