"""Reference ARQ: the literal one-process-per-message retry monitor.

:class:`OracleNic` runs the lossy-mode end-to-end recovery the way the
model first stated it — a generator per message that sleeps on
``any_of([ack, deadline])`` and re-injects every copy through a blocking
``put`` — the statement of what :class:`repro.fabric.nic.Nic`'s record and
two timers must be observably identical to.  Test tree only, in the
``tests/heap_oracle.py`` / ``tests/link_oracle.py`` mould: production code
has no hook for it.  It lets the production ``_stream`` run, withdraws the
record that armed, and starts the monitor in its place; the receiver's
``msg.ack_event.ack()`` lands on an :class:`AckEvent`.
``tests/test_fabric_arq.py`` drives generated scripts through both.

Two same-nanosecond ties are decided differently and are not defects of
either side: a deadline that fires in the nanosecond the ack lands *after*
it (the monitor wakes two zero-delay events later and sees the ack; the
record's callback has already retransmitted) — counted in
:attr:`OracleNic.ties` so a comparison can set such a script aside — and
another message offered to the first hop in the nanosecond of a
re-injection (the monitor's copies go in one event apart, the record's
together).
"""

from __future__ import annotations

from repro.fabric.link import Chunk
from repro.fabric.nic import Nic
from repro.sim.core import Event
from repro.util.units import serialization_ns


class AckEvent(Event):
    __slots__ = ()

    def ack(self) -> None:
        if not self.triggered:
            self.succeed()


class OracleNic(Nic):
    #: deadline-then-ack ties this NIC met (see module docstring)
    ties = 0

    def _stream(self, msg):
        yield from super()._stream(msg)
        record = msg.ack_event
        if record is not None:
            self.env.unschedule(record.timer, record.due)
            self._arqs.discard(record)
            msg.ack_event = AckEvent(self.env)
            self.env.process(
                self._retry_monitor(msg, record.chunks, record.chunks[0].path),
                name=f"nic{self.rank}:arq")

    def _retry_monitor(self, msg, chunks, path):
        nic = self.params.nic
        link = self.params.link
        span = self.counters.span("nic.arq", self.env.now, peer=msg.dst,
                                  nbytes=msg.nbytes)
        total_wire = sum(c.wire_bytes for c in chunks)
        rtt = (serialization_ns(total_wire, link.bandwidth_gbps)
               + 2 * self.topology.path_latency_ns(self.rank, msg.dst)
               + nic.ack_overhead_ns + nic.delivery_ns)
        timeout_ns = nic.ack_timeout_ns + rtt
        for attempt in range(nic.transport_retries + 1):
            deadline = self.env.timeout(timeout_ns)
            yield self.env.any_of([msg.ack_event, deadline])
            if deadline.processed and msg.ack_event.triggered \
                    and not msg.ack_event.processed:
                self.ties += 1
            if self.down:
                return
            if msg.ack_event.triggered:
                if span is not None:
                    span.end(self.env.now, retries=attempt)
                return
            self.counters.add("nic.ack_timeouts")
            if attempt == nic.transport_retries:
                break
            self.counters.add("nic.retransmits")
            for c in chunks:
                copy = Chunk(msg, c.offset, c.size, c.wire_bytes,
                             c.is_first, c.is_last, path)
                copy.data = c.data
                yield path[0].inbox.put(copy)
        self.counters.add("nic.retry_exhausted")
        if span is not None:
            span.end(self.env.now, status="exhausted",
                     retries=nic.transport_retries)
        self.tracer.log(self.env.now, "nic.retry_exhausted", src=self.rank,
                        dst=msg.dst, kind=msg.kind, nbytes=msg.nbytes)
        if msg.on_error is not None:
            msg.on_error()
