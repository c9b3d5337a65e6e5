"""Parcel coalescing: batch small parcels per destination.

Message-driven runtimes amortise per-message overhead by packing many
small parcels bound for the same rank into one network message (AM++'s
coalescing buffers; HPX-5 does the same over Photon; Seriema's
invocation coalescing is the RPC-layer version).  This layer wraps any
transport:

- ``send`` appends the encoded parcel to the destination's open batch and
  ships the batch when it reaches ``flush_bytes`` / ``flush_count``;
- ``poll`` unpacks batches from the underlying transport and hands the
  contained parcels out one at a time — and when it finds nothing, its
  rank is idle and about to park: nothing more can join an open batch,
  so every open batch ships there.  A batch waits only while its rank is
  busy, and then at most ``MAX_DELAY_NS`` (``flush_stale``, from every
  ``poll`` and from the scheduler between local dispatches).

Failure handling is deliberate rather than accidental: when the inner
transport raises :class:`~repro.runtime.transport.PeerDownError` mid-
ship (the rank's failure detector has declared the destination dead), the batch
is **shed** — every parcel it carried is counted in the
``coalesce.parcels_dropped`` counter, and the error propagates to the
sender (``flush_stale``, which has no sender, swallows it).

A crash of the rank drops every open batch and every unpacked parcel not
yet handed out, counted the same way: the restarted rank ships and runs
nothing its previous incarnation staged.

The batch wire format is a chain of ``(u32 length, bytes)`` records.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, Dict, List, Optional

from ..sim.core import SimulationError
from .transport import PeerDownError, Transport

__all__ = ["CoalescingTransport"]

_LEN = struct.Struct("<I")
#: host cost to parse one frame header and hand the parcel out (ns)
_PARSE_NS = 40
#: the longest a batch waits while its rank is busy (ns)
MAX_DELAY_NS = 5_000


class _Batch:
    __slots__ = ("chunks", "nbytes", "opened_at")

    def __init__(self, now: int):
        self.chunks: List[bytes] = []
        self.nbytes = 0
        self.opened_at = now


class CoalescingTransport(Transport):
    """Batches small parcels per destination over an inner transport."""

    kind = "coalescing"

    def __init__(self, inner: Transport, flush_bytes: int = 4096,
                 flush_count: int = 16):
        if flush_bytes < 64 or flush_count < 1:
            raise SimulationError("unreasonable coalescing thresholds")
        super().__init__(inner, inner.counters, inner.max_parcel)
        self.inner = inner
        self.flush_bytes = flush_bytes
        self.flush_count = flush_count
        self._open: Dict[int, _Batch] = {}
        self._ready: Deque[bytes] = deque()
        self.node.on_crash.append(self._on_crash)

    def _on_crash(self) -> None:
        """The rank crashed: shed what it staged (module docstring)."""
        dropped = len(self._ready) + sum(len(b.chunks) // 2
                                         for b in self._open.values())
        if dropped:
            self.counters.add("coalesce.parcels_dropped", dropped)
        self._open.clear()
        self._ready.clear()

    # ------------------------------------------------------------- sending
    def send(self, dst: int, raw: bytes):
        """Queue one encoded parcel; ships the batch at the thresholds
        (generator)."""
        framed_len = _LEN.size + len(raw)
        batch = self._open.get(dst)
        if batch is None:
            batch = self._open[dst] = _Batch(self.env.now)
        elif batch.nbytes + framed_len > self.flush_bytes:
            yield from self._ship(dst, "full")
            batch = self._open.get(dst)
            if batch is None:
                batch = self._open[dst] = _Batch(self.env.now)
        batch.chunks.append(_LEN.pack(len(raw)))
        batch.chunks.append(raw)
        batch.nbytes += framed_len
        if (len(batch.chunks) // 2 >= self.flush_count
                or batch.nbytes >= self.flush_bytes):
            yield from self._ship(dst, "full")

    def _ship(self, dst: int, why: str):
        """Hand ``dst``'s open batch to the wire (generator); ``why`` it
        leaves — full / stale / idle / flush — is counted."""
        batch = self._open.pop(dst, None)
        if batch is None or not batch.chunks:
            return
        open_ns = self.env.now - batch.opened_at
        try:
            yield from self.inner.send(dst, b"".join(batch.chunks))
        except PeerDownError:
            # shed: account for every parcel the batch carried, then let
            # the sender see the same error the inner transport raised
            self.counters.add("coalesce.parcels_dropped",
                              len(batch.chunks) // 2)
            raise
        self.counters.add("coalesce.batches_sent")
        self.counters.add("coalesce.ship." + why)
        self.counters.observe("coalesce.open_ns", open_ns)

    def flush(self, dst: Optional[int] = None):
        """Ship open batches now (generator) — call at phase boundaries."""
        targets = [dst] if dst is not None else list(self._open)
        for d in targets:
            yield from self._ship(d, "flush")

    def flush_stale(self, min_age_ns: Optional[int] = None):
        """Ship batches open for ``min_age_ns`` (default ``MAX_DELAY_NS``)
        or longer (generator).

        Every :meth:`poll` and the runtime scheduler between local
        dispatches call it, so the latency bound holds on a rank too busy
        to go idle.  A :class:`PeerDownError` never propagates out of
        here: the loss is counted and swallowed — there is no specific
        send to fail.
        """
        if min_age_ns is None:
            min_age_ns = MAX_DELAY_NS
        now = self.env.now
        for d, age in [(d, now - b.opened_at)
                       for d, b in self._open.items()]:
            if age < min_age_ns:
                continue
            try:
                yield from self._ship(
                    d, "stale" if age >= MAX_DELAY_NS else "idle")
            except PeerDownError:
                pass

    def next_deadline(self) -> Optional[int]:
        """The wire's: a rank that parks has shipped its open batches."""
        return self.inner.next_deadline()

    # ------------------------------------------------------------- receiving
    def poll(self):
        """Return the next parcel, unpacking inner batches (generator).
        One that finds nothing ships every open batch first: its caller
        is idle.  (A raw loop polling between ``send``s would therefore
        ship per poll; there is none.)"""
        yield from self.flush_stale()
        if self._ready:
            return self._ready.popleft()
        blob = yield from self.inner.poll()
        if blob is None:
            yield from self.flush_stale(0)
            return None
        offset = 0
        records = 0
        while offset < len(blob):
            (length,) = _LEN.unpack_from(blob, offset)
            offset += _LEN.size
            self._ready.append(blob[offset:offset + length])
            offset += length
            records += 1
        if offset != len(blob):
            raise SimulationError("corrupt coalesced batch")
        # unpack cost: copy the batch out + parse each frame header
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(blob))
                               + _PARSE_NS * records)
        return self._ready.popleft() if self._ready else None

    def stats(self) -> Dict[str, object]:
        """JSON-serializable state layered over the inner transport's
        (the counts are ``coalesce.*`` counters in the rank's scope)."""
        return {
            "kind": self.kind,
            "open_batches": len(self._open),
            "ready_parcels": len(self._ready),
            "inner": self.inner.stats(),
        }
