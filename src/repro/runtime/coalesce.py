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
  busy, and then at most ``max_delay_ns`` (``flush_stale``, from every
  ``poll`` and from the scheduler between local dispatches).

Failure handling is deliberate rather than accidental: when the inner
transport raises :class:`~repro.runtime.transport.PeerDownError` mid-
ship, the batch is either **shed** (default — the loss is counted in
``parcels_dropped`` and the ``coalesce.parcels_dropped`` counter, and
the error propagates to the sender) or **requeued**
(``requeue_on_peer_down=True`` — the parcels go back into the open
batch, up to ``max_requeues`` times, so a recovering peer still gets
them).

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


class _Batch:
    __slots__ = ("chunks", "nbytes", "opened_at", "requeues")

    def __init__(self, now: int):
        self.chunks: List[bytes] = []
        self.nbytes = 0
        self.opened_at = now
        self.requeues = 0


class CoalescingTransport(Transport):
    """Batches small parcels per destination over an inner transport."""

    kind = "coalescing"

    def __init__(self, inner: Transport, flush_bytes: int = 4096,
                 flush_count: int = 16, max_delay_ns: int = 5_000,
                 requeue_on_peer_down: bool = False,
                 max_requeues: int = 1):
        if flush_bytes < 64 or flush_count < 1:
            raise SimulationError("unreasonable coalescing thresholds")
        super().__init__(inner, inner.counters, inner.max_parcel)
        self.inner = inner
        self.flush_bytes = flush_bytes
        self.flush_count = flush_count
        self.max_delay_ns = max_delay_ns
        self.requeue_on_peer_down = requeue_on_peer_down
        self.max_requeues = max_requeues
        self._open: Dict[int, _Batch] = {}
        self._ready: Deque[bytes] = deque()
        self.batches_sent = 0
        self.parcels_batched = 0
        self.parcels_dropped = 0

    # the breaker belongs to the wire: this layer keeps none of its own
    @property
    def breaker_log(self):
        return self.inner.breaker_log

    def attach_health(self, monitor) -> None:
        self.inner.attach_health(monitor)

    def peer_is_down(self, dst: int) -> bool:
        return self.inner.peer_is_down(dst)

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
        self.parcels_batched += 1
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
            n = len(batch.chunks) // 2
            if (self.requeue_on_peer_down
                    and batch.requeues < self.max_requeues):
                # put the parcels back so a recovering peer still gets
                # them; restart the staleness clock and merge anything
                # queued behind us while the send was in flight
                batch.requeues += 1
                batch.opened_at = self.env.now
                newer = self._open.get(dst)
                if newer is not None:
                    batch.chunks.extend(newer.chunks)
                    batch.nbytes += newer.nbytes
                self._open[dst] = batch
                self.counters.add("coalesce.parcels_requeued", n)
                return
            # shed: account for every parcel the batch carried, then let
            # the sender see the same error the inner transport raised
            self.parcels_dropped += n
            self.counters.add("coalesce.parcels_dropped", n)
            raise
        self.batches_sent += 1
        self.counters.add("coalesce.batches_sent")
        self.counters.add("coalesce.ship." + why)
        self.counters.observe("coalesce.open_ns", open_ns)

    def flush(self, dst: Optional[int] = None):
        """Ship open batches now (generator) — call at phase boundaries."""
        targets = [dst] if dst is not None else list(self._open)
        for d in targets:
            yield from self._ship(d, "flush")

    def flush_stale(self, min_age_ns: Optional[int] = None):
        """Ship batches open for ``min_age_ns`` (default ``max_delay_ns``)
        or longer (generator).

        Every :meth:`poll` and the runtime scheduler between local
        dispatches call it, so the latency bound holds on a rank too busy
        to go idle.  A tripped breaker never propagates out of here: in
        requeue mode down peers are skipped (no churn), in shed mode the
        loss is counted and swallowed — there is no specific send to fail.
        """
        if min_age_ns is None:
            min_age_ns = self.max_delay_ns
        now = self.env.now
        for d, age in [(d, now - b.opened_at)
                       for d, b in self._open.items()]:
            if age < min_age_ns or (self.requeue_on_peer_down
                                    and self.peer_is_down(d)):
                continue
            try:
                yield from self._ship(
                    d, "stale" if age >= self.max_delay_ns else "idle")
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
        """JSON-serializable snapshot layered over the inner transport's."""
        inner = self.inner.stats()
        return {
            "kind": self.kind,
            "peers": inner["peers"],
            "breaker_transitions": inner["breaker_transitions"],
            "batches_sent": self.batches_sent,
            "parcels_batched": self.parcels_batched,
            "parcels_dropped": self.parcels_dropped,
            "open_batches": len(self._open),
            "ready_parcels": len(self._ready),
            "inner": inner,
        }
