"""Ledger channels: Photon's remotely written circular buffers, per peer.

A *ledger* is a ring of fixed-size entries in the consumer's registered
memory, RDMA-written by one remote producer.  Each direction of a peer
pairing has four: completion notifications (PWC), eager messages,
rendezvous info entries and FINs.  One :class:`PeerChannel` holds both
directions of the four as plain state, and its transitions return what
to post; :class:`~repro.photon.base.PhotonBase` posts, waits and calls
back.  A channel reads sequence and credit words straight from the
buffer it is given (the rank's ``memory.data``, or a ``bytearray``) and
writes nothing there.

Flow control is credit-based: the producer counts ``produced`` and reads
a *credit word* the consumer RDMA-writes back (``available = nslots -
(produced - credit)``); the consumer counts ``consumed`` and returns
credit once ``CREDIT_FRACTION`` of the ring is drained.  The producer
stamps each entry ``seq = produced + 1``, and the slot at the consumer's
read index is ready when its sequence word is ``consumed + 1``; an eager
entry also ends with a copy of its sequence, so a partly placed
multi-chunk entry is never consumed.  :class:`Geometry` places every
ledger word: region base + peer index × stride + an offset per ring and
kind (consumer ring, producer staging, credit word, credit staging).
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Set, Tuple

from ..sim.core import SimulationError
from .wire import (COMPLETION_ENTRY_SIZE, CREDIT_WORD_SIZE,
                   EAGER_HEADER_SIZE, EAGER_SIZE_OFFSET, FIN_ENTRY_SIZE,
                   INFO_ENTRY_SIZE)

__all__ = ["Geometry", "PeerChannel", "RING_NAMES", "CMP", "EAGER", "INFO",
           "FIN", "COVERED", "REWRITE", "CLAIM"]

#: the ring kinds, in scan order; a kind indexes every per-ring list
CMP, EAGER, INFO, FIN = range(4)
RING_NAMES = ("cmp", "eager", "info", "fin")
_KINDS = (CMP, EAGER, INFO, FIN)
#: entries per peer in the rendezvous info ring and in the FIN ring
INFO_ENTRIES = 32
FIN_ENTRIES = 32
#: a consumer returns ledger credits after this fraction of the ring
CREDIT_FRACTION = 0.5
#: what a replayed entry does (:meth:`PeerChannel.replay`)
COVERED, REWRITE, CLAIM = "covered", "rewrite", "claim"

#: must match :mod:`repro.fabric.memory`'s sequence-word layout
_U64 = struct.Struct("<Q")
_u64 = _U64.unpack_from
_size = struct.Struct("<i").unpack_from


class Geometry:
    """Per ring kind: ``slots``, entry ``sizes``, and the offsets in a
    per-peer block of the consumer ring (``cons``), the producer's
    staging mirror (``stage``), the credit word the peer writes
    (``credit``) and the staged credit word sent back (``credit_stage``).
    """

    def __init__(self, slots: Tuple[int, ...], sizes: Tuple[int, ...]):
        self.slots = slots
        self.sizes = sizes
        self.nbytes = tuple(n * s for n, s in zip(slots, sizes))
        self.credit_every = tuple(max(1, int(n * CREDIT_FRACTION))
                                  for n in slots)
        rings = sum(self.nbytes)
        self.cons = tuple(sum(self.nbytes[:k]) for k in _KINDS)
        self.stage = tuple(rings + off for off in self.cons)
        self.credit = tuple(2 * rings + CREDIT_WORD_SIZE * k for k in _KINDS)
        self.credit_stage = tuple(off + CREDIT_WORD_SIZE * len(_KINDS)
                                  for off in self.credit)
        self.stride = 2 * rings + 2 * CREDIT_WORD_SIZE * len(_KINDS)

    @classmethod
    def of(cls, config) -> "Geometry":
        """A ``PhotonConfig``'s (an eager slot: header, payload, trailer)."""
        return cls((config.completion_entries, config.eager_slots,
                    INFO_ENTRIES, FIN_ENTRIES),
                   (COMPLETION_ENTRY_SIZE,
                    EAGER_HEADER_SIZE + config.eager_limit + _U64.size,
                    INFO_ENTRY_SIZE, FIN_ENTRY_SIZE))

    def block(self, base: int, owner: int, peer: int) -> int:
        """``peer``'s block in ``owner``'s region at ``base`` (peers in
        rank order, skipping the owner)."""
        return base + (peer - (peer > owner)) * self.stride


class PeerChannel:
    """Both directions of one peer pairing's four rings.

    Producer side: ``produced`` per kind, the ``epoch`` claims belong to
    and the dedup id allocator ``tx_op_seq``.  Consumer side: per kind
    ``consumed``, ``credit_sent`` and the ``head`` slot address, and the
    dedup window (ids ``<= rx_hwm`` or in ``rx_seen`` were delivered).
    ``local`` / ``remote`` are this rank's block for the peer and the
    peer's for this rank; ``rkey`` is the peer's ledger key.
    """

    def __init__(self, geometry: Geometry, buf, local: int, remote: int,
                 rkey: int):
        self.geometry = geometry
        self.buf = buf
        self.local = local
        self.remote = remote
        self.rkey = rkey
        self.epoch = 0
        self.produced = [0, 0, 0, 0]
        self.tx_op_seq = 0
        self.consumed = [0, 0, 0, 0]
        self.credit_sent = [0, 0, 0, 0]
        self.head = [local + off for off in geometry.cons]
        self.rx_hwm = 0
        self.rx_seen: Set[int] = set()

    def watched(self) -> List[Tuple[int, int]]:
        """What the peer writes, in watch order: the four consumer rings,
        then the four (contiguous) credit words."""
        g = self.geometry
        return [(self.local + g.cons[k], g.nbytes[k]) for k in _KINDS] + [
            (self.local + g.credit[CMP], CREDIT_WORD_SIZE * len(_KINDS))]

    # ------------------------------------------------------------- producer
    def credit(self, k: int) -> int:
        """Entries of ring ``k`` the peer has acknowledged draining."""
        return _u64(self.buf, self.local + self.geometry.credit[k])[0]

    def available(self, k: int) -> int:
        in_flight = self.produced[k] - self.credit(k)
        if in_flight < 0:
            raise SimulationError(
                f"ring {RING_NAMES[k]}: credit {self.credit(k)} ahead of "
                f"produced {self.produced[k]}")
        return self.geometry.slots[k] - in_flight

    def claim(self, k: int, op_id: int,
              build: Callable[[int, int], bytes]
              ) -> Tuple[int, int, bytes, int, int]:
        """Take ring ``k``'s next slot for the entry ``build(seq, op_id)``:
        ``(op_id, seq, entry, staging address, remote address)``.  Only a
        completion entry or eager header carries a dedup id (drawn here
        if the op has none yet); an eager entry gets its trailer."""
        g = self.geometry
        if self.available(k) <= 0:
            raise SimulationError(f"ring {RING_NAMES[k]} is full")
        off = (self.produced[k] % g.slots[k]) * g.sizes[k]
        self.produced[k] = seq = self.produced[k] + 1
        if not op_id and k <= EAGER:
            self.tx_op_seq = op_id = self.tx_op_seq + 1
        entry = build(seq, op_id)
        if k == EAGER:
            entry += _U64.pack(seq)
        if len(entry) > g.sizes[k]:
            raise SimulationError(
                f"entry of {len(entry)}B exceeds {RING_NAMES[k]} slot")
        return (op_id, seq, entry, self.local + g.stage[k] + off,
                self.remote + g.cons[k] + off)

    def replay(self, k: int, epoch: int, seq: int) -> str:
        """A replay of the entry claimed as ``(epoch, seq)`` in ring
        ``k``: ``COVERED`` once the peer's credit covers it (credit is an
        ack), else ``REWRITE`` the same slot, or ``CLAIM`` afresh after a
        reset restarted the sequence space."""
        if epoch != self.epoch:
            return CLAIM
        return COVERED if seq <= self.credit(k) else REWRITE

    # ------------------------------------------------------------- consumer
    def pending(self) -> bool:
        """Is any ring's head entry ready, or does any ring owe credit?"""
        buf, head, consumed = self.buf, self.head, self.consumed
        sent, every = self.credit_sent, self.geometry.credit_every
        for k in _KINDS:
            done = consumed[k]
            if (_u64(buf, head[k])[0] == done + 1
                    or done - sent[k] >= every[k]):
                return True
        return False

    def take(self, k: int) -> Optional[int]:
        """Ring ``k``'s head entry address, advancing past it; None while
        its sequence word (and an eager entry's trailer) is not the next
        one."""
        buf, head = self.buf, self.head[k]
        seq = self.consumed[k] + 1
        if _u64(buf, head)[0] != seq:
            return None
        if k == EAGER and _u64(buf, head + EAGER_HEADER_SIZE + _size(
                buf, head + EAGER_SIZE_OFFSET)[0])[0] != seq:
            return None
        self.consumed[k] = seq
        g = self.geometry
        nxt = head + g.sizes[k]
        base = self.local + g.cons[k]
        self.head[k] = base if nxt == base + g.nbytes[k] else nxt
        return head

    def fresh(self, op_id: int) -> bool:
        """Deliver dedup id ``op_id`` (0: none); False if already done.
        ``rx_seen`` holds the ids above the high-water mark, and empties
        as the gaps fill: every id a producer draws goes into an entry."""
        if op_id == 0:
            return True
        if op_id <= self.rx_hwm or op_id in self.rx_seen:
            return False
        seen = self.rx_seen
        seen.add(op_id)
        while self.rx_hwm + 1 in seen:
            self.rx_hwm += 1
            seen.discard(self.rx_hwm)
        return True

    def credit_due(self, k: int) -> bool:
        return (self.consumed[k] - self.credit_sent[k]
                >= self.geometry.credit_every[k])

    def mark_credit_sent(self, k: int) -> None:
        self.credit_sent[k] = self.consumed[k]

    def credit_word(self, k: int) -> Tuple[int, int, int]:
        """``(value, staging address, remote address)`` of ring ``k``'s
        credit word, as last marked sent (the word is absolute)."""
        g = self.geometry
        return (self.credit_sent[k], self.local + g.credit_stage[k],
                self.remote + g.credit[k])

    # ------------------------------------------------------------- epoch
    def reset(self, rkey: Optional[int] = None) -> List[Tuple[int, int]]:
        """A new epoch after a crash on either side: both sequence spaces
        and the dedup window restart, under the peer's new ``rkey`` if
        given.  Returns the ranges to zero so no stale sequence aliases a
        fresh one: per ring, its slots, credit word and credit staging."""
        g = self.geometry
        self.epoch += 1
        self.produced = [0, 0, 0, 0]
        self.tx_op_seq = 0
        self.consumed = [0, 0, 0, 0]
        self.credit_sent = [0, 0, 0, 0]
        self.head = [self.local + off for off in g.cons]
        self.rx_hwm = 0
        self.rx_seen.clear()
        if rkey is not None:
            self.rkey = rkey
        out = []
        for k in _KINDS:
            out += [(self.local + g.cons[k], g.nbytes[k]),
                    (self.local + g.credit[k], CREDIT_WORD_SIZE),
                    (self.local + g.credit_stage[k], CREDIT_WORD_SIZE)]
        return out
