"""Ledger rings: Photon's remotely written circular buffers.

A *ledger* is a fixed-size ring of fixed-size entries in the consumer's
registered memory, RDMA-written by exactly one remote producer.  Photon
uses four per peer-pair: completion notifications (PWC), eager message
slots, rendezvous info entries and FIN entries.

Flow control is credit-based, as in the real system's ledger acks:

- the producer tracks ``produced`` and reads a local *credit word* that the
  consumer RDMA-writes back; ``available = nslots - (produced - credit)``.
- the consumer advances ``consumed`` as it drains entries and returns a
  credit update after a configurable fraction of the ring has been drained
  (one tiny write amortised over many entries).

Entry validity is sequence-based: the producer stamps each entry with
``seq = produced + 1``; the slot at the consumer's read index is ready
exactly when its sequence word equals ``consumed + 1``.  Multi-chunk eager
entries additionally carry a trailing sequence copy after the payload so a
partially placed entry is never consumed (see :mod:`repro.photon.wire`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from ..fabric.memory import Memory
from ..sim.core import SimulationError

#: must match :mod:`repro.fabric.memory`'s sequence-word layout
_U64 = struct.Struct("<Q")

__all__ = ["RingSpec", "RemoteRing", "LocalRing"]

#: a consumer returns ledger credits after this fraction of the ring
CREDIT_FRACTION = 0.5


@dataclass(frozen=True)
class RingSpec:
    """Geometry of one ring."""

    name: str
    nslots: int
    entry_size: int

    @property
    def nbytes(self) -> int:
        return self.nslots * self.entry_size

    def slot_offset(self, index: int) -> int:
        return (index % self.nslots) * self.entry_size


class RemoteRing:
    """Producer-side view of a ring living in a peer's memory.

    The producer also owns a same-sized *staging* area in its own memory:
    entry bytes are composed into the staging slot for the claimed index
    and the RDMA write fetches from there, so in-flight entries are never
    overwritten (a remote slot cannot be reused before the peer returns
    credit for it, by which time the fetch has long completed).
    """

    def __init__(self, spec: RingSpec, remote_base: int, rkey: int,
                 staging_base: int, credit_addr: int, memory: Memory):
        self.spec = spec
        self.remote_base = remote_base
        self.rkey = rkey
        self.staging_base = staging_base
        self.credit_addr = credit_addr
        self.memory = memory
        self.produced = 0
        #: bumped by every :meth:`reset`: a (generation, seq) names one
        #: slot claim for good
        self.generation = 0

    @property
    def credit(self) -> int:
        """Entries the consumer has acknowledged draining."""
        return self.memory.read_u64(self.credit_addr)

    def available(self) -> int:
        in_flight = self.produced - self.credit
        if in_flight < 0:
            raise SimulationError(
                f"ring {self.spec.name}: credit {self.credit} ahead of "
                f"produced {self.produced}")
        return self.spec.nslots - in_flight

    def claim(self) -> Tuple[int, int, int]:
        """Take the next slot; returns (seq, staging_addr, remote_addr).

        Caller must have checked :meth:`available`.
        """
        if self.available() <= 0:
            raise SimulationError(f"ring {self.spec.name} is full")
        off = self.spec.slot_offset(self.produced)
        self.produced += 1
        return (self.produced, self.staging_base + off, self.remote_base + off)

    def reset(self) -> None:
        """Re-arm after a crash on either side: sequence space restarts.

        The consumer zeroes its ring memory and credit word in the same
        re-arm step, so the fresh producer's ``seq = 1`` entry is again
        the first valid one.
        """
        self.produced = 0
        self.generation += 1


class LocalRing:
    """Consumer-side view of a ring in this rank's memory.

    :meth:`ready` is the single hottest call in a Photon run — every
    progress pass polls it for all four rings of every peer, and almost
    every poll misses.  The head-slot address is therefore kept as an
    int that :meth:`advance` steps by one entry, wrapping at the ring's
    end (no modulo per poll), and the sequence word is read straight off
    the rank memoryview, skipping the
    :class:`~repro.fabric.memory.Memory` bounds check — the whole ring
    was validated at construction, and the head never leaves it.
    """

    def __init__(self, spec: RingSpec, base: int, memory: Memory,
                 producer_credit_addr: int, producer_rkey: int):
        self.spec = spec
        self.base = base
        self.memory = memory
        #: where (in the producer's memory) credit updates are written
        self.producer_credit_addr = producer_credit_addr
        self.producer_rkey = producer_rkey
        self.consumed = 0
        self.credit_sent = 0
        self._credit_every = max(1, int(spec.nslots * CREDIT_FRACTION))
        # writes landing in the ring bump memory.watch_version, letting
        # the progress loop skip whole scan passes (see PhotonBase); the
        # watch also bounds-checks the ring the fast poll reads unchecked
        memory.watch(base, spec.nbytes)
        self._head = base
        self._end = base + spec.nbytes
        # fast-poll state: Memory.data is created once and never replaced
        # (crash wipes the mmap in place), so the view stays valid
        self._data = memory.data
        self._unpack = _U64.unpack_from

    def head_addr(self) -> int:
        return self._head

    def ready(self) -> bool:
        """Is the entry at the read index complete?"""
        return (self._unpack(self._data, self._head)[0]
                == self.consumed + 1)

    def advance(self) -> None:
        self.consumed += 1
        head = self._head + self.spec.entry_size
        self._head = self.base if head == self._end else head

    def credit_due(self) -> bool:
        return self.consumed - self.credit_sent >= self._credit_every

    def mark_credit_sent(self) -> int:
        """Record that a credit update for ``consumed`` is on the wire."""
        self.credit_sent = self.consumed
        return self.consumed

    def reset(self) -> None:
        """Re-arm after a crash on either side (see ``RemoteRing.reset``)."""
        self.consumed = 0
        self.credit_sent = 0
        self._head = self.base
