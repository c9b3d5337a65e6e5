"""Per-rank host memory with a pinning (registration) cost model.

Memory is a real buffer: every simulated RDMA operation moves real bytes,
so tests can assert payload integrity end-to-end.  Addresses are byte
offsets into the rank's flat space, handed out by a bump allocator.

The backing store is an anonymous ``mmap`` — the kernel hands out
zero-filled pages lazily, so a 64 MiB rank costs microseconds to create
instead of a 64 MiB memset, and untouched address space never becomes
resident.  ``read`` returns a zero-copy :class:`memoryview` into that
store; callers that retain a payload across simulated time (ring slots are
recycled, scratch buffers are reused) take an owned snapshot with
:meth:`read_bytes`.

Registration ("pinning") mirrors the cost structure of ``ibv_reg_mr``: a
fixed syscall cost plus a per-page cost.  The Memory object only *computes*
costs; callers (verbs layer, registration cache) charge them on the event
loop so the accounting lives where the time is spent.
"""

from __future__ import annotations

import math
import mmap
import struct
from collections import Counter
from typing import Counter as CounterT

from ..sim.core import SimulationError
from .params import HostParams

__all__ = ["Memory", "MemoryError_", "OutOfMemory"]

_U64 = struct.Struct("<Q")


class MemoryError_(SimulationError):
    """Bad address/range passed to a memory operation."""


class OutOfMemory(SimulationError):
    """The bump allocator ran out of simulated memory."""


class Memory:
    """Flat byte-addressable memory for one simulated rank."""

    def __init__(self, size: int, host: HostParams, rank: int = -1):
        if size <= 0:
            raise MemoryError_("memory size must be positive")
        self.size = size
        self.host = host
        self.rank = rank
        # anonymous mapping: zero-initialised like the old bytearray, but
        # pages materialise on first touch instead of one up-front memset
        self._mm = mmap.mmap(-1, size)
        self.data = memoryview(self._mm)
        self._brk = 0
        #: bumped when a mutation touches a watched range (or on reset).
        #: Pollers that watch memory-resident structures (ledger rings)
        #: compare it to skip re-scanning when nothing relevant landed
        #: since their last look — see :meth:`watch`.
        self.watch_version = 0
        #: called (no arguments) on every such bump — how a poller that
        #: sleeps between looks learns a watched write landed
        self.on_watched_write: list = []
        self._watch_ranges: set = set()
        self._watch_list: list = []
        # envelope over all watched ranges: one compare rejects most writes
        self._watch_lo = self.size
        self._watch_hi = 0
        #: page -> number of registrations pinning it.  Refcounted so
        #: overlapping MRs (the registration cache merges and splits
        #: regions) account correctly: a page stays pinned until the last
        #: registration covering it is dropped.
        self._pinned_pages: CounterT[int] = Counter()

    # -- allocation ----------------------------------------------------------
    def alloc(self, size: int, align: int = 8) -> int:
        """Reserve ``size`` bytes; returns the base address."""
        if size <= 0:
            raise MemoryError_(f"alloc of non-positive size {size}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise MemoryError_(f"alignment {align} is not a power of two")
        base = (self._brk + align - 1) & ~(align - 1)
        if base + size > self.size:
            raise OutOfMemory(
                f"rank {self.rank}: alloc({size}) exceeds {self.size}-byte heap")
        self._brk = base + size
        return base

    @property
    def bytes_allocated(self) -> int:
        return self._brk

    def reset(self) -> None:
        """Crash semantics: contents and pins are lost; the allocation map
        survives (a restarted rank re-arms its structures in place, as if
        the same binary re-ran the same allocation sequence)."""
        if self._brk:
            self._mm[:self._brk] = b"\x00" * self._brk
        self._pinned_pages.clear()
        self.watch_version += 1

    # -- access ---------------------------------------------------------------
    def _check(self, addr: int, length: int) -> None:
        if length < 0:
            raise MemoryError_(f"negative length {length}")
        if addr < 0 or addr + length > self.size:
            raise MemoryError_(
                f"rank {self.rank}: access [{addr}, {addr + length}) outside "
                f"[0, {self.size})")

    def watch(self, addr: int, length: int) -> None:
        """Register [addr, addr+length) as a watched range.

        Any later mutation intersecting a watched range bumps
        :attr:`watch_version`; pollers snapshot the counter to skip
        re-reading structures nothing has written to.  Re-registering an
        identical range (ring re-arm after a crash) is a no-op.
        """
        self._check(addr, length)
        r = (addr, addr + length)
        if r in self._watch_ranges:
            return
        self._watch_ranges.add(r)
        self._watch_list.append(r)
        if r[0] < self._watch_lo:
            self._watch_lo = r[0]
        if r[1] > self._watch_hi:
            self._watch_hi = r[1]
        self.watch_version += 1

    def _touch(self, addr: int, end: int) -> None:
        if addr < self._watch_hi and end > self._watch_lo:
            for lo, hi in self._watch_list:
                if addr < hi and end > lo:
                    self.watch_version += 1
                    for ring in self.on_watched_write:
                        ring()
                    return

    def read(self, addr: int, length: int) -> memoryview:
        """Zero-copy view of [addr, addr+length).

        The view aliases live memory: it reflects later writes to the same
        range.  Callers that keep the payload across simulated time (or
        across a buffer reuse) must snapshot with :meth:`read_bytes`.
        """
        self._check(addr, length)
        return self.data[addr:addr + length]

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Owned ``bytes`` copy of [addr, addr+length)."""
        self._check(addr, length)
        return bytes(self.data[addr:addr + length])

    def write(self, addr: int, payload) -> None:
        """Copy ``payload`` (any buffer: bytes/bytearray/memoryview) into
        memory at ``addr``.  The range is validated *before* any byte
        lands, so a rejected write never mutates memory."""
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            payload = memoryview(payload)
        n = len(payload)
        self._check(addr, n)
        if isinstance(payload, memoryview) and payload.obj is self._mm:
            # self-aliasing copy (e.g. loopback into an overlapping range):
            # snapshot the source first — slice assignment between
            # overlapping views of one mmap is not defined to memmove
            payload = payload.tobytes()
        self.data[addr:addr + n] = payload
        if addr < self._watch_hi:
            self._touch(addr, addr + n)

    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        return _U64.unpack_from(self.data, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        _U64.pack_into(self.data, addr, value & 0xFFFFFFFFFFFFFFFF)
        if addr < self._watch_hi:
            self._touch(addr, addr + 8)

    # -- pinning cost model -----------------------------------------------------
    def _page_range(self, addr: int, length: int) -> range:
        page = self.host.page_size
        first = addr // page
        last = (addr + max(length, 1) - 1) // page
        return range(first, last + 1)

    def pages_spanned(self, addr: int, length: int) -> int:
        return len(self._page_range(addr, length))

    def pin_cost_ns(self, addr: int, length: int) -> int:
        """Cost to register [addr, addr+length): base + per *new* page."""
        self._check(addr, length)
        new_pages = sum(1 for p in self._page_range(addr, length)
                        if p not in self._pinned_pages)
        return self.host.reg_base_ns + self.host.reg_per_page_ns * new_pages

    def pin(self, addr: int, length: int) -> None:
        """Mark the pages of [addr, addr+length) pinned (cost charged by caller)."""
        self._check(addr, length)
        self._pinned_pages.update(self._page_range(addr, length))

    def unpin(self, addr: int, length: int) -> None:
        self._check(addr, length)
        for p in self._page_range(addr, length):
            n = self._pinned_pages.get(p, 0)
            if n <= 1:
                self._pinned_pages.pop(p, None)
            else:
                self._pinned_pages[p] = n - 1

    @property
    def pinned_pages(self) -> int:
        return len(self._pinned_pages)

    def memcpy_cost_ns(self, length: int) -> int:
        """Host-to-host copy cost for ``length`` bytes."""
        if length <= 0:
            return 0
        return max(1, math.ceil(length * 8.0 / self.host.memcpy_gbps))
