"""Registration cache: amortise memory-pinning cost across operations.

Photon registers user buffers on demand for one-sided operations; pinning
is expensive (syscall + per-page cost), so registrations are cached and
reused when a later operation's range falls inside a cached region.
Experiment R6 measures exactly this: cold vs warm registration on the put
path, plus lookup scaling with cache occupancy.

Lifecycle contract (see docs/API.md):

- :meth:`acquire` returns a covering :class:`MemoryRegion` and *pins* it
  with a refcount; every acquire must be paired with exactly one
  :meth:`release` (generator) or :meth:`release_async` (callback-safe)
  once the operation's work requests have settled.
- LRU eviction never deregisters an in-use region: victims with a nonzero
  refcount move to a pending-evict set and are deregistered when the last
  reference drops (``photon.rcache.deferred_evictions``).
- With the cache *disabled* every acquire registers and every release
  deregisters — the uncached baseline, now leak-free because releases are
  threaded through every call site.

Lookup is O(log n): entries are indexed by a sorted interval list, so a
covering lookup is one bisect plus a short leftward scan bounded by the
largest live entry length.  Adjacent or overlapping *unpinned*
registrations are coalesced into one covering registration on a miss,
keeping the scan near one probe in steady state.
Pinned entries are never absorbed by a merge — their rkeys were exchanged
with peers and must stay valid — and :meth:`insert` does not merge, so
overlapping entries are legal and the lookup tolerates them.

Capacity is an entry-count cap (``capacity``), enforced on every
miss/insert with LRU victim selection.  ``pinned_bytes`` accounts the
registered bytes; pending-evict entries still hold real pinned memory,
so they keep counting until their deferred deregistration actually
runs.  Every count (the peak R6 reports included) is a
``photon.rcache.*`` counter in the rank's metrics scope; the cache keeps
state only (:meth:`occupancy`).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..verbs.device import Context, ProtectionDomain
from ..verbs.enums import Access
from ..verbs.mr import MemoryRegion

__all__ = ["RegistrationCache", "CacheEntry", "assert_reg_balance"]


class CacheEntry:
    """One cached registration with its pin state."""

    __slots__ = ("mr", "refcount", "pinned", "held")

    def __init__(self, mr: MemoryRegion, pinned: bool = False):
        self.mr = mr
        #: live acquires not yet released
        self.refcount = 0
        #: never auto-evicted (bootstrap buffers exposed to peers)
        self.pinned = pinned
        #: references registered buffers own (dropped by unregister)
        self.held = 0

    @property
    def key(self) -> Tuple[int, int]:
        return (self.mr.addr, self.mr.length)


class RegistrationCache:
    """Refcounted LRU cache of memory registrations for one rank."""

    def __init__(self, context: Context, pd: ProtectionDomain,
                 capacity: int = 128, enabled: bool = True):
        if capacity < 1:
            raise ValueError("rcache capacity must be >= 1")
        self.context = context
        self.pd = pd
        self.capacity = capacity
        self.enabled = enabled
        self.env = context.env
        self.counters = context.counters
        #: LRU order over live entries, key = (addr, length)
        self._entries: "OrderedDict[Tuple[int, int], CacheEntry]" = \
            OrderedDict()
        #: sorted (addr, length) keys of live entries — the interval index
        self._index: List[Tuple[int, int]] = []
        #: rkey -> entry, live *and* pending-evict (release routes here)
        self._by_rkey: Dict[int, CacheEntry] = {}
        #: evicted-but-referenced entries awaiting their last release
        self._pending: Dict[int, CacheEntry] = {}
        #: disabled-mode loans: rkey -> MR, so release/balance stay exact
        self._loaned: Dict[int, MemoryRegion] = {}
        #: largest live entry length (bounds the lookup's leftward scan)
        self._max_len = 0
        self.pinned_bytes = 0
        #: high-water guard: ``set_max`` runs only when the peak rises
        self._pinned_peak = 0

    # ------------------------------------------------------------------ counts
    def _count(self, name: str, amount: int = 1) -> None:
        self.counters.add(f"photon.rcache.{name}", amount)

    def _note_pinned(self, delta: int) -> None:
        self.pinned_bytes += delta
        if self.pinned_bytes > self._pinned_peak:
            self._pinned_peak = self.pinned_bytes
            self.counters.set_max("photon.rcache.pinned_bytes_peak",
                                  self._pinned_peak)

    # ------------------------------------------------------------------ index
    def _defer(self, entry: CacheEntry) -> None:
        """Park an evicted-but-referenced entry on the pending list: its
        MR stays registered, and its bytes pinned, until the last release."""
        self._pending[entry.mr.rkey] = entry
        self._by_rkey[entry.mr.rkey] = entry
        self._note_pinned(entry.mr.length)
        self._count("deferred_evictions")

    def _pending_pop(self, rkey: int) -> Optional[CacheEntry]:
        """Remove a pending-evict entry; its MR is now due for dereg."""
        entry = self._pending.pop(rkey, None)
        if entry is not None:
            self._by_rkey.pop(rkey, None)
            self._note_pinned(-entry.mr.length)
        return entry

    def _index_add(self, entry: CacheEntry) -> None:
        key = entry.key
        old = self._entries.get(key)
        if old is not None:
            # exact-key collision: an entry invalidated behind our back,
            # or a concurrent miss of the same range while our reg was
            # charging pin cost — retire the old entry safely
            due = self._retire(old, prune=not old.mr.valid)
            if due is not None:
                self.env.process(self._dereg_many([due]), name="rcache:dereg")
        self._entries[key] = entry
        insort(self._index, key)
        self._by_rkey[entry.mr.rkey] = entry
        self._note_pinned(entry.mr.length)
        if entry.mr.length > self._max_len:
            self._max_len = entry.mr.length

    def _drop_entry(self, entry: CacheEntry, prune: bool = False) -> bool:
        """Remove a *live* entry from the index/LRU structures."""
        key = entry.key
        if self._entries.get(key) is not entry:
            return False  # already retired by a concurrent path
        del self._entries[key]
        i = bisect_right(self._index, key) - 1
        if 0 <= i < len(self._index) and self._index[i] == key:
            self._index.pop(i)
        if self._by_rkey.get(entry.mr.rkey) is entry:
            del self._by_rkey[entry.mr.rkey]
        self._note_pinned(-entry.mr.length)
        if prune:
            self._count("invalid_prunes")
        return True

    def _retire(self, entry: CacheEntry,
                prune: bool = False) -> Optional[MemoryRegion]:
        """The one way a live entry leaves the cache: drop it from the
        index and LRU, then park it on the pending list while an
        operation still references it.  Returns the MR now due for
        deregistration, if any, which the caller deregisters inline or
        spawns.  A ``prune`` (its MR was deregistered behind the cache's
        back) is only dropped."""
        if not self._drop_entry(entry, prune):
            return None
        if entry.refcount > 0 and not prune:
            self._defer(entry)
            return None
        return entry.mr if entry.mr.valid else None

    def _find_covering(self, addr: int, length: int) -> Optional[CacheEntry]:
        """O(log n) covering lookup (bisect + bounded candidate probes).

        Entries may overlap (pinned entries are never merged away and
        :meth:`insert` does not merge), so after the bisect the scan
        always continues leftward until an entry covers the range or no
        entry further left can reach ``addr`` (bounded by the largest
        live entry length).  Any valid covering entry is a correct hit.
        """
        i = bisect_right(self._index, (addr, 1 << 62)) - 1
        probes = 0
        hit = None
        while i >= 0:
            key = self._index[i]
            probes += 1
            entry = self._entries.get(key)
            if entry is None:  # pragma: no cover - index/LRU divergence
                i -= 1
                continue
            if not entry.mr.valid:
                # pruned lazily: deregistered behind the cache's back
                self._drop_entry(entry, prune=True)
                i -= 1
                continue
            if entry.mr.covers(addr, length):
                hit = entry
                break
            if key[0] + self._max_len <= addr:
                break  # nothing further left can reach addr
            i -= 1
        self._count("lookup_probes", probes)
        return hit

    # ------------------------------------------------------------------ acquire
    def acquire(self, addr: int, length: int,
                access: Access = Access.ALL):
        """Pin a registration covering [addr, addr+length) (generator).

        Charges the full pin cost on a miss, nothing extra on a hit.
        Returns the :class:`MemoryRegion`; the caller owns one reference
        and must pass the region to :meth:`release`/:meth:`release_async`
        when the operation's work requests have settled.
        """
        if self.enabled:
            entry = self._find_covering(addr, length)
            if entry is not None:
                self._count("hits")
                entry.refcount += 1
                self._entries.move_to_end(entry.key)
                return entry.mr
        self._count("misses")
        reg_addr, reg_len = addr, length
        absorbed: List[CacheEntry] = []
        if self.enabled:
            reg_addr, reg_len, absorbed = self._merge_span(addr, length)
        mr = yield from self.context.reg_mr(self.pd, reg_addr, reg_len, access)
        if not self.enabled:
            self._loaned[mr.rkey] = mr
            return mr
        entry = CacheEntry(mr)  # absorbed entries are never pinned
        entry.refcount = 1
        for old in absorbed:
            self._count("merges")
            due = self._retire(old)
            if due is not None:
                yield from self.context.dereg_mr(due)
        self._index_add(entry)
        for due in self._evict_over_cap():
            yield from self.context.dereg_mr(due)
        return mr

    def _merge_span(self, addr: int, length: int):
        """Union span of [addr, addr+length) with overlapping/adjacent
        live *unpinned* entries; returns (addr, length, absorbed_entries).

        Pinned entries are skipped — absorbing one would retire its MR
        and invalidate an rkey already exchanged with peers — and they do
        not extend the span, so a pinned region is never swallowed.  The
        new registration may overlap a pinned entry; :meth:`_find_covering`
        tolerates that overlap.
        """
        lo, hi = addr, addr + length
        absorbed: List[CacheEntry] = []
        i = bisect_right(self._index, (lo, 1 << 62))
        # walk left while entries touch the growing span
        j = i - 1
        while j >= 0:
            key = self._index[j]
            if key[0] + key[1] < lo:
                break
            entry = self._entries[key]
            if not entry.mr.valid:
                self._drop_entry(entry, prune=True)
            elif not entry.pinned:
                absorbed.append(entry)
                lo = min(lo, key[0])
                hi = max(hi, key[0] + key[1])
            j -= 1
        # walk right while entries touch the span
        while i < len(self._index):
            key = self._index[i]
            if key[0] > hi:
                break
            entry = self._entries[key]
            if not entry.mr.valid:
                self._drop_entry(entry, prune=True)
                continue
            if not entry.pinned:
                absorbed.append(entry)
                hi = max(hi, key[0] + key[1])
            i += 1
        return lo, hi - lo, absorbed

    def _evict_over_cap(self):
        """Retire LRU entries until the entry cap holds, yielding each MR
        due for deregistration as it goes (a plain iterator: the caller
        deregisters one before the next victim is chosen, or spawns it).
        Stops early when everything left is pinned."""
        while len(self._entries) > self.capacity:
            victim = next((e for e in self._entries.values() if not e.pinned),
                          None)
            if victim is None:
                return
            self._count("evictions")
            due = self._retire(victim)
            if due is not None:
                yield due

    # ------------------------------------------------------------------ insert
    def insert(self, mr: MemoryRegion, pinned: bool = False) -> MemoryRegion:
        """Seed an externally registered MR into the cache (bootstrap path).

        Enforces the entry-count cap like any miss (idle victims are
        deregistered by a spawned process so the dereg cost and counters
        land normally).  ``pinned`` entries are never auto-evicted, which
        is what :meth:`Photon.buffer` wants: an exposed buffer's
        rkey must stay valid for peers.  The entry holds no reference.
        Returns ``mr``.
        """
        if not self.enabled:
            self._loaned[mr.rkey] = mr
            return mr
        self._index_add(CacheEntry(mr, pinned=pinned))
        for due in self._evict_over_cap():
            self.env.process(self._dereg_many([due]), name="rcache:dereg")
        return mr

    def hold(self, mr: MemoryRegion) -> None:
        """Mark one reference on ``mr`` (taken by :meth:`acquire`) as a
        registered buffer's own: :meth:`unregister` drops it."""
        entry = self._by_rkey.get(mr.rkey)
        if entry is not None:
            entry.held += 1

    # ------------------------------------------------------------------ release
    def _release_bookkeeping(self, mr: MemoryRegion) -> List[MemoryRegion]:
        """Drop one reference; returns MRs now due for deregistration."""
        loan = self._loaned.pop(mr.rkey, None)
        if loan is not None:
            return [loan] if loan.valid else []
        entry = self._by_rkey.get(mr.rkey)
        if entry is None:
            return []  # already flushed
        if entry.refcount > 0:
            entry.refcount -= 1
        if entry.refcount == 0 and entry.mr.rkey in self._pending:
            self._pending_pop(entry.mr.rkey)
            return [entry.mr] if entry.mr.valid else []
        return []

    def release(self, mr: MemoryRegion):
        """Unpin a registration obtained from :meth:`acquire` (generator).

        With the cache enabled the registration stays warm (and any
        pending eviction of it is drained once the last reference drops);
        disabled, it deregisters immediately — the uncached baseline.
        """
        for due in self._release_bookkeeping(mr):
            yield from self.context.dereg_mr(due)
        return None

    def release_async(self, mr: MemoryRegion) -> None:
        """Callback-safe release: refcount drops now, any due
        deregistration runs as a spawned process (it charges time)."""
        due = self._release_bookkeeping(mr)
        if due:
            self.env.process(self._dereg_many(due), name="rcache:dereg")

    def _dereg_many(self, mrs: List[MemoryRegion]):
        for mr in mrs:
            if mr.valid:
                yield from self.context.dereg_mr(mr)

    # ------------------------------------------------------------------ unregister
    def unregister(self, rkey: int):
        """Evict/deregister the registration with ``rkey`` (generator).

        Backs :meth:`Photon.unregister_buffer`: drops the reference the
        buffer holds (a :meth:`hold`; a :meth:`Photon.buffer` entry holds
        none), unpins it, and deregisters — immediately when no operation
        holds it, deferred until the last release otherwise.  Returns
        True if a registration was found.
        """
        loan = self._loaned.pop(rkey, None)
        if loan is not None:
            if loan.valid:
                yield from self.context.dereg_mr(loan)
            return True
        entry = self._by_rkey.get(rkey)
        if entry is None:
            return False
        entry.pinned = False
        if entry.held:
            entry.held -= 1
            entry.refcount -= 1
        if rkey not in self._pending:
            due = self._retire(entry)
        elif entry.refcount == 0:
            due = self._pending_pop(rkey).mr
        else:
            due = None
        if due is not None and due.valid:
            yield from self.context.dereg_mr(due)
        return True

    # ------------------------------------------------------------------ admin
    def flush(self):
        """Deregister everything, including pending evictions (generator).

        Shutdown-time operation: outstanding references are forgotten.
        All bookkeeping is cleared *before* the first dereg yield so a
        concurrent lookup during the drain sees an empty, consistent
        cache instead of an index pointing at retired entries.
        """
        due: List[MemoryRegion] = []
        while self._entries:
            _, entry = self._entries.popitem(last=False)
            self._by_rkey.pop(entry.mr.rkey, None)
            self._note_pinned(-entry.mr.length)
            due.append(entry.mr)
        self._index.clear()
        while self._pending:
            rkey, entry = self._pending.popitem()
            self._by_rkey.pop(rkey, None)
            self._note_pinned(-entry.mr.length)
            due.append(entry.mr)
        while self._loaned:
            _, mr = self._loaned.popitem()
            due.append(mr)
        for mr in due:
            if mr.valid:
                yield from self.context.dereg_mr(mr)

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def pending_evictions(self) -> int:
        return len(self._pending)

    @property
    def held_refs(self) -> int:
        return (sum(e.refcount for e in self._entries.values())
                + sum(e.refcount for e in self._pending.values()))

    @property
    def live_regs(self) -> int:
        """Registrations this cache still owns (live + pending-evict +
        disabled-mode loans)."""
        return len(self._entries) + len(self._pending) + len(self._loaned)

    def occupancy(self) -> Dict[str, object]:
        """JSON-serializable cache state (the ``rcache`` section of
        ``Endpoint.stats()`` and obs reports); the counts are the
        ``photon.rcache.*`` counters in the rank's metrics scope."""
        return {
            "size": self.size,
            "pending_evictions": self.pending_evictions,
            "held_refs": self.held_refs,
            "live_regs": self.live_regs,
            "pinned_bytes": self.pinned_bytes,
        }


def assert_reg_balance(counters, contexts) -> None:
    """Pin-leak guard: every registration was either deregistered or is
    still accounted live in a context's rkey directory.

    ``verbs.reg_mr`` counts every registration (sync or timed) and
    ``verbs.dereg_mr`` every deregistration, so across the cluster
    ``reg_mr == dereg_mr + Σ live_mrs`` holds at any quiescent point.
    A violated balance means an MR was leaked (dropped without dereg)
    or double-deregistered.  Raises AssertionError on imbalance.
    """
    reg = counters.get("verbs.reg_mr")
    dereg = counters.get("verbs.dereg_mr")
    live = sum(ctx.live_mrs for ctx in contexts)
    if reg != dereg + live:
        raise AssertionError(
            f"registration leak: reg_mr={reg} != dereg_mr={dereg} + "
            f"live_mrs={live} (delta {reg - dereg - live})")
