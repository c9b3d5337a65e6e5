"""Unit tests for repro.fabric.memory."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import IB_FDR, Memory, MemoryError_, OutOfMemory
from repro.fabric.memory import PAGE_SIZE

HOST = IB_FDR.host


def make(size=1 << 20):
    return Memory(size, HOST, rank=0)


def test_alloc_returns_disjoint_ranges():
    mem = make()
    a = mem.alloc(100)
    b = mem.alloc(100)
    assert b >= a + 100


def test_alloc_alignment():
    mem = make()
    mem.alloc(3)
    b = mem.alloc(8, align=64)
    assert b % 64 == 0


def test_alloc_bad_alignment_rejected():
    mem = make()
    with pytest.raises(MemoryError_):
        mem.alloc(8, align=3)


def test_alloc_zero_rejected():
    mem = make()
    with pytest.raises(MemoryError_):
        mem.alloc(0)


def test_alloc_exhaustion():
    mem = Memory(1024, HOST)
    mem.alloc(1000)
    with pytest.raises(OutOfMemory):
        mem.alloc(100)


def test_read_write_roundtrip():
    mem = make()
    addr = mem.alloc(16)
    mem.write(addr, b"hello RDMA world")
    assert mem.read(addr, 16) == b"hello RDMA world"


def test_write_out_of_bounds_rejected():
    mem = Memory(64, HOST)
    with pytest.raises(MemoryError_):
        mem.write(60, b"too long")


def test_read_negative_length_rejected():
    mem = make()
    with pytest.raises(MemoryError_):
        mem.read(0, -1)


def test_read_returns_zero_copy_view():
    mem = make()
    addr = mem.alloc(8)
    mem.write(addr, b"AAAAAAAA")
    view = mem.read(addr, 8)
    assert isinstance(view, memoryview)
    # a view, not a snapshot: later writes show through it
    mem.write(addr, b"BBBBBBBB")
    assert view == b"BBBBBBBB"
    # read_bytes is the owned-snapshot variant
    snap = mem.read_bytes(addr, 8)
    assert isinstance(snap, bytes)
    mem.write(addr, b"CCCCCCCC")
    assert snap == b"BBBBBBBB"


def test_write_accepts_any_buffer_without_copy():
    mem = make()
    addr = mem.alloc(12)
    mem.write(addr, bytearray(b"from-bytearr"))
    assert mem.read(addr, 12) == b"from-bytearr"
    mem.write(addr, memoryview(b"from-memview"))
    assert mem.read(addr, 12) == b"from-memview"
    # a view of this memory itself is legal too (snapshotted internally)
    other = mem.alloc(12)
    mem.write(other, mem.read(addr, 12))
    assert mem.read(other, 12) == b"from-memview"


def test_write_validates_before_mutating():
    mem = Memory(64, HOST)
    mem.write(0, b"\xAA" * 64)
    with pytest.raises(MemoryError_):
        mem.write(60, b"too long")
    # failed write must not have touched the prefix that was in range
    assert mem.read(0, 64) == b"\xAA" * 64


def test_u64_roundtrip():
    mem = make()
    addr = mem.alloc(8)
    mem.write_u64(addr, 0xDEADBEEF12345678)
    assert mem.read_u64(addr) == 0xDEADBEEF12345678


def test_pin_cost_counts_new_pages_only():
    mem = make()
    addr = mem.alloc(3 * PAGE_SIZE, align=PAGE_SIZE)
    cost1 = mem.pin_cost_ns(addr, 3 * PAGE_SIZE)
    assert cost1 == HOST.reg_base_ns + 3 * HOST.reg_per_page_ns
    mem.pin(addr, 3 * PAGE_SIZE)
    # Re-registering the same range: only the base cost remains.
    cost2 = mem.pin_cost_ns(addr, 3 * PAGE_SIZE)
    assert cost2 == HOST.reg_base_ns
    # exactly three pages: the next one over is still new
    assert (mem.pin_cost_ns(addr, 4 * PAGE_SIZE)
            == HOST.reg_base_ns + HOST.reg_per_page_ns)


def test_pin_partial_overlap():
    mem = make()
    page = PAGE_SIZE
    addr = mem.alloc(4 * page, align=page)
    mem.pin(addr, page)  # pin first page
    cost = mem.pin_cost_ns(addr, 2 * page)  # spans pages 0..1; 1 is new
    assert cost == HOST.reg_base_ns + HOST.reg_per_page_ns


def test_unpin_releases_pages():
    mem = make()
    page = PAGE_SIZE
    addr = mem.alloc(2 * page, align=page)
    mem.pin(addr, 2 * page)
    assert mem.pin_cost_ns(addr, 2 * page) == HOST.reg_base_ns
    mem.unpin(addr, page)
    # the first page is released, the second still pinned
    assert mem.pin_cost_ns(addr, page) == HOST.reg_base_ns + HOST.reg_per_page_ns
    assert mem.pin_cost_ns(addr + page, page) == HOST.reg_base_ns


def test_pages_spanned_unaligned_range():
    mem = make()
    page = PAGE_SIZE

    def pages(addr, length):  # pages a registration would pin anew
        return ((mem.pin_cost_ns(addr, length) - HOST.reg_base_ns)
                // HOST.reg_per_page_ns)

    # 2 bytes straddling a page boundary span two pages
    assert pages(page - 1, 2) == 2
    assert pages(0, 1) == 1
    assert pages(0, page) == 1
    assert pages(0, page + 1) == 2


def test_memcpy_cost_scales():
    mem = make()
    assert mem.memcpy_cost_ns(0) == 0
    small = mem.memcpy_cost_ns(1024)
    large = mem.memcpy_cost_ns(1024 * 1024)
    assert large > small > 0


# -- pin counts against a page-by-page oracle ----------------------------------
class PageOracle:
    """The pin refcount kept page by page, as ``Memory`` once kept it."""

    def __init__(self):
        self.pins = Counter()

    @staticmethod
    def pages(addr, length):
        return range(addr // PAGE_SIZE,
                     (addr + max(length, 1) - 1) // PAGE_SIZE + 1)

    def new_pages(self, addr, length):
        return sum(1 for p in self.pages(addr, length) if not self.pins[p])

    def pin(self, addr, length):
        self.pins.update(self.pages(addr, length))

    def unpin(self, addr, length):
        for p in self.pages(addr, length):
            self.pins[p] = max(0, self.pins[p] - 1)


_SPAN = 24 * PAGE_SIZE
_RANGES = st.tuples(st.integers(0, _SPAN - 1), st.integers(0, 6 * PAGE_SIZE))
_STEPS = st.lists(st.tuples(
    st.sampled_from(["pin", "unpin", "cost", "reset"]), _RANGES), max_size=60)


@settings(max_examples=300, deadline=None)
@given(_STEPS)
def test_interval_pin_counts_match_the_page_oracle(steps):
    """Random pin / unpin / price / reset sequences: every price equals the
    oracle's, and afterwards so does every page's (a one-page price)."""
    mem, oracle = make(_SPAN + 8 * PAGE_SIZE), PageOracle()
    for op, (addr, length) in steps:
        if op == "pin":
            mem.pin(addr, length)
            oracle.pin(addr, length)
        elif op == "unpin":
            mem.unpin(addr, length)
            oracle.unpin(addr, length)
        elif op == "reset":
            mem.reset()
            oracle.pins.clear()
        assert mem.pin_cost_ns(addr, length) == (
            HOST.reg_base_ns + HOST.reg_per_page_ns * oracle.new_pages(addr, length))
    for page in range((_SPAN + 6 * PAGE_SIZE) // PAGE_SIZE + 1):
        assert (mem.pin_cost_ns(page * PAGE_SIZE, 1) == HOST.reg_base_ns) == (
            oracle.pins[page] > 0), page
    # the step function stays canonical: no two neighbours share a count
    counts = mem._pin_counts
    assert all(a != b for a, b in zip(counts, counts[1:]))


# -- watched ranges -----------------------------------------------------------
def test_watched_write_hits_bump_once_and_misses_do_not():
    mem = make()
    rung = []
    mem.on_watched_write.append(lambda: rung.append(mem.watch_version))
    mem.watch(100, 50)
    mem.watch(300, 8)
    mem.watch(200, 40)  # registered out of address order
    mem.watch(100, 50)  # re-registering the same range changes nothing
    version = mem.watch_version
    for addr, n in ((150, 50), (240, 60), (0, 100), (308, 8)):
        mem.write(addr, b"x" * n)  # each falls between or beside the ranges
    assert mem.watch_version == version and rung == []
    for addr, n in ((149, 1), (90, 300), (239, 2), (299, 2)):
        mem.write(addr, b"x" * n)  # one hit, whatever it spans
    mem.write_u64(304, 1)
    assert rung == list(range(version + 1, version + 6))
    assert mem.watch_version == version + 5
