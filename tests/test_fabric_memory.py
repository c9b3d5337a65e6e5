"""Unit tests for repro.fabric.memory."""

import pytest

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
    assert len(mem._pinned_pages) == 3


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
    assert len(mem._pinned_pages) == 2
    mem.unpin(addr, page)
    assert len(mem._pinned_pages) == 1


def test_pages_spanned_unaligned_range():
    mem = make()
    page = PAGE_SIZE
    # 2 bytes straddling a page boundary span two pages
    assert len(mem._page_range(page - 1, 2)) == 2
    assert len(mem._page_range(0, 1)) == 1
    assert len(mem._page_range(0, page)) == 1
    assert len(mem._page_range(0, page + 1)) == 2


def test_memcpy_cost_scales():
    mem = make()
    assert mem.memcpy_cost_ns(0) == 0
    small = mem.memcpy_cost_ns(1024)
    large = mem.memcpy_cost_ns(1024 * 1024)
    assert large > small > 0
