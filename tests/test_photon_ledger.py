"""Unit tests for ledger rings and wire formats."""

import pytest

from repro.fabric import IB_FDR, Memory
from repro.photon.ledger import LocalRing, RemoteRing, RingSpec
from repro.photon.wire import (
    COMPLETION_ENTRY_SIZE,
    CompletionEntry,
    EAGER_HEADER_SIZE,
    EagerHeader,
    FIN_ENTRY_SIZE,
    FinEntry,
    INFO_ENTRY_SIZE,
    InfoEntry,
)
from repro.sim import SimulationError


# ------------------------------------------------------------- wire formats


def test_completion_entry_roundtrip():
    e = CompletionEntry(seq=5, cid=0xDEADBEEF00112233, src=7)
    raw = e.pack()
    assert len(raw) == COMPLETION_ENTRY_SIZE
    assert CompletionEntry.unpack_from(raw) == e


def test_eager_header_roundtrip():
    h = EagerHeader(seq=9, cid=123456789, src=3, size=4096)
    raw = h.pack()
    assert len(raw) == EAGER_HEADER_SIZE
    assert EagerHeader.unpack_from(raw) == h


def test_info_entry_roundtrip():
    e = InfoEntry(seq=2, req=77, tag=42, addr=0x1000, size=1 << 20,
                  rkey=55, src=1)
    raw = e.pack()
    assert len(raw) == INFO_ENTRY_SIZE
    assert InfoEntry.unpack_from(raw) == e


def test_fin_entry_roundtrip():
    e = FinEntry(seq=11, req=1234)
    raw = e.pack()
    assert len(raw) == FIN_ENTRY_SIZE
    assert FinEntry.unpack_from(raw) == e


# ------------------------------------------------------------- rings


def ring_fixture(nslots=4, entry=COMPLETION_ENTRY_SIZE):
    mem = Memory(1 << 16, IB_FDR.host)
    spec = RingSpec("t", nslots, entry)
    remote_base = mem.alloc(spec.nbytes)
    staging = mem.alloc(spec.nbytes)
    credit = mem.alloc(8)
    producer = RemoteRing(spec, remote_base, rkey=1, staging_base=staging,
                          credit_addr=credit, memory=mem)
    consumer = LocalRing(spec, remote_base, mem,
                         producer_credit_addr=credit, producer_rkey=1)
    return mem, producer, consumer, credit


def test_ring_spec_geometry():
    spec = RingSpec("x", 8, 24)
    assert spec.nbytes == 192
    assert spec.slot_offset(0) == 0
    assert spec.slot_offset(9) == 24  # wraps


def test_producer_claims_sequential_slots():
    mem, prod, cons, _ = ring_fixture()
    seqs = []
    for _ in range(4):
        seq, stage, remote = prod.claim()
        seqs.append(seq)
    assert seqs == [1, 2, 3, 4]
    assert prod.available() == 0


def test_producer_full_raises_without_credit():
    mem, prod, cons, _ = ring_fixture()
    for _ in range(4):
        prod.claim()
    with pytest.raises(SimulationError):
        prod.claim()


def test_credit_replenishes_producer():
    mem, prod, cons, credit = ring_fixture()
    for _ in range(4):
        prod.claim()
    assert prod.available() == 0
    mem.write_u64(credit, 2)  # consumer drained two
    assert prod.available() == 2


def test_consumer_sees_entry_after_sequenced_write():
    mem, prod, cons, _ = ring_fixture()
    assert not cons.ready()
    seq, stage, remote = prod.claim()
    entry = CompletionEntry(seq=seq, cid=99, src=0).pack()
    mem.write(remote, entry)  # simulate RDMA placement
    assert cons.ready()
    got = CompletionEntry.unpack_from(mem.data, cons.head_addr())
    assert got.cid == 99
    cons.advance()
    assert not cons.ready()


def test_stale_wrapped_entry_not_ready():
    """After wrap, the slot contains seq from a full ring ago — not ready."""
    mem, prod, cons, credit = ring_fixture()
    for i in range(4):
        seq, _, remote = prod.claim()
        mem.write(remote, CompletionEntry(seq=seq, cid=i, src=0).pack())
    for _ in range(4):
        assert cons.ready()
        cons.advance()
    # consumer at index 4 (slot 0): slot still holds seq=1, expecting 5
    assert not cons.ready()


def test_credit_due_after_fraction():
    mem, prod, cons, _ = ring_fixture(nslots=4)
    assert not cons.credit_due()
    cons.consumed = 2  # half of 4 drained
    assert cons.credit_due()
    assert cons.mark_credit_sent() == 2
    assert not cons.credit_due()


def test_out_of_order_entry_not_consumed_early():
    """Entry k+1 landing before k must wait (ordering safety check)."""
    mem, prod, cons, _ = ring_fixture()
    s1, _, r1 = prod.claim()
    s2, _, r2 = prod.claim()
    mem.write(r2, CompletionEntry(seq=s2, cid=2, src=0).pack())
    assert not cons.ready()  # head (seq 1) not written yet
    mem.write(r1, CompletionEntry(seq=s1, cid=1, src=0).pack())
    assert cons.ready()


def test_credit_ahead_of_produced_detected():
    mem, prod, cons, credit = ring_fixture()
    mem.write_u64(credit, 5)  # impossible: more consumed than produced
    with pytest.raises(SimulationError):
        prod.available()
