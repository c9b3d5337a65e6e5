"""Unit tests for ledger rings and wire formats."""

import struct

import pytest

from repro.photon.ledger import CMP, EAGER, FIN, INFO, Geometry, PeerChannel
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
    """A loopback channel over a ``bytearray``: its producer side writes
    its own consumer rings (``local == remote``), so a slot it claims is
    the slot its consumer side reads, and the credit word its consumer
    side sends is the one its producer side reads."""
    geometry = Geometry((nslots,) * 4, (entry, EAGER_HEADER_SIZE + 24,
                                        INFO_ENTRY_SIZE, FIN_ENTRY_SIZE))
    buf = bytearray(geometry.stride)
    channel = PeerChannel(geometry, buf, 0, 0, rkey=1)
    return buf, channel, geometry.credit[CMP]


def claim(channel, cid=0):
    """Claim a completion slot: (seq, staged entry, remote address)."""
    _op, seq, entry, _stage, remote = channel.claim(
        CMP, 0, lambda seq, op: CompletionEntry(seq=seq, cid=cid, src=0,
                                                op=op).pack())
    return seq, entry, remote


def place(buf, addr, entry):
    buf[addr:addr + len(entry)] = entry  # simulate RDMA placement


def land(buf, channel, cid=0):
    """Claim a completion slot and place its entry."""
    _seq, entry, remote = claim(channel, cid)
    place(buf, remote, entry)


def test_ring_geometry():
    g = Geometry((8, 2, 2, 2), (24, 48, 56, 16))
    assert g.nbytes[CMP] == 192
    assert g.stride == 2 * (192 + 96 + 112 + 32) + 64
    assert g.block(1000, owner=2, peer=1) == 1000 + g.stride
    assert g.block(1000, owner=2, peer=3) == 1000 + 2 * g.stride
    buf = bytearray(g.stride)
    channel = PeerChannel(g, buf, 0, 0, rkey=1)
    remotes = []
    for i in range(10):
        struct.pack_into("<Q", buf, g.credit[CMP], i)
        remotes.append(channel.claim(CMP, 0, lambda seq, op: b"")[4])
    assert remotes[0] == g.cons[CMP]
    assert remotes[9] == g.cons[CMP] + 24  # wraps


def test_producer_claims_sequential_slots():
    buf, ch, _ = ring_fixture()
    seqs = []
    for _ in range(4):
        seq, _entry, _remote = claim(ch)
        seqs.append(seq)
    assert seqs == [1, 2, 3, 4]
    assert ch.available(CMP) == 0


def test_producer_full_raises_without_credit():
    buf, ch, _ = ring_fixture()
    for _ in range(4):
        claim(ch)
    with pytest.raises(SimulationError):
        claim(ch)


def test_credit_replenishes_producer():
    buf, ch, credit = ring_fixture()
    for _ in range(4):
        claim(ch)
    assert ch.available(CMP) == 0
    struct.pack_into("<Q", buf, credit, 2)  # consumer drained two
    assert ch.available(CMP) == 2


def test_consumer_sees_entry_after_sequenced_write():
    buf, ch, _ = ring_fixture()
    assert ch.take(CMP) is None
    seq, entry, remote = claim(ch, cid=99)
    place(buf, remote, entry)
    head = ch.take(CMP)
    assert head == remote
    got = CompletionEntry.unpack_from(buf, head)
    assert got.cid == 99
    assert ch.take(CMP) is None


def test_stale_wrapped_entry_not_ready():
    """After wrap, the slot contains seq from a full ring ago — not ready."""
    buf, ch, credit = ring_fixture()
    for i in range(4):
        land(buf, ch, cid=i)
    for _ in range(4):
        assert ch.take(CMP) is not None
    # consumer at index 4 (slot 0): slot still holds seq=1, expecting 5
    assert ch.take(CMP) is None


def test_credit_due_after_fraction():
    buf, ch, _ = ring_fixture(nslots=4)
    assert not ch.credit_due(CMP)
    for _ in range(2):  # half of 4 drained
        land(buf, ch)
        ch.take(CMP)
    assert ch.credit_due(CMP)
    ch.mark_credit_sent(CMP)
    assert ch.credit_word(CMP)[0] == 2
    assert not ch.credit_due(CMP)


def test_out_of_order_entry_not_consumed_early():
    """Entry k+1 landing before k must wait (ordering safety check)."""
    buf, ch, _ = ring_fixture()
    _s1, e1, r1 = claim(ch, cid=1)
    _s2, e2, r2 = claim(ch, cid=2)
    place(buf, r2, e2)
    assert ch.take(CMP) is None  # head (seq 1) not written yet
    place(buf, r1, e1)
    assert ch.take(CMP) == r1


def test_credit_ahead_of_produced_detected():
    buf, ch, credit = ring_fixture()
    struct.pack_into("<Q", buf, credit, 5)  # more consumed than produced
    with pytest.raises(SimulationError):
        ch.available(CMP)


def test_torn_eager_entry_waits_for_its_trailer():
    """An eager entry whose header landed but whose trailer has not is
    not ready; the ledger stamps the trailer itself."""
    buf, ch, _ = ring_fixture()
    _op, seq, entry, _stage, remote = ch.claim(
        EAGER, 0, lambda seq, op: EagerHeader(seq=seq, cid=1, src=0, size=3,
                                              op=op).pack() + b"abc")
    assert entry[-8:] == struct.pack("<Q", seq)
    place(buf, remote, entry[:-8])
    assert ch.take(EAGER) is None
    place(buf, remote, entry)
    assert ch.take(EAGER) == remote


def test_dedup_ids_are_drawn_for_completion_and_eager_entries_only():
    buf, ch, _ = ring_fixture()
    ids = [ch.claim(k, 0, lambda seq, op: b"")[0]
           for k in (INFO, CMP, FIN, EAGER)]
    assert ids == [0, 1, 0, 2]
    assert ch.claim(CMP, 7, lambda seq, op: b"")[0] == 7  # the op keeps one
    assert [ch.fresh(op) for op in (2, 1, 2, 0, 0)] == [
        True, True, False, True, True]
    assert (ch.rx_hwm, ch.rx_seen) == (2, set())
