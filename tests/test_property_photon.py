"""Property-based tests for Photon data structures and end-to-end paths."""

from hypothesis import given, settings, strategies as st

from repro.cluster import build_cluster
from repro.fabric import IB_FDR, Memory
from repro.photon import photon_init
from repro.photon.ledger import CMP, Geometry, PeerChannel
from repro.photon.wire import (
    COMPLETION_ENTRY_SIZE,
    CompletionEntry,
    EagerHeader,
    FinEntry,
    InfoEntry,
)


# ---------------------------------------------------------------- wire


@given(seq=st.integers(min_value=0, max_value=2 ** 64 - 1),
       cid=st.integers(min_value=0, max_value=2 ** 64 - 1),
       src=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_completion_entry_roundtrip_property(seq, cid, src):
    e = CompletionEntry(seq=seq, cid=cid, src=src)
    assert CompletionEntry.unpack_from(e.pack()) == e


@given(seq=st.integers(min_value=0, max_value=2 ** 64 - 1),
       req=st.integers(min_value=0, max_value=2 ** 64 - 1),
       tag=st.integers(min_value=0, max_value=2 ** 63 - 1),
       addr=st.integers(min_value=0, max_value=2 ** 63 - 1),
       size=st.integers(min_value=0, max_value=2 ** 63 - 1),
       rkey=st.integers(min_value=0, max_value=2 ** 63 - 1),
       src=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_info_entry_roundtrip_property(seq, req, tag, addr, size, rkey, src):
    e = InfoEntry(seq=seq, req=req, tag=tag, addr=addr, size=size,
                  rkey=rkey, src=src)
    assert InfoEntry.unpack_from(e.pack()) == e


@given(seq=st.integers(min_value=0, max_value=2 ** 64 - 1),
       req=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_fin_entry_roundtrip_property(seq, req):
    e = FinEntry(seq=seq, req=req)
    assert FinEntry.unpack_from(e.pack()) == e


# ---------------------------------------------------------------- rings


@given(nslots=st.integers(min_value=2, max_value=32),
       ops=st.lists(st.booleans(), min_size=1, max_size=200))
@settings(max_examples=50)
def test_ring_produced_consumed_invariant(nslots, ops):
    """Random interleavings of produce/consume never violate
    0 <= produced - consumed <= nslots, and sequences stay dense."""
    mem = Memory(1 << 18, IB_FDR.host)
    geometry = Geometry((nslots,) * 4, (COMPLETION_ENTRY_SIZE,) * 4)
    block = mem.alloc(geometry.stride)
    # a loopback channel: its producer side writes its own consumer rings
    ch = PeerChannel(geometry, mem.data, block, block, 1)
    credit = block + geometry.credit[CMP]
    seen = []
    for do_produce in ops:
        if do_produce:
            if ch.available(CMP) > 0:
                _op, seq, _entry, _stage, remote = ch.claim(
                    CMP, 0, lambda seq, op: b"")
                mem.write(remote, CompletionEntry(seq, seq, 0).pack())
        else:
            head = ch.take(CMP)
            if head is not None:
                seen.append(CompletionEntry.unpack_from(mem.data, head).seq)
                # credit returned instantly in this model
                mem.write_u64(credit, ch.consumed[CMP])
        gap = ch.produced[CMP] - ch.consumed[CMP]
        assert 0 <= gap <= nslots
    assert seen == list(range(1, len(seen) + 1))


# ---------------------------------------------------------------- end-to-end


@settings(max_examples=15, deadline=None)
@given(payloads=st.lists(st.binary(min_size=0, max_size=2048),
                         min_size=1, max_size=15),
       seed=st.integers(min_value=0, max_value=100))
def test_eager_messages_arrive_intact_in_order(payloads, seed):
    """Any sequence of eager payloads arrives intact, in order."""
    cl = build_cluster(2, seed=seed)
    ph = photon_init(cl)
    received = []

    def sender(env):
        for i, p in enumerate(payloads):
            yield from ph[0].send_pwc(1, p, remote_cid=i)

    def receiver(env):
        while len(received) < len(payloads):
            m = yield from ph[1].wait_message(timeout_ns=10 ** 12)
            received.append(m)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert [m[1] for m in received] == list(range(len(payloads)))
    assert [m[2] for m in received] == [bytes(p) for p in payloads]


@settings(max_examples=15, deadline=None)
@given(spans=st.lists(
    st.tuples(st.integers(min_value=0, max_value=4000),
              st.integers(min_value=1, max_value=96)),
    min_size=1, max_size=10))
def test_random_put_sequences_preserve_memory_contents(spans):
    """Arbitrary (offset, size) puts produce exactly the same bytes at the
    target as a local mirror of the writes."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    src = ph[0].buffer(8192)
    dst = ph[1].buffer(8192)
    mirror = bytearray(8192)
    pattern = bytes((i * 13 + 7) & 0xFF for i in range(8192))
    cl[0].memory.write(src.addr, pattern)

    def prog(env):
        for i, (off, size) in enumerate(spans):
            size = min(size, 8192 - off)
            mirror[off:off + size] = pattern[off:off + size]
            yield from ph[0].put_pwc(1, src.addr + off, size,
                                     dst.addr + off, dst.rkey,
                                     local_cid=i)
            c = yield from ph[0].wait_completion("local",
                                                 timeout_ns=10 ** 12)
            assert c is not None

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert cl[1].memory.read(dst.addr, 8192) == bytes(mirror)


@settings(max_examples=10, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=100_000),
                      min_size=1, max_size=5))
def test_rendezvous_any_size_intact(sizes):
    cl = build_cluster(2)
    ph = photon_init(cl)
    total = sum(sizes)
    src = ph[0].buffer(max(total, 8))
    dst = ph[1].buffer(max(max(sizes), 8))
    blob = bytes((i * 31 + 5) & 0xFF for i in range(total))
    cl[0].memory.write(src.addr, blob)

    def sender(env):
        off = 0
        rids = []
        for i, size in enumerate(sizes):
            rid = yield from ph[0].send_rdma(1, src.addr + off, size, tag=i)
            rids.append(rid)
            off += size
        yield from ph[0].wait_all(rids, timeout_ns=10 ** 12)

    got = []

    def receiver(env):
        for i, size in enumerate(sizes):
            info = yield from ph[1].wait_recv_info(src=0, tag=i,
                                                   timeout_ns=10 ** 12)
            yield from ph[1].recv_rdma(info, dst.addr)
            # read_bytes: dst is reused for every message, so each retained
            # payload needs an owned snapshot
            got.append(cl[1].memory.read_bytes(dst.addr, size))

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    off = 0
    for size, data in zip(sizes, got):
        assert data == blob[off:off + size]
        off += size
