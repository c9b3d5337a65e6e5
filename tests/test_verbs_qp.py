"""Integration tests for the verbs layer: QPs, MRs, CQs over the fabric."""

import pytest

from repro.cluster import build_cluster
from repro.verbs import (
    Access,
    BadWorkRequest,
    NotConnected,
    Opcode,
    ProtectionError,
    QPState,
    QueueFullError,
    RecvWR,
    SendWR,
    WCOpcode,
    WCStatus,
)


def make_pair(n=2, **kw):
    """Cluster + connected QP pair between ranks 0 and 1 with full-heap MRs."""
    cl = build_cluster(n, **kw)
    setups = []
    for r in (0, 1):
        node = cl[r]
        pd = node.context.alloc_pd()
        heap = node.memory.alloc(1 << 20)
        mr = node.context.reg_mr_sync(pd, heap, 1 << 20, Access.ALL)
        cq = node.context.create_cq()
        rcq = node.context.create_cq()
        setups.append((pd, heap, mr, cq, rcq))
    qps = []
    for r, (pd, heap, mr, cq, rcq) in enumerate(setups):
        qps.append(cl[r].context.create_qp(pd, cq, rcq))
    qps[0].connect(qps[1])
    return cl, setups, qps


def drain(cq, env, n=1, deadline=10_000_000):
    """Run the sim until cq holds >= n completions; return them."""

    def waiter(env):
        got = []
        while len(got) < n:
            yield cq.wait_nonempty()
            got.extend(cq.poll())
        return got

    proc = env.process(waiter(env))
    return env.run(until=proc)


def test_rdma_write_moves_bytes_and_completes():
    cl, setups, qps = make_pair()
    (pd0, heap0, mr0, cq0, _), (pd1, heap1, mr1, cq1, _) = setups
    payload = b"photon!!" * 8
    cl[0].memory.write(heap0, payload)
    qps[0].post_send(SendWR(
        opcode=Opcode.RDMA_WRITE, wr_id=7, local_addr=heap0,
        length=len(payload), remote_addr=heap1, rkey=mr1.rkey))
    wcs = drain(cq0, cl.env)
    assert cl[1].memory.read(heap1, len(payload)) == payload
    assert wcs[0].wr_id == 7
    assert wcs[0].opcode is WCOpcode.RDMA_WRITE
    assert wcs[0].ok


def _refused(cl, qp, cq, wr):
    """Post ``wr``, which the target refuses: no exception in the poster,
    an error completion one ack round trip later — exactly when a
    zero-length write (a header-only request, acked on delivery) would
    have completed — and the QP in ERROR."""
    t0 = cl.env.now
    qp.post_send(wr)
    (wc,) = drain(cq, cl.env)
    assert (wc.wr_id, wc.status) == (wr.wr_id, WCStatus.REM_ACCESS_ERR)
    assert qp.state is QPState.ERROR
    assert qp.context.counters.get("qp.wr_errors") == 1
    ref, setups, qps = make_pair()
    (_, heap0, _, ref_cq, _), (_, heap1, mr1, _, _) = setups
    qps[0].post_send(SendWR(opcode=Opcode.RDMA_WRITE, local_addr=heap0,
                            length=0, remote_addr=heap1, rkey=mr1.rkey))
    drain(ref_cq, ref.env)
    assert cl.env.now - t0 == ref.env.now
    return wc


def test_rdma_write_unknown_rkey_rejected():
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, _, _, _) = setups
    cl[0].memory.write(heap0, b"x" * 8)
    wc = _refused(cl, qps[0], cq0, SendWR(
        opcode=Opcode.RDMA_WRITE, wr_id=3, local_addr=heap0, length=8,
        remote_addr=heap1, rkey=999999))
    assert wc.opcode is WCOpcode.RDMA_WRITE
    assert cl[1].memory.read(heap1, 8) == bytes(8)     # nothing placed
    # Context.check_remote itself still raises for a direct caller
    with pytest.raises(ProtectionError):
        cl[1].context.check_remote(999999, heap1, 8, Access.REMOTE_WRITE)


def test_rdma_write_outside_mr_rejected():
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, mr1, _, _) = setups
    cl[0].memory.write(heap0, b"x" * 8)
    _refused(cl, qps[0], cq0, SendWR(
        opcode=Opcode.RDMA_WRITE, wr_id=4, local_addr=heap0, length=8,
        remote_addr=mr1.end - 4, rkey=mr1.rkey))
    assert cl[1].memory.read(mr1.end - 4, 4) == bytes(4)
    # a read and an atomic outside the region are refused the same way
    for op, length in ((Opcode.RDMA_READ, 8), (Opcode.ATOMIC_FETCH_ADD, 8)):
        cl, setups, qps = make_pair()
        (_, heap0, _, cq0, _), (_, heap1, mr1, _, _) = setups
        cl[0].memory.write(heap0, b"y" * 8)
        wc = _refused(cl, qps[0], cq0, SendWR(
            opcode=op, wr_id=5, local_addr=heap0, length=length,
            remote_addr=mr1.end - 4, rkey=mr1.rkey, compare_add=1))
        assert wc.opcode is (WCOpcode.RDMA_READ if op is Opcode.RDMA_READ
                             else WCOpcode.ATOMIC)
        assert cl[0].memory.read(heap0, 8) == b"y" * 8  # nothing landed


def test_rdma_write_requires_remote_write_permission():
    cl = build_cluster(2)
    qp_stuff = []
    for r in (0, 1):
        node = cl[r]
        pd = node.context.alloc_pd()
        heap = node.memory.alloc(4096)
        access = Access.ALL if r == 0 else Access.REMOTE_READ
        mr = node.context.reg_mr_sync(pd, heap, 4096, access)
        cq = node.context.create_cq()
        qp_stuff.append((node, pd, heap, mr, cq))
    qp0 = qp_stuff[0][0].context.create_qp(qp_stuff[0][1], qp_stuff[0][4],
                                           qp_stuff[0][4])
    qp1 = qp_stuff[1][0].context.create_qp(qp_stuff[1][1], qp_stuff[1][4],
                                           qp_stuff[1][4])
    qp0.connect(qp1)
    _refused(cl, qp0, qp_stuff[0][4], SendWR(
        opcode=Opcode.RDMA_WRITE, wr_id=6, local_addr=qp_stuff[0][2],
        length=8, remote_addr=qp_stuff[1][2], rkey=qp_stuff[1][3].rkey))
    assert cl[1].memory.read(qp_stuff[1][2], 8) == bytes(8)


def test_rdma_read_pulls_remote_bytes():
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, mr1, _, _) = setups
    cl[1].memory.write(heap1, b"remote-data-1234")
    qps[0].post_send(SendWR(
        opcode=Opcode.RDMA_READ, wr_id=3, local_addr=heap0, length=16,
        remote_addr=heap1, rkey=mr1.rkey))
    wcs = drain(cq0, cl.env)
    assert cl[0].memory.read(heap0, 16) == b"remote-data-1234"
    assert wcs[0].opcode is WCOpcode.RDMA_READ


def test_read_latency_is_a_round_trip():
    """READ must take noticeably longer than WRITE delivery (RTT vs one-way)."""
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, mr1, _, _) = setups

    def prog(env):
        t0 = env.now
        qps[0].post_send(SendWR(opcode=Opcode.RDMA_WRITE, local_addr=heap0,
                                length=8, remote_addr=heap1, rkey=mr1.rkey))
        yield cq0.wait_nonempty()
        cq0.poll()
        write_done = env.now - t0
        t1 = env.now
        qps[0].post_send(SendWR(opcode=Opcode.RDMA_READ, local_addr=heap0,
                                length=8, remote_addr=heap1, rkey=mr1.rkey))
        yield cq0.wait_nonempty()
        cq0.poll()
        read_done = env.now - t1
        return write_done, read_done

    p = cl.env.process(prog(cl.env))
    write_done, read_done = cl.env.run(until=p)
    # write completion already includes the ack RTT, so read ~ write, but
    # read must never be faster than the write's data-delivery leg.
    assert read_done > 0.6 * write_done


def test_send_recv_fifo_matching():
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, _, _, rcq1) = setups
    cl[0].memory.write(heap0, b"AAAA")
    cl[0].memory.write(heap0 + 4, b"BBBB")
    qps[1].post_recv(RecvWR(wr_id=100, addr=heap1, length=4))
    qps[1].post_recv(RecvWR(wr_id=101, addr=heap1 + 16, length=4))
    qps[0].post_send(SendWR(opcode=Opcode.SEND, wr_id=1, local_addr=heap0,
                            length=4))
    qps[0].post_send(SendWR(opcode=Opcode.SEND, wr_id=2,
                            local_addr=heap0 + 4, length=4))
    wcs = drain(rcq1, cl.env, n=2)
    assert [w.wr_id for w in wcs] == [100, 101]
    assert [w.opcode for w in wcs] == [WCOpcode.RECV, WCOpcode.RECV]
    assert cl[1].memory.read(heap1, 4) == b"AAAA"
    assert cl[1].memory.read(heap1 + 16, 4) == b"BBBB"
    assert all(w.src_rank == 0 for w in wcs)


def test_send_too_big_for_recv_buffer_errors():
    cl, setups, qps = make_pair()
    (_, heap0, _, _, _), (_, heap1, _, _, rcq1) = setups
    qps[1].post_recv(RecvWR(wr_id=5, addr=heap1, length=4))
    qps[0].post_send(SendWR(opcode=Opcode.SEND, local_addr=heap0, length=64))
    wcs = drain(rcq1, cl.env)
    assert wcs[0].status is WCStatus.LOC_LEN_ERR


def test_send_without_recv_parks_until_posted():
    cl, setups, qps = make_pair()
    (_, heap0, _, _, _), (_, heap1, _, _, rcq1) = setups
    cl[0].memory.write(heap0, b"late")
    qps[0].post_send(SendWR(opcode=Opcode.SEND, local_addr=heap0, length=4))

    def poster(env):
        yield env.timeout(50_000)
        qps[1].post_recv(RecvWR(wr_id=9, addr=heap1, length=4))
        yield rcq1.wait_nonempty()
        return rcq1.poll(), env.now

    p = cl.env.process(poster(cl.env))
    wcs, t = cl.env.run(until=p)
    assert wcs[0].wr_id == 9
    assert cl[1].memory.read(heap1, 4) == b"late"
    # RNR penalty applies
    assert t >= 50_000 + cl.params.nic.rnr_retry_ns
    assert cl.counters.get("verbs.rnr_stalls") == 1


def test_rnr_drain_keeps_receives_in_order():
    """RC completes receives in order: a SEND that lands while the head of
    the RNR line drains queues behind it instead of taking the receive the
    drain was started for."""
    cl, setups, qps = make_pair()
    (_, heap0, _, _, _), (_, heap1, _, _, rcq1) = setups
    cl[0].memory.write(heap0, b"AAAABBBB")
    qps[0].post_send(SendWR(opcode=Opcode.SEND, wr_id=1, local_addr=heap0,
                            length=4))
    retry = cl.params.nic.rnr_retry_ns

    def receiver(env):
        yield env.timeout(50_000)       # "AAAA" is RNR-parked by now
        qps[1].post_recv(RecvWR(wr_id=10, addr=heap1, length=4))
        qps[0].post_send(SendWR(opcode=Opcode.SEND, wr_id=2,
                                local_addr=heap0 + 4, length=4))
        yield env.timeout(2 * retry)    # "BBBB" lands inside the drain
        qps[1].post_recv(RecvWR(wr_id=11, addr=heap1 + 16, length=4))
        got = []
        while len(got) < 2:
            yield rcq1.wait_nonempty()
            got.extend(rcq1.poll())
        return got

    wcs = cl.env.run(until=cl.env.process(receiver(cl.env)))
    assert [w.wr_id for w in wcs] == [10, 11]
    assert cl[1].memory.read(heap1, 4) == b"AAAA"
    assert cl[1].memory.read(heap1 + 16, 4) == b"BBBB"
    assert cl.counters.get("verbs.rnr_stalls") == 2
    assert cl.counters.get("verbs.rnr_drains") == 2


def test_write_with_imm_consumes_recv_and_carries_imm():
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, mr1, _, rcq1) = setups
    cl[0].memory.write(heap0, b"IMMDATA!")
    qps[1].post_recv(RecvWR(wr_id=55))
    qps[0].post_send(SendWR(
        opcode=Opcode.RDMA_WRITE_WITH_IMM, local_addr=heap0, length=8,
        remote_addr=heap1, rkey=mr1.rkey, imm=0xCAFE))
    wcs = drain(rcq1, cl.env)
    assert wcs[0].opcode is WCOpcode.RECV_RDMA_WITH_IMM
    assert wcs[0].imm == 0xCAFE
    assert wcs[0].wr_id == 55
    assert cl[1].memory.read(heap1, 8) == b"IMMDATA!"


def test_imm_must_fit_32_bits():
    cl, setups, qps = make_pair()
    (_, heap0, _, _, _), (_, heap1, mr1, _, _) = setups
    with pytest.raises(BadWorkRequest):
        qps[0].post_send(SendWR(
            opcode=Opcode.RDMA_WRITE_WITH_IMM, local_addr=heap0, length=8,
            remote_addr=heap1, rkey=mr1.rkey, imm=1 << 32))


def test_fetch_add_atomic():
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, mr1, _, _) = setups
    cl[1].memory.write_u64(heap1, 40)
    qps[0].post_send(SendWR(
        opcode=Opcode.ATOMIC_FETCH_ADD, local_addr=heap0,
        remote_addr=heap1, rkey=mr1.rkey, compare_add=2))
    wcs = drain(cq0, cl.env)
    assert wcs[0].opcode is WCOpcode.ATOMIC
    assert cl[1].memory.read_u64(heap1) == 42
    assert cl[0].memory.read_u64(heap0) == 40  # old value returned


def test_cmp_swap_atomic_success_and_failure():
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, mr1, _, _) = setups
    cl[1].memory.write_u64(heap1, 7)
    qps[0].post_send(SendWR(
        opcode=Opcode.ATOMIC_CMP_SWAP, wr_id=1, local_addr=heap0,
        remote_addr=heap1, rkey=mr1.rkey, compare_add=7, swap=99))
    drain(cq0, cl.env)
    assert cl[1].memory.read_u64(heap1) == 99
    qps[0].post_send(SendWR(
        opcode=Opcode.ATOMIC_CMP_SWAP, wr_id=2, local_addr=heap0,
        remote_addr=heap1, rkey=mr1.rkey, compare_add=7, swap=123))
    drain(cq0, cl.env)
    assert cl[1].memory.read_u64(heap1) == 99  # unchanged, compare failed
    assert cl[0].memory.read_u64(heap0) == 99  # old value returned


def test_atomics_serialize_at_target():
    """Concurrent fetch-adds from two ranks never lose updates."""
    cl = build_cluster(3)
    nodes = [cl[r] for r in range(3)]
    pds = [n.context.alloc_pd() for n in nodes]
    heaps = [n.memory.alloc(4096) for n in nodes]
    mrs = [n.context.reg_mr_sync(pds[i], heaps[i], 4096)
           for i, n in enumerate(nodes)]
    cqs = [n.context.create_cq() for n in nodes]
    # connect rank1->rank0 and rank2->rank0
    qp_a0 = nodes[1].context.create_qp(pds[1], cqs[1], cqs[1])
    qp_0a = nodes[0].context.create_qp(pds[0], cqs[0], cqs[0])
    qp_a0.connect(qp_0a)
    qp_b0 = nodes[2].context.create_qp(pds[2], cqs[2], cqs[2])
    qp_0b = nodes[0].context.create_qp(pds[0], cqs[0], cqs[0])
    qp_b0.connect(qp_0b)
    cl[0].memory.write_u64(heaps[0], 0)

    def hammer(env, qp, cq, heap, n_ops):
        for _ in range(n_ops):
            qp.post_send(SendWR(opcode=Opcode.ATOMIC_FETCH_ADD,
                                local_addr=heap, remote_addr=heaps[0],
                                rkey=mrs[0].rkey, compare_add=1))
            yield cq.wait_nonempty()
            cq.poll()

    p1 = cl.env.process(hammer(cl.env, qp_a0, cqs[1], heaps[1], 10))
    p2 = cl.env.process(hammer(cl.env, qp_b0, cqs[2], heaps[2], 10))
    cl.env.run(until=cl.env.all_of([p1, p2]))
    assert cl[0].memory.read_u64(heaps[0]) == 20


def test_unsignaled_write_produces_no_cqe():
    cl, setups, qps = make_pair()
    (_, heap0, _, cq0, _), (_, heap1, mr1, _, _) = setups
    qps[0].post_send(SendWR(
        opcode=Opcode.RDMA_WRITE, local_addr=heap0, length=8,
        remote_addr=heap1, rkey=mr1.rkey, signaled=False))
    cl.env.run()
    assert len(cq0) == 0
    assert qps[0].sq_available == qps[0].max_send_wr  # slot released anyway


def test_sq_depth_enforced():
    cl, setups, qps = make_pair()
    (_, heap0, _, _, _), (_, heap1, mr1, _, _) = setups
    qp = qps[0]
    for _ in range(qp.max_send_wr):
        qp.post_send(SendWR(opcode=Opcode.RDMA_WRITE, local_addr=heap0,
                            length=8, remote_addr=heap1, rkey=mr1.rkey,
                            signaled=False))
    with pytest.raises(QueueFullError):
        qp.post_send(SendWR(opcode=Opcode.RDMA_WRITE, local_addr=heap0,
                            length=8, remote_addr=heap1, rkey=mr1.rkey))


def test_inline_beyond_limit_rejected():
    cl, setups, qps = make_pair()
    (_, heap0, _, _, _), (_, heap1, mr1, _, _) = setups
    too_big = cl.params.nic.max_inline + 1
    with pytest.raises(BadWorkRequest):
        qps[0].post_send(SendWR(
            opcode=Opcode.RDMA_WRITE, local_addr=heap0, length=too_big,
            remote_addr=heap1, rkey=mr1.rkey, inline=True))


def test_inline_write_faster_than_dma_write():
    """Inline skips the source DMA fetch, so tiny writes complete sooner."""

    def one(inline):
        cl, setups, qps = make_pair()
        (_, heap0, _, cq0, _), (_, heap1, mr1, _, _) = setups

        def prog(env):
            qps[0].post_send(SendWR(
                opcode=Opcode.RDMA_WRITE, local_addr=heap0, length=64,
                remote_addr=heap1, rkey=mr1.rkey, inline=inline))
            yield cq0.wait_nonempty()
            return env.now

        p = cl.env.process(prog(cl.env))
        return cl.env.run(until=p)

    assert one(True) <= one(False)


def test_post_on_unconnected_qp_rejected():
    cl = build_cluster(2)
    node = cl[0]
    pd = node.context.alloc_pd()
    heap = node.memory.alloc(4096)
    node.context.reg_mr_sync(pd, heap, 4096)
    cq = node.context.create_cq()
    qp = node.context.create_qp(pd, cq, cq)
    with pytest.raises(NotConnected):
        qp.post_send(SendWR(opcode=Opcode.SEND, local_addr=heap, length=4))
    with pytest.raises(NotConnected):
        qp.post_recv(RecvWR(addr=heap, length=4))


def test_reg_mr_generator_charges_time():
    cl = build_cluster(2)
    node = cl[0]
    pd = node.context.alloc_pd()
    heap = node.memory.alloc(1 << 20)

    def prog(env):
        mr = yield from node.context.reg_mr(pd, heap, 1 << 20)
        return env.now, mr

    p = cl.env.process(prog(cl.env))
    t, mr = cl.env.run(until=p)
    pages = node.memory.pages_spanned(heap, 1 << 20)
    assert t == cl.params.host.reg_base_ns + pages * cl.params.host.reg_per_page_ns
    assert mr.valid


def test_dereg_mr_invalidates():
    cl = build_cluster(2)
    node = cl[0]
    pd = node.context.alloc_pd()
    heap = node.memory.alloc(4096)
    mr = node.context.reg_mr_sync(pd, heap, 4096)

    def prog(env):
        yield from node.context.dereg_mr(mr)

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert not mr.valid
    with pytest.raises(ProtectionError):
        node.context.check_remote(mr.rkey, heap, 8, Access.REMOTE_WRITE)


def test_loopback_qp_same_rank():
    """A rank cannot connect a QP pair to itself: same-rank traffic stays
    above the NIC (Photon self-ops, minimpi's local delivery, the
    runtime's local queue)."""
    cl = build_cluster(2)
    node = cl[0]
    pd = node.context.alloc_pd()
    cq = node.context.create_cq()
    qp_a = node.context.create_qp(pd, cq, cq)
    qp_b = node.context.create_qp(pd, cq, cq)
    with pytest.raises(NotConnected):
        qp_a.connect(qp_b)
    assert qp_a.state is QPState.RESET and qp_a.peer is None
