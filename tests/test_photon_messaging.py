"""Integration tests for Photon's rendezvous messaging and os_put/get."""

import pytest

from repro.cluster import build_cluster
from repro.photon import ANY, photon_init
from repro.photon.request import RequestState
from repro.sim import SimulationError

TIMEOUT = 100_000_000


def setup(n=2, **kw):
    cl = build_cluster(n, **kw)
    ph = photon_init(cl)
    return cl, ph


def run_all(cl, procs):
    return cl.env.run(until=cl.env.all_of(procs))


# ------------------------------------------------------------- os put/get


def test_os_put_wait():
    cl, ph = setup()
    src = ph[0].buffer(1024)
    dst = ph[1].buffer(1024)
    cl[0].memory.write(src.addr, b"q" * 1024)

    def prog(env):
        rid = yield from ph[0].post_os_put(1, src.addr, 1024, dst.addr,
                                           dst.rkey)
        assert not ph[0].test(rid)
        ok = yield from ph[0].wait(rid, timeout_ns=TIMEOUT)
        info = ph[0].request_info(rid)
        ph[0].free_request(rid)
        return ok, info

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    ok, info = p.value
    assert ok is True and info.peer == 1
    assert info.state is RequestState.FREED
    assert cl[1].memory.read(dst.addr, 1024) == b"q" * 1024


def test_os_get_wait():
    cl, ph = setup()
    local = ph[0].buffer(2048)
    remote = ph[1].buffer(2048)
    cl[1].memory.write(remote.addr, b"G" * 2048)

    def prog(env):
        rid = yield from ph[0].post_os_get(1, local.addr, 2048, remote.addr,
                                           remote.rkey)
        yield from ph[0].wait(rid, timeout_ns=TIMEOUT)
        return rid

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert cl[0].memory.read(local.addr, 2048) == b"G" * 2048


def test_wait_all_multiple_requests():
    cl, ph = setup()
    src = ph[0].buffer(4096)
    dst = ph[1].buffer(4096)

    def prog(env):
        rids = []
        for i in range(4):
            rid = yield from ph[0].post_os_put(
                1, src.addr + i * 64, 64, dst.addr + i * 64, dst.rkey)
            rids.append(rid)
        ok = yield from ph[0].wait_all(rids, timeout_ns=TIMEOUT)
        return ok

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert p.value


def test_free_unknown_request_rejected():
    cl, ph = setup()
    with pytest.raises(SimulationError):
        ph[0].free_request(12345)


# ------------------------------------------------------------- rendezvous


def test_rendezvous_send_recv_roundtrip():
    cl, ph = setup()
    size = 256 * 1024  # far beyond eager
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)
    cl[0].memory.write(src.addr, bytes(range(256)) * 1024)

    def sender(env):
        rid = yield from ph[0].send_rdma(1, src.addr, size, tag=7)
        ok = yield from ph[0].wait(rid, timeout_ns=TIMEOUT)
        return ok, env.now

    def receiver(env):
        info = yield from ph[1].wait_recv_info(src=0, tag=7,
                                               timeout_ns=TIMEOUT)
        assert info is not None and info.size == size
        n = yield from ph[1].recv_rdma(info, dst.addr)
        return n, env.now

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p0.value[0] is True
    assert p1.value[0] == size
    assert cl[1].memory.read(dst.addr, size) == bytes(range(256)) * 1024
    # sender's FIN arrives after receiver finished the get
    assert p0.value[1] >= p1.value[1]


def test_rendezvous_tag_matching():
    """Receiver can pick a specific tag among several advertisements."""
    cl, ph = setup()
    a = ph[0].buffer(4096)
    b = ph[0].buffer(4096)
    dst = ph[1].buffer(8192)
    cl[0].memory.write(a.addr, b"A" * 4096)
    cl[0].memory.write(b.addr, b"B" * 4096)

    def sender(env):
        r1 = yield from ph[0].send_rdma(1, a.addr, 4096, tag=1)
        r2 = yield from ph[0].send_rdma(1, b.addr, 4096, tag=2)
        yield from ph[0].wait_all([r1, r2], timeout_ns=TIMEOUT)

    def receiver(env):
        info2 = yield from ph[1].wait_recv_info(src=0, tag=2,
                                                timeout_ns=TIMEOUT)
        yield from ph[1].recv_rdma(info2, dst.addr)
        info1 = yield from ph[1].wait_recv_info(src=0, tag=1,
                                                timeout_ns=TIMEOUT)
        yield from ph[1].recv_rdma(info1, dst.addr + 4096)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert cl[1].memory.read(dst.addr, 4096) == b"B" * 4096
    assert cl[1].memory.read(dst.addr + 4096, 4096) == b"A" * 4096


def test_wildcard_recv_info():
    cl, ph = setup(n=3)
    src = ph[2].buffer(1024)

    def sender(env):
        rid = yield from ph[2].send_rdma(0, src.addr, 1024, tag=9)
        yield from ph[2].wait(rid, timeout_ns=TIMEOUT)

    def receiver(env):
        info = yield from ph[0].wait_recv_info(src=ANY, tag=ANY,
                                               timeout_ns=TIMEOUT)
        dst = ph[0].buffer(1024)
        yield from ph[0].recv_rdma(info, dst.addr)
        return info.src, info.tag

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value == (2, 9)


def test_send_msg_picks_eager_for_small():
    cl, ph = setup()

    def sender(env):
        yield from ph[0].send_msg(1, b"tiny", tag=3)

    def receiver(env):
        m = yield from ph[1].recv_msg(src=0, tag=3, timeout_ns=TIMEOUT)
        return m

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value == (0, 3, b"tiny")
    assert cl.counters.get("photon.eager_msgs") == 1
    assert cl.counters.get("photon.rendezvous_sends") == 0


def test_send_msg_picks_rendezvous_for_large():
    cl, ph = setup()
    big = bytes(64) * 1024  # 64 KiB
    s_scratch = ph[0].buffer(len(big))
    r_scratch = ph[1].buffer(len(big))

    def sender(env):
        yield from ph[0].send_msg(1, big, tag=4, scratch_addr=s_scratch.addr)

    def receiver(env):
        m = yield from ph[1].recv_msg(src=0, tag=4,
                                      scratch_addr=r_scratch.addr,
                                      timeout_ns=TIMEOUT)
        return m

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    src, tag, data = p1.value
    assert (src, tag) == (0, 4)
    assert data == big
    assert cl.counters.get("photon.rendezvous_sends") == 1


def test_send_msg_large_without_scratch_rejected():
    cl, ph = setup()

    def sender(env):
        yield from ph[0].send_msg(1, bytes(100_000), tag=1)

    p = cl.env.process(sender(cl.env))
    with pytest.raises(SimulationError, match="scratch"):
        run_all(cl, [p])


def test_self_send_msg_roundtrip():
    cl, ph = setup()
    big = b"x" * 50_000
    scratch = ph[0].buffer(len(big))

    def prog(env):
        yield from ph[0].send_msg(0, big, tag=5, scratch_addr=scratch.addr)
        m = yield from ph[0].recv_msg(src=0, tag=5, timeout_ns=TIMEOUT)
        return m

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert p.value == (0, 5, big)


def test_rendezvous_faster_than_two_eager_copies_for_large():
    """Rendezvous get is zero-copy: one wire traversal at full bandwidth."""
    cl, ph = setup()
    size = 1 << 20
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)

    def sender(env):
        rid = yield from ph[0].send_rdma(1, src.addr, size, tag=1)
        yield from ph[0].wait(rid, timeout_ns=TIMEOUT)

    def receiver(env):
        info = yield from ph[1].wait_recv_info(src=0, tag=1,
                                               timeout_ns=TIMEOUT)
        t0 = env.now
        yield from ph[1].recv_rdma(info, dst.addr)
        return env.now - t0

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    # 1 MiB at 54 Gbit/s ~ 155 us; allow protocol overhead up to 2x
    assert p1.value < 400_000
