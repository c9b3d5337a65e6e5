"""Integration tests for minimpi point-to-point over the fabric."""

import pytest

from repro.cluster import build_cluster
from repro.minimpi import ANY_SOURCE, ANY_TAG, mpi_init
from repro.sim import SimulationError



def setup(n=2, config=None, **kw):
    cl = build_cluster(n, **kw)
    comms = mpi_init(cl, config)
    return cl, comms


def run_all(cl, procs):
    return cl.env.run(until=cl.env.all_of(procs))


def heap(cl, rank, size=1 << 20):
    return cl[rank].memory.alloc(size)


def probe(cl, comm, src=ANY_SOURCE, tag=ANY_TAG):
    """Poll ``iprobe`` until a matching message can be received
    (generator -> its Status)."""
    while True:
        st = yield from comm.iprobe(src, tag)
        if st is not None:
            return st
        yield cl.env.timeout(1_000)


def test_eager_send_recv():
    cl, comms = setup()
    s = heap(cl, 0)
    r = heap(cl, 1)
    cl[0].memory.write(s, b"eager payload!")

    def sender(env):
        yield from comms[0].send(s, 14, dst=1, tag=3)

    def receiver(env):
        status = yield from comms[1].recv(r, 64, src=0, tag=3)
        return status

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    st = p1.value
    assert (st.source, st.tag, st.count) == (0, 3, 14)
    assert cl[1].memory.read(r, 14) == b"eager payload!"


def test_rendezvous_send_recv():
    cl, comms = setup()
    size = 128 * 1024
    s = heap(cl, 0)
    r = heap(cl, 1)
    cl[0].memory.write(s, bytes(range(256)) * 512)

    def sender(env):
        yield from comms[0].send(s, size, dst=1, tag=1)
        return env.now

    def receiver(env):
        st = yield from comms[1].recv(r, size, src=0, tag=1)
        return st

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value.count == size
    assert cl[1].memory.read(r, size) == bytes(range(256)) * 512
    assert cl.counters.get("mpi.rndv_sends") == 1


def test_unexpected_eager_message_buffered():
    """Send lands before the receive is posted; payload is preserved."""
    cl, comms = setup()
    s = heap(cl, 0)
    r = heap(cl, 1)
    cl[0].memory.write(s, b"early bird")

    def sender(env):
        yield from comms[0].send(s, 10, dst=1, tag=9)

    def receiver(env):
        yield env.timeout(100_000)  # post the receive late
        # progress runs (via probe) before the receive is posted, so the
        # message lands in the unexpected queue first
        yield from probe(cl, comms[1])
        st = yield from comms[1].recv(r, 64, src=0, tag=9)
        return st

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert cl[1].memory.read(r, 10) == b"early bird"
    assert cl.counters.get("mpi.unexpected") == 1


def test_unexpected_rts_buffered():
    cl, comms = setup()
    size = 64 * 1024
    s = heap(cl, 0)
    r = heap(cl, 1)
    cl[0].memory.write(s, b"R" * size)

    def sender(env):
        yield from comms[0].send(s, size, dst=1, tag=2)

    def receiver(env):
        yield env.timeout(200_000)
        st0 = yield from probe(cl, comms[1])
        assert st0.count == size
        st = yield from comms[1].recv(r, size, src=0, tag=2)
        return st

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert cl[1].memory.read(r, size) == b"R" * size
    assert cl.counters.get("mpi.unexpected_rts") == 1


def test_wildcard_receive_sets_status():
    cl, comms = setup(n=3)
    s = heap(cl, 2)
    r = heap(cl, 0)
    cl[2].memory.write(s, b"who am I")

    def sender(env):
        yield from comms[2].send(s, 8, dst=0, tag=42)

    def receiver(env):
        st = yield from comms[0].recv(r, 64, src=ANY_SOURCE, tag=ANY_TAG)
        return st

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert (p1.value.source, p1.value.tag) == (2, 42)


def test_message_ordering_same_peer_same_tag():
    cl, comms = setup()
    s = heap(cl, 0)
    r = heap(cl, 1)

    def sender(env):
        for i in range(8):
            cl[0].memory.write(s + i * 16, bytes([i]) * 16)
            yield from comms[0].send(s + i * 16, 16, dst=1, tag=1)

    def receiver(env):
        order = []
        for _ in range(8):
            st = yield from comms[1].recv(r, 16, src=0, tag=1)
            order.append(cl[1].memory.read(r, 1)[0])
        return order

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value == list(range(8))


def test_isend_irecv_overlap():
    cl, comms = setup()
    s = heap(cl, 0)
    r = heap(cl, 1)
    cl[0].memory.write(s, b"x" * 256)

    def sender(env):
        reqs = []
        for i in range(4):
            req = yield from comms[0].isend(s + i * 64, 64, dst=1, tag=i)
            reqs.append(req)
        yield from comms[0].waitall(reqs)
        return env.now

    def receiver(env):
        reqs = []
        for i in range(4):
            req = yield from comms[1].irecv(r + i * 64, 64, src=0, tag=i)
            reqs.append(req)
        yield from comms[1].waitall(reqs)
        return env.now

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])


def test_eager_truncation_raises():
    cl, comms = setup()
    s = heap(cl, 0)
    r = heap(cl, 1)

    def sender(env):
        yield from comms[0].send(s, 100, dst=1, tag=1)

    def receiver(env):
        yield from comms[1].recv(r, 10, src=0, tag=1)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    with pytest.raises(SimulationError, match="truncat"):
        run_all(cl, [p0, p1])


def test_self_send_recv():
    cl, comms = setup()
    s = heap(cl, 0)
    r = s + 4096
    cl[0].memory.write(s, b"to myself")

    def prog(env):
        sreq = yield from comms[0].isend(s, 9, dst=0, tag=5)
        st = yield from comms[0].recv(r, 64, src=0, tag=5)
        yield from comms[0].wait(sreq)
        return st

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert cl[0].memory.read(r, 9) == b"to myself"


def test_probe_then_recv():
    cl, comms = setup()
    s = heap(cl, 0)
    r = heap(cl, 1)
    cl[0].memory.write(s, b"probe me!")

    def sender(env):
        yield from comms[0].send(s, 9, dst=1, tag=7)

    def receiver(env):
        st = yield from probe(cl, comms[1])
        assert st.count == 9
        st2 = yield from comms[1].recv(r, 64, src=st.source, tag=st.tag)
        return st2

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert cl[1].memory.read(r, 9) == b"probe me!"


def test_iprobe_returns_none_when_empty():
    cl, comms = setup()

    def prog(env):
        st = yield from comms[0].iprobe()
        return st

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert p.value is None


def test_eager_flow_control_many_messages(monkeypatch):
    """Flood beyond the credit window; nothing is lost or reordered."""
    monkeypatch.setattr("repro.minimpi.protocol.EAGER_CREDITS", 4)
    monkeypatch.setattr("repro.minimpi.protocol.PREPOST", 8)
    cl, comms = setup()
    s = heap(cl, 0)
    r = heap(cl, 1)
    n_msgs = 50

    def sender(env):
        for i in range(n_msgs):
            cl[0].memory.write(s, bytes([i]) * 8)
            yield from comms[0].send(s, 8, dst=1, tag=1)

    def receiver(env):
        seen = []
        for _ in range(n_msgs):
            yield from comms[1].recv(r, 8, src=0, tag=1)
            seen.append(cl[1].memory.read(r, 1)[0])
        return seen

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value == list(range(n_msgs))


def test_zero_byte_message():
    cl, comms = setup()
    r = heap(cl, 1)

    def sender(env):
        yield from comms[0].send(0, 0, dst=1, tag=1)

    def receiver(env):
        st = yield from comms[1].recv(r, 64, src=0, tag=1)
        return st

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value.count == 0
