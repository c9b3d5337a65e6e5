"""Unit tests for minimpi engine internals: wire format, slot accounting,
software-overhead accounting, request lifecycle."""

import pytest

from repro.cluster import build_cluster
from repro.minimpi import MPIConfig, mpi_init
from repro.minimpi.protocol import (HDR, KIND_EAGER, KIND_FIN, KIND_RTS,
                                    SW_OVERHEAD_NS, MPIRequest)
from repro.sim import SimulationError

TIMEOUT = 10 ** 12


def test_header_roundtrip():
    raw = HDR.pack(KIND_RTS, 42, 1 << 20, 7, 0x1000, 99)
    kind, tag, size, sreq, addr, rkey = HDR.unpack(raw)
    assert (kind, tag, size, sreq, addr, rkey) == \
        (KIND_RTS, 42, 1 << 20, 7, 0x1000, 99)


def test_request_ids_unique():
    a = MPIRequest("send")
    b = MPIRequest("recv")
    assert a.rid != b.rid
    assert not a.done
    a.complete(5)
    assert a.done and a.t_completed == 5
    with pytest.raises(SimulationError):
        a.complete(6)


def test_send_slot_accounting(monkeypatch):
    """Slots are finite per peer and recycle after send completions."""
    monkeypatch.setattr("repro.minimpi.protocol.EAGER_CREDITS", 2)
    cl = build_cluster(2)
    comms = mpi_init(cl)
    ch = comms[0].engine._peer(1)
    assert len(ch.send_slots) == 2
    src = cl[0].memory.alloc(1024)

    def prog(env):
        reqs = []
        for i in range(6):  # burst: exceeds the 2-slot window
            req = yield from comms[0].isend(src, 32, 1, tag=i)
            reqs.append(req)
        yield from comms[0].waitall(reqs)

    def rx(env):
        dst = cl[1].memory.alloc(1024)
        for i in range(6):
            yield from comms[1].recv(dst, 64, 0, tag=i)

    p0 = cl.env.process(prog(cl.env))
    p1 = cl.env.process(rx(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert len(ch.send_slots) == 2  # all returned
    assert cl.counters.get("mpi.eager_stalls") > 0  # backpressure hit


def test_recv_bounces_reposted(monkeypatch):
    monkeypatch.setattr("repro.minimpi.protocol.PREPOST", 4)
    cl = build_cluster(2)
    comms = mpi_init(cl)
    src = cl[0].memory.alloc(64)
    dst = cl[1].memory.alloc(64)

    def tx(env):
        for i in range(10):
            yield from comms[0].send(src, 16, 1, tag=i)

    def rx(env):
        for i in range(10):
            yield from comms[1].recv(dst, 64, 0, tag=i)

    p0 = cl.env.process(tx(cl.env))
    p1 = cl.env.process(rx(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    # all prepost slots live again
    ch = comms[1].engine._peer(0)
    assert len(ch.recv_slots) == 4


def test_sw_overhead_accounted_per_call():
    """isend entry charges exactly SW_OVERHEAD_NS before protocol work."""
    cl = build_cluster(2)
    comms = mpi_init(cl)
    src = cl[0].memory.alloc(64)

    def prog(env):
        t0 = env.now
        req = yield from comms[0].isend(src, 0, 0, tag=1)  # self, 0 bytes
        return env.now - t0

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert p.value >= SW_OVERHEAD_NS


def test_rendezvous_uses_rcache():
    cl = build_cluster(2)
    comms = mpi_init(cl)
    size = 64 * 1024
    src = cl[0].memory.alloc(size)
    dst = cl[1].memory.alloc(size)

    def tx(env):
        for i in range(3):
            yield from comms[0].send(src, size, 1, tag=i)

    def rx(env):
        for i in range(3):
            yield from comms[1].recv(dst, size, 0, tag=i)

    p0 = cl.env.process(tx(cl.env))
    p1 = cl.env.process(rx(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    # sender registered once, hit twice; receiver likewise (each rank's
    # cache counts into its own scope)
    assert cl.scope(0).get("photon.rcache.misses") == 1
    assert cl.scope(0).get("photon.rcache.hits") == 2
    assert cl.scope(1).get("photon.rcache.hits") == 2


def test_unknown_peer_rejected():
    cl = build_cluster(2)
    comms = mpi_init(cl)
    with pytest.raises(SimulationError):
        comms[0].engine._peer(5)


def test_eager_threshold_routes_protocols():
    cfg = MPIConfig(eager_threshold=1024)
    cl = build_cluster(2)
    comms = mpi_init(cl, cfg)
    src = cl[0].memory.alloc(8192)
    dst = cl[1].memory.alloc(8192)

    def tx(env):
        yield from comms[0].send(src, 1024, 1, tag=1)  # at threshold: eager
        yield from comms[0].send(src, 1025, 1, tag=2)  # above: rendezvous

    def rx(env):
        yield from comms[1].recv(dst, 8192, 0, tag=1)
        yield from comms[1].recv(dst, 8192, 0, tag=2)

    p0 = cl.env.process(tx(cl.env))
    p1 = cl.env.process(rx(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert cl.counters.get("mpi.eager_sends") == 1
    assert cl.counters.get("mpi.rndv_sends") == 1


def test_a_settled_request_leaves_the_live_table_by_itself():
    """Fire-and-forget isends that nobody waits on (eager and rendezvous)
    leave ``live_requests`` when they settle; only the unmatched receive
    is still there, and ``stats()`` counts just it."""
    cl = build_cluster(2)
    comms = mpi_init(cl)
    small, big = 64, 64 * 1024
    src = cl[0].memory.alloc(big)
    dst = cl[1].memory.alloc(big)
    sends = []

    def tx(env):
        pending = yield from comms[0].irecv(src, 8, 1, tag=1234)
        for tag, size in enumerate((small, small, small, big)):
            sends.append((yield from comms[0].isend(src, size, 1, tag)))
        while not all(r.done for r in sends):
            yield from comms[0].iprobe()
        return pending

    def rx(env):
        for tag, size in enumerate((small, small, small, big)):
            yield from comms[1].recv(dst, size, 0, tag=tag)

    p0 = cl.env.process(tx(cl.env))
    p1 = cl.env.process(rx(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    engine = comms[0].engine
    assert not any(r.failed for r in sends)
    assert engine.live_requests == {p0.value.rid: p0.value}
    assert engine.stats()["live_requests"] == 1
