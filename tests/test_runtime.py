"""Integration tests for the parcel runtime over both transports."""

import pytest

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import photon_init
from repro.runtime import (
    ActionRegistry,
    AndGate,
    Future,
    Parcel,
    ReduceLCO,
    build_runtime,
)
from repro.sim import SimulationError

TIMEOUT = 200_000_000


def make(n=2, transport="photon"):
    cl = build_cluster(n)
    registry = ActionRegistry()
    if transport == "photon":
        ph = photon_init(cl)
        rts = build_runtime(cl, registry, "photon", photon=ph)
    else:
        comms = mpi_init(cl)
        rts = build_runtime(cl, registry, "mpi", comms=comms)
    return cl, registry, rts


def run_all(cl, procs):
    return cl.env.run(until=cl.env.all_of(procs))


# ------------------------------------------------------------- parcels


def test_parcel_encode_decode_roundtrip():
    p = Parcel(action=3, src=1, payload=b"payload bytes")
    assert Parcel.decode(p.encode()) == p


def test_parcel_decode_short_raises():
    with pytest.raises(SimulationError):
        Parcel.decode(b"abc")


@pytest.mark.parametrize("transport", ["photon", "mpi"])
def test_remote_parcel_runs_handler(transport):
    cl, registry, rts = make(transport=transport)
    seen = []
    registry.register("hello", lambda rt, src, data: seen.append(
        (rt.rank, src, bytes(data))))

    def sender(env):
        yield from rts[0].send(1, "hello", b"hi there")

    def receiver(env):
        ok = yield from rts[1].process_n(1, timeout_ns=TIMEOUT)
        return ok

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value
    assert seen == [(1, 0, b"hi there")]


@pytest.mark.parametrize("transport", ["photon", "mpi"])
def test_large_parcel_roundtrip(transport):
    cl, registry, rts = make(transport=transport)
    seen = []
    registry.register("big", lambda rt, src, data: seen.append(len(data)))
    big = bytes(200_000)

    def sender(env):
        yield from rts[0].send(1, "big", big)

    def receiver(env):
        yield from rts[1].process_n(1, timeout_ns=TIMEOUT)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert seen == [200_000]


def test_local_parcel_short_circuits():
    cl, registry, rts = make()
    seen = []
    registry.register("loc", lambda rt, src, data: seen.append(src))

    def prog(env):
        yield from rts[0].send(0, "loc")
        yield from rts[0].process_n(1, timeout_ns=TIMEOUT)

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert seen == [0]
    assert cl.counters.get("nic.tx_msgs") == 0  # nothing hit the wire


def test_generator_handler_can_reply():
    """Handlers may themselves send parcels (request/response pattern)."""
    cl, registry, rts = make()
    answers = []

    def ping(rt, src, data):
        yield from rt.send(src, "pong", data + b"!")

    registry.register("ping", ping)
    registry.register("pong", lambda rt, src, data: answers.append(data))

    def rank0(env):
        yield from rts[0].send(1, "ping", b"marco")
        yield from rts[0].process_n(1, timeout_ns=TIMEOUT)

    def rank1(env):
        yield from rts[1].process_n(1, timeout_ns=TIMEOUT)

    p0 = cl.env.process(rank0(cl.env))
    p1 = cl.env.process(rank1(cl.env))
    run_all(cl, [p0, p1])
    assert answers == [b"marco!"]


def test_parcel_flood_all_delivered():
    cl, registry, rts = make()
    count = [0]
    registry.register("inc", lambda rt, src, data: count.__setitem__(
        0, count[0] + 1))
    n_parcels = 100

    def sender(env):
        for i in range(n_parcels):
            yield from rts[0].send(1, "inc", bytes([i % 256]) * 64)

    def receiver(env):
        yield from rts[1].process_n(n_parcels, timeout_ns=TIMEOUT)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert count[0] == n_parcels


def test_unknown_action_rejected():
    cl, registry, rts = make()
    with pytest.raises(SimulationError):
        list(rts[0].send(1, "nope"))


# ------------------------------------------------------------- LCOs


def test_future_set_by_handler():
    cl, registry, rts = make()
    fut = Future()
    registry.register("fulfill", lambda rt, src, data: fut.set(bytes(data)))

    def rank0(env):
        value = yield from fut.wait(rts[0], timeout_ns=TIMEOUT)
        return value

    def rank1(env):
        yield from rts[1].send(0, "fulfill", b"result")

    p0 = cl.env.process(rank0(cl.env))
    p1 = cl.env.process(rank1(cl.env))
    run_all(cl, [p0, p1])
    assert p0.value == b"result"


def test_future_double_set_rejected():
    f = Future()
    f.set(1)
    with pytest.raises(SimulationError):
        f.set(2)


def test_andgate_counts_arrivals():
    cl, registry, rts = make(n=4)
    gate = AndGate(3)
    registry.register("arrive", lambda rt, src, data: gate.arrive())

    def rank0(env):
        yield from gate.wait(rts[0], timeout_ns=TIMEOUT)
        return rts[0].parcels_run

    def other(env, r):
        yield from rts[r].send(0, "arrive")

    procs = [cl.env.process(other(cl.env, r)) for r in (1, 2, 3)]
    procs.append(cl.env.process(rank0(cl.env)))
    run_all(cl, procs)
    assert gate.ready


def test_reduce_lco():
    cl, registry, rts = make(n=3)
    red = ReduceLCO(2, lambda a, b: a + b, 0)
    registry.register("contrib", lambda rt, src, data: red.contribute(
        int.from_bytes(data, "little")))

    def rank0(env):
        val = yield from red.wait(rts[0], timeout_ns=TIMEOUT)
        return val

    def other(env, r):
        yield from rts[r].send(0, "contrib", (r * 10).to_bytes(8, "little"))

    procs = [cl.env.process(other(cl.env, r)) for r in (1, 2)]
    p0 = cl.env.process(rank0(cl.env))
    run_all(cl, procs + [p0])
    assert p0.value == 30
