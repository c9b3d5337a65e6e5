"""Unit tests for runtime building blocks: actions, parcels, scheduler,
LCO edge cases."""

import pytest

from repro.cluster import build_cluster
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


# ---------------------------------------------------------------- actions


def test_registry_assigns_dense_ids():
    reg = ActionRegistry()
    a = reg.register("a", lambda *args: None)
    b = reg.register("b", lambda *args: None)
    assert (a, b) == (0, 1)
    assert reg.id_of("a") == 0
    assert reg.name_of(1) == "b"
    assert len(reg) == 2


def test_registry_duplicate_rejected():
    reg = ActionRegistry()
    reg.register("x", lambda *args: None)
    with pytest.raises(SimulationError):
        reg.register("x", lambda *args: None)


def test_registry_unknown_lookups_rejected():
    reg = ActionRegistry()
    with pytest.raises(SimulationError):
        reg.id_of("nope")
    with pytest.raises(SimulationError):
        reg.handler(0)


def test_registry_decorator_form():
    reg = ActionRegistry()

    @reg.action("decorated")
    def handler(rt, src, data):
        return None

    assert reg.id_of("decorated") == 0
    assert reg.handler(0) is handler


# ---------------------------------------------------------------- parcels


def test_parcel_empty_payload():
    p = Parcel(action=0, src=3, payload=b"")
    assert Parcel.decode(p.encode()) == p


def test_parcel_trailing_garbage_ignored_by_size_field():
    p = Parcel(action=1, src=0, payload=b"abc")
    raw = p.encode() + b"JUNK"
    assert Parcel.decode(raw).payload == b"abc"


def test_parcel_truncated_payload_rejected():
    p = Parcel(action=1, src=0, payload=b"abcdef")
    with pytest.raises(SimulationError):
        Parcel.decode(p.encode()[:-2])


# ---------------------------------------------------------------- scheduler


def test_progress_returns_false_when_idle():
    cl = build_cluster(2)
    ph = photon_init(cl)
    reg = ActionRegistry()
    rts = build_runtime(cl, reg, "photon", photon=ph)

    def prog(env):
        busy = yield from rts[0].progress()
        return busy

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert p.value is False


def test_local_queue_drains_before_wire():
    cl = build_cluster(2)
    ph = photon_init(cl)
    reg = ActionRegistry()
    order = []
    reg.register("n", lambda rt, src, data: order.append(data[0]))
    rts = build_runtime(cl, reg, "photon", photon=ph)

    def prog(env):
        yield from rts[0].send(0, "n", b"\x01")
        yield from rts[0].send(0, "n", b"\x02")
        yield from rts[0].process_n(2, timeout_ns=10 ** 10)

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert order == [1, 2]


def test_process_until_timeout_returns_false():
    cl = build_cluster(2)
    ph = photon_init(cl)
    reg = ActionRegistry()
    rts = build_runtime(cl, reg, "photon", photon=ph)

    def prog(env):
        ok = yield from rts[0].process_until(lambda: False,
                                             timeout_ns=500_000)
        return ok, env.now

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    ok, t = p.value
    assert not ok and t >= 500_000


# ---------------------------------------------------------------- LCOs


def test_andgate_over_arrival_rejected():
    g = AndGate(1)
    g.arrive()
    with pytest.raises(SimulationError):
        g.arrive()


def test_andgate_zero_is_immediately_ready():
    assert AndGate(0).ready


def test_reduce_lco_over_contribution_rejected():
    r = ReduceLCO(1, lambda a, b: a + b, 0)
    r.contribute(5)
    with pytest.raises(SimulationError):
        r.contribute(5)


def test_future_get_before_set_rejected():
    with pytest.raises(SimulationError):
        Future().get()
