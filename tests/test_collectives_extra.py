"""Tests for Photon's wait_any."""

import pytest

from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.sim import SimulationError


# ---------------------------------------------------------------- wait_any


def test_wait_any_returns_first_completed():
    cl = build_cluster(2)
    ph = photon_init(cl)
    src = ph[0].buffer(1 << 20)
    dst = ph[1].buffer(1 << 20)

    def prog(env):
        big = yield from ph[0].post_os_put(1, src.addr, 1 << 20,
                                           dst.addr, dst.rkey)
        small = yield from ph[0].post_os_put(1, src.addr, 8,
                                             dst.addr, dst.rkey)
        # the small one was posted later but the NIC engine serialises
        # per rank; wait_any must return whichever finished
        winner = yield from ph[0].wait_any([big, small],
                                           timeout_ns=10 ** 12)
        yield from ph[0].wait_all([big, small], timeout_ns=10 ** 12)
        return winner, big, small

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    winner, big, small = p.value
    assert winner in (big, small)


def test_wait_any_timeout():
    cl = build_cluster(2)
    ph = photon_init(cl)
    src = ph[0].buffer(64)
    dst = ph[1].buffer(64)

    def prog(env):
        rid = yield from ph[0].post_os_put(1, src.addr, 8, dst.addr,
                                           dst.rkey)
        # a request that never completes: fabricate one
        ghost = ph[0].requests.create(1)
        got = yield from ph[0].wait_any([ghost.rid], timeout_ns=100_000)
        ok = yield from ph[0].wait(ghost.rid, timeout_ns=100_000)
        return got, ok

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert p.value == (None, False)


def test_wait_any_empty_rejected():
    cl = build_cluster(2)
    ph = photon_init(cl)
    with pytest.raises(SimulationError):
        list(ph[0].wait_any([]))
