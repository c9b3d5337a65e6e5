"""Tests for Photon remote atomics and endpoint telemetry."""

import pytest

from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.sim import SimulationError

TIMEOUT = 10_000_000_000


def setup(n=2):
    cl = build_cluster(n)
    ph = photon_init(cl)
    return cl, ph


def run_all(cl, procs):
    return cl.env.run(until=cl.env.all_of(procs))


def test_fetch_add_returns_old_value():
    cl, ph = setup()
    tgt = ph[1].buffer(64)
    cl[1].memory.write_u64(tgt.addr, 100)

    def prog(env):
        old = yield from ph[0].fetch_add_blocking(1, tgt.addr, tgt.rkey, 5)
        return old

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert p.value == 100
    assert cl[1].memory.read_u64(tgt.addr) == 105


def test_atomic_fadd_with_cid_and_result_lookup():
    cl, ph = setup()
    tgt = ph[1].buffer(8)
    cl[1].memory.write_u64(tgt.addr, 7)

    def prog(env):
        yield from ph[0].atomic_fadd(1, tgt.addr, tgt.rkey, 3,
                                     local_cid=99)
        c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        return c, ph[0].atomic_result(99)

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    c, old = p.value
    assert c.cid == 99 and old == 7
    assert cl[1].memory.read_u64(tgt.addr) == 10


def test_atomic_cswap_success_and_failure():
    cl, ph = setup()
    tgt = ph[1].buffer(8)
    cl[1].memory.write_u64(tgt.addr, 1)

    def prog(env):
        yield from ph[0].atomic_cswap(1, tgt.addr, tgt.rkey,
                                      compare=1, swap=50, local_cid=1)
        yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        first = ph[0].atomic_result(1)
        yield from ph[0].atomic_cswap(1, tgt.addr, tgt.rkey,
                                      compare=1, swap=99, local_cid=2)
        yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        second = ph[0].atomic_result(2)
        return first, second

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert p.value == (1, 50)  # second compare failed, old value returned
    assert cl[1].memory.read_u64(tgt.addr) == 50


def test_concurrent_atomics_from_many_ranks_never_lose_updates():
    cl, ph = setup(n=4)
    tgt = ph[0].buffer(8)
    cl[0].memory.write_u64(tgt.addr, 0)

    def prog(env, rank):
        for _ in range(10):
            yield from ph[rank].fetch_add_blocking(0, tgt.addr, tgt.rkey, 1)

    procs = [cl.env.process(prog(cl.env, r)) for r in (1, 2, 3)]
    run_all(cl, procs)
    assert cl[0].memory.read_u64(tgt.addr) == 30


def test_self_atomic():
    cl, ph = setup()
    tgt = ph[0].buffer(8)
    cl[0].memory.write_u64(tgt.addr, 11)

    def prog(env):
        old = yield from ph[0].fetch_add_blocking(0, tgt.addr, tgt.rkey, 4)
        return old

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert p.value == 11
    assert cl[0].memory.read_u64(tgt.addr) == 15


def test_atomic_result_unknown_cid_rejected():
    cl, ph = setup()
    with pytest.raises(SimulationError, match="atomic result"):
        ph[0].atomic_result(12345)


def test_distributed_counter_pattern():
    """The runtime pattern atomics exist for: a global ticket counter."""
    cl, ph = setup(n=3)
    counter = ph[0].buffer(8)
    tickets = {1: [], 2: []}

    def prog(env, rank):
        for _ in range(5):
            t = yield from ph[rank].fetch_add_blocking(
                0, counter.addr, counter.rkey, 1)
            tickets[rank].append(t)

    procs = [cl.env.process(prog(cl.env, r)) for r in (1, 2)]
    run_all(cl, procs)
    allt = sorted(tickets[1] + tickets[2])
    assert allt == list(range(10))  # unique, dense tickets


def test_stats_snapshot():
    cl, ph = setup()
    tgt = ph[1].buffer(64)

    def prog(env):
        yield from ph[0].put_pwc(1, 0, 0, tgt.addr, tgt.rkey, remote_cid=1)
        yield from ph[0]._progress_once()

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    s = ph[0].stats()
    assert s["rank"] == 0
    assert "1" in s["outstanding_by_peer"]
    assert s["rcache"]["held_refs"] >= 0
    assert s["reliable_ops_inflight"] >= 0
    assert all(v >= 0
               for rings in s["ledger_credits"].values()
               for v in rings.values())
    # the whole snapshot must be JSON-clean (string keys throughout)
    import json
    json.dumps(s)
    r1 = ph[1].stats()
    assert r1["rank"] == 1
