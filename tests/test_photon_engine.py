"""Photon engine internals: progress accounting, credits, request table.

These pin the *cost-model* behaviour of the middleware — the properties
the benchmark results rest on — rather than end-to-end data movement.
"""

import pytest

from repro.cluster import build_cluster
from repro.photon import PhotonConfig, photon_init
from repro.photon.ledger import CMP, EAGER
from repro.photon.request import RequestState, RequestTable
from repro.sim import SimulationError

TIMEOUT = 10 ** 12


# ---------------------------------------------------------------- requests


def test_request_table_lifecycle():
    t = RequestTable(rank=0)
    req = t.create(peer=1)
    assert req.state is RequestState.PENDING and req.peer == 1
    assert t.pending == 1
    done = t.complete(req.rid, now=500)
    assert done is req and done.state is RequestState.COMPLETED
    assert done.settled and not done.failed
    assert t.pending == 0
    t.free(req.rid)
    with pytest.raises(SimulationError):
        t.get(req.rid)


def test_request_double_complete_rejected():
    t = RequestTable(rank=0)
    req = t.create(1)
    t.complete(req.rid, 10)
    with pytest.raises(SimulationError):
        t.complete(req.rid, 20)


def test_request_ids_unique_and_dense():
    t = RequestTable(rank=0)
    rids = [t.create(1).rid for _ in range(5)]
    assert len(set(rids)) == 5
    assert t.total_created == 5


# ---------------------------------------------------------------- progress


def test_progress_pass_charges_time():
    cl = build_cluster(2)
    ph = photon_init(cl)

    def prog(env):
        t0 = env.now
        yield from ph[0]._progress_once()
        return env.now - t0

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert p.value >= ph[0].config.progress_poll_ns


def test_progress_cost_scales_with_completions():
    """Reaping k completions costs ~k * cqe_poll more than an empty pass."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    src = ph[0].buffer(4096)
    dst = ph[1].buffer(4096)

    def prog(env):
        for i in range(8):
            yield from ph[0].put_pwc(1, src.addr, 32, dst.addr, dst.rkey,
                                     local_cid=i)
        # let all acks arrive without touching the engine
        yield env.timeout(1_000_000)
        t0 = env.now
        yield from ph[0]._progress_once()
        loaded = env.now - t0
        t0 = env.now
        yield from ph[0]._progress_once()
        empty = env.now - t0
        return loaded, empty

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    loaded, empty = p.value
    cqe = cl.params.nic.cqe_poll_ns
    assert loaded >= empty + 8 * cqe


def test_credit_word_reflects_consumption():
    """After the consumer drains past the credit fraction, the producer's
    local credit word advances."""
    cfg = PhotonConfig(eager_slots=8)
    cl = build_cluster(2)
    ph = photon_init(cl, cfg)

    def sender(env):
        for i in range(6):
            yield from ph[0].send_pwc(1, b"z" * 16, remote_cid=i)

    def receiver(env):
        for _ in range(6):
            m = yield from ph[1].wait_message(timeout_ns=TIMEOUT)
            assert m is not None
        # give the credit write time to land
        yield env.timeout(100_000)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    channel = ph[0].peers[1].channel
    assert channel.credit(EAGER) >= 4  # one credit return of >= half ring
    assert channel.available(EAGER) >= 6


def test_ledger_mode_and_imm_mode_agree_on_results():
    """The two completion-delivery mechanisms produce identical outcomes
    (different timing, same semantics)."""

    def run(use_imm):
        cl = build_cluster(2)
        ph = photon_init(cl, PhotonConfig(use_imm=use_imm))
        src = ph[0].buffer(256)
        dst = ph[1].buffer(256)
        cl[0].memory.write(src.addr, b"M" * 256)
        got = []

        def sender(env):
            for i in range(5):
                yield from ph[0].put_pwc(1, src.addr, 256, dst.addr,
                                         dst.rkey, remote_cid=100 + i)

        def receiver(env):
            for _ in range(5):
                c = yield from ph[1].wait_completion("remote",
                                                     timeout_ns=TIMEOUT)
                got.append((c.cid, c.src))

        p0 = cl.env.process(sender(cl.env))
        p1 = cl.env.process(receiver(cl.env))
        cl.env.run(until=cl.env.all_of([p0, p1]))
        return got, cl[1].memory.read(dst.addr, 256)

    ledger = run(False)
    imm = run(True)
    assert ledger == imm


def test_peer_lookup_rejects_unknown_rank():
    cl = build_cluster(2)
    ph = photon_init(cl)
    with pytest.raises(SimulationError):
        ph[0]._peer(7)


def test_eager_entry_too_big_for_slot_rejected():
    """Internal guard: a ring entry larger than the slot is a model bug."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    peer = ph[0].peers[1]

    def prog(env):
        yield from ph[0]._entry_op(
            peer, "notify", CMP,
            lambda seq, op_id: b"x" * 1000)  # cmp slots are 32B

    p = cl.env.process(prog(cl.env))
    with pytest.raises(SimulationError, match="exceeds"):
        cl.env.run(until=p)


def test_rendezvous_info_ring_backpressure(monkeypatch):
    """More concurrent advertisements than info slots: senders stall on
    credits but nothing is lost."""
    monkeypatch.setattr("repro.photon.ledger.INFO_ENTRIES", 2)
    cl = build_cluster(2)
    ph = photon_init(cl)
    size = 16 * 1024
    src = ph[0].buffer(size * 8)
    dst = ph[1].buffer(size)

    def sender(env):
        rids = []
        for i in range(8):
            rid = yield from ph[0].send_rdma(1, src.addr + i * size, size,
                                             tag=i)
            rids.append(rid)
        yield from ph[0].wait_all(rids, timeout_ns=TIMEOUT)
        return True

    def receiver(env):
        for i in range(8):
            info = yield from ph[1].wait_recv_info(src=0, tag=i,
                                                   timeout_ns=TIMEOUT)
            assert info is not None
            yield from ph[1].recv_rdma(info, dst.addr)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert p0.value is True
    assert cl.counters.get("photon.info_stalls") > 0
