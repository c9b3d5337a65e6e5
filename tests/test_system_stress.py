"""Whole-system stress tests: every feature interleaved, multi-rank.

These are the "does the whole stack hold together" tests: PWC puts,
eager sends, rendezvous transfers, atomics and collectives all in flight
at once across four ranks, on clean and lossy fabrics, with payload
integrity and counter invariants asserted at the end.
"""

from collections import deque

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.photon.rcache import assert_reg_balance
from repro.sim import SimulationError

TIMEOUT = 10 ** 12
N = 4
ROUNDS = 6


def build(drop=0.0, seed=0, rcache=True):
    from repro.photon import PhotonConfig
    kw = {}
    if drop:
        kw = {"link__drop_rate": drop}
    cl = build_cluster(N, params="ib-fdr", seed=seed, **kw)
    ph = photon_init(cl, PhotonConfig(rcache_enabled=rcache))
    return cl, ph


def assert_no_pin_leaks(cl, ph):
    """End-of-test pin-leak guard: every acquire was released and every
    registration was deregistered or is still owned somewhere."""

    def drain(env):
        # let straggling retries/acks settle and spawned deregs finish
        yield env.timeout(10 ** 10)
        for ep in ph:
            yield from ep.rcache.flush()

    p = cl.env.process(drain(cl.env))
    cl.env.run(until=p)
    for ep in ph:
        assert ep.rcache.held_refs == 0, \
            f"rank {ep.rank}: leaked acquire references"
        assert ep.rcache.pending_evictions == 0
    assert_reg_balance(cl.counters,
                       [cl.ranks[r].context for r in range(len(cl.ranks))])


def test_direct_pwc_ops_leave_no_per_op_state():
    """Regression: every put/get/send_pwc used to leave its terminal
    status in a side table until the caller "freed" the op — and only the
    runtime transport ever did, so direct users (KV one-sided reads, GAS,
    collectives, the benchmarks) leaked one entry per op for the life of
    the endpoint.  A settled op the caller dropped must leave nothing."""

    def run(n):
        cl, ph = build()
        src, dst = ph[0].buffer(4096), ph[1].buffer(4096)

        def initiator(env):
            for i in range(n):
                yield from ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                         local_cid=i)
                yield from ph[0].get_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                         local_cid=i)
                yield from ph[0].send_pwc(1, b"x" * 32, remote_cid=i,
                                          local_cid=i)
                for _ in range(3):
                    c = yield from ph[0].wait_completion("local",
                                                         timeout_ns=TIMEOUT)
                    assert c.ok

        def target(env):
            for _ in range(n):
                assert (yield from ph[1].wait_message(timeout_ns=TIMEOUT))

        def settle(env):
            # reap the trailing acks and credit writes on both sides
            for _ in range(8):
                yield env.timeout(10_000)
                for ep in ph[:2]:
                    yield from ep.probe_completion()

        procs = [cl.env.process(initiator(cl.env)),
                 cl.env.process(target(cl.env))]
        cl.env.run(until=cl.env.all_of(procs))
        cl.env.run(until=cl.env.process(settle(cl.env)))
        assert_no_pin_leaks(cl, ph)
        return [{name: len(v) for name, v in vars(ep).items()
                 if isinstance(v, (dict, list, set, deque))} for ep in ph]

    few, many = run(30), run(120)
    assert few == many, "an endpoint container grows with the op count"
    assert few[0]["_reliable"] == 0


@pytest.mark.parametrize("drop,rcache", [(0.0, True), (0.03, True),
                                         (0.0, False)])
def test_everything_everywhere_all_at_once(drop, rcache):
    cl, ph = build(drop=drop, rcache=rcache)
    # disjoint regions per rank: rendezvous source, put-landing, landing
    rdv_src = [ep.buffer(1 << 16) for ep in ph]
    put_src = [ep.buffer(4096) for ep in ph]
    put_dst = [ep.buffer(1 << 14) for ep in ph]
    counter = ph[0].buffer(8)
    landing = [ep.buffer(1 << 16) for ep in ph]
    errors = []

    def program(rank):
        ep = ph[rank]
        env = cl.env
        right = (rank + 1) % N
        left = (rank - 1) % N
        big = bytes(((rank + 1) * 37 + i) & 0xFF for i in range(40_000))
        cl.ranks[rank].memory.write(rdv_src[rank].addr, big)
        cl.ranks[rank].memory.write(put_src[rank].addr, bytes([rank]) * 512)
        for rnd in range(ROUNDS):
            # 1) pwc put into the right neighbour's buffer
            yield from ep.put_pwc(right, put_src[rank].addr, 512,
                                  put_dst[right].addr + 1024 * (rank % 8),
                                  put_dst[right].rkey,
                                  remote_cid=(rnd << 8) | rank)
            # 2) eager message to the left neighbour
            yield from ep.send_pwc(left, bytes([rank, rnd]) * 64,
                                   remote_cid=(1 << 20) | (rnd << 8) | rank)
            # 3) rendezvous send of the big buffer to the right neighbour
            rid = yield from ep.send_rdma(right, rdv_src[rank].addr,
                                          40_000, tag=rnd)
            # 4) a remote atomic on the global counter
            yield from ep.fetch_add_blocking(0, counter.addr, counter.rkey,
                                             1)
            # 5) consume what the neighbours sent us
            c = yield from ep.wait_completion("remote", timeout_ns=TIMEOUT)
            if c is None:
                errors.append((rank, rnd, "pwc completion lost"))
                return
            m = yield from ep.wait_message(
                lambda s, cid: cid & (1 << 20), timeout_ns=TIMEOUT)
            if m is None or m[2] != bytes([m[0], rnd]) * 64:
                errors.append((rank, rnd, "eager payload wrong"))
                return
            info = yield from ep.wait_recv_info(src=left, tag=rnd,
                                                timeout_ns=TIMEOUT)
            if info is None:
                errors.append((rank, rnd, "rendezvous info lost"))
                return
            got = yield from ep.recv_rdma(info, landing[rank].addr)
            raw = cl.ranks[rank].memory.read(landing[rank].addr, got)
            want = bytes(((left + 1) * 37 + i) & 0xFF
                         for i in range(40_000))
            if raw != want:
                errors.append((rank, rnd, "rendezvous payload wrong"))
                return
            yield from ep.wait(rid, timeout_ns=TIMEOUT)
            ep.free_request(rid)
            # 6) a collective to close the round
            total = yield from ep.allreduce(
                np.array([rank + rnd], dtype=np.int64), "sum")
            expect = sum(r + rnd for r in range(N))
            if int(total[0]) != expect:
                errors.append((rank, rnd, f"allreduce {total[0]}"))
                return

    procs = [cl.env.process(program(r)) for r in range(N)]
    cl.env.run(until=cl.env.all_of(procs))
    assert errors == []
    # the global counter saw exactly N * ROUNDS atomic increments
    assert cl.ranks[0].memory.read_u64(counter.addr) == N * ROUNDS
    # no RNR events: photon never posts an unready receive path
    assert cl.counters.get("verbs.rnr_stalls") == 0
    assert_no_pin_leaks(cl, ph)


def test_outstanding_cap_enforced_under_flood():
    """max_outstanding bounds in-flight ops per peer; the flood still
    completes and the bound is never exceeded."""
    from repro.photon import PhotonConfig
    cfg = PhotonConfig(max_outstanding=8)
    cl = build_cluster(2, params="ib-fdr")
    ph = photon_init(cl, cfg)
    src = ph[0].buffer(4096)
    dst = ph[1].buffer(4096)
    peak = []

    def sender(env):
        for i in range(100):
            yield from ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                     local_cid=i)
            peak.append(ph[0].peers[1].outstanding)
        got = 0
        while got < 100:
            c = yield from ph[0].wait_completion("local",
                                                 timeout_ns=TIMEOUT)
            assert c is not None
            got += 1

    p = cl.env.process(sender(cl.env))
    cl.env.run(until=p)
    assert max(peak) <= cfg.max_outstanding
    assert ph[0].peers[1].outstanding == 0
    assert_no_pin_leaks(cl, ph)


def test_bidirectional_flood_no_deadlock():
    """Both ranks flood each other through shallow rings simultaneously;
    credit-based flow control must not deadlock."""
    from repro.photon import PhotonConfig
    cfg = PhotonConfig(eager_slots=4, completion_entries=4,
                       max_outstanding=16)
    cl = build_cluster(2, params="ib-fdr")
    ph = photon_init(cl, cfg)
    n_msgs = 60

    def side(rank):
        ep = ph[rank]
        other = 1 - rank
        sent = 0
        got = 0
        while sent < n_msgs or got < n_msgs:
            if sent < n_msgs:
                yield from ep.send_pwc(other, bytes([rank]) * 32,
                                       remote_cid=sent)
                sent += 1
            m = yield from ep.probe_message()
            if m is not None:
                got += 1
        return got

    p0 = cl.env.process(side(0))
    p1 = cl.env.process(side(1))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert p0.value == n_msgs and p1.value == n_msgs
    assert_no_pin_leaks(cl, ph)


def test_torus_all_pairs_traffic():
    """Every ordered pair exchanges a put on a 3x3 torus; all land."""
    cl = build_cluster(9, params="gemini")
    ph = photon_init(cl)
    srcs = [ep.buffer(64) for ep in ph]
    bufs = [ep.buffer(4096) for ep in ph]

    def program(rank):
        ep = ph[rank]
        for dst in range(9):
            if dst == rank:
                continue
            yield from ep.put_pwc(dst, srcs[rank].addr, 16,
                                  bufs[dst].addr + 16 * rank,
                                  bufs[dst].rkey, remote_cid=rank)
        got = 0
        while got < 8:
            c = yield from ep.wait_completion("remote", timeout_ns=TIMEOUT)
            assert c is not None
            got += 1

    for r in range(9):
        cl.ranks[r].memory.write(srcs[r].addr, bytes([r]) * 16)
    procs = [cl.env.process(program(r)) for r in range(9)]
    cl.env.run(until=cl.env.all_of(procs))
    for dst in range(9):
        for src in range(9):
            if src == dst:
                continue
            assert cl.ranks[dst].memory.read(
                bufs[dst].addr + 16 * src, 16) == bytes([src]) * 16
    assert_no_pin_leaks(cl, ph)
