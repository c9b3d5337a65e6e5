"""Integration tests for Photon PWC operations (2+ ranks, full stack)."""

import pytest

from repro.cluster import build_cluster
from repro.photon import PhotonConfig, photon_init
from repro.sim import SimulationError

TIMEOUT = 50_000_000  # 50 ms of simulated time: generous deadlock guard


def setup(n=2, config=None, **kw):
    cl = build_cluster(n, **kw)
    ph = photon_init(cl, config)
    return cl, ph


def run_all(cl, procs):
    return cl.env.run(until=cl.env.all_of(procs))


def test_put_pwc_delivers_data_and_both_completions():
    cl, ph = setup()
    src = ph[0].buffer(4096)
    dst = ph[1].buffer(4096)
    payload = b"0123456789abcdef" * 16  # 256B
    cl[0].memory.write(src.addr, payload)

    def sender(env):
        yield from ph[0].put_pwc(1, src.addr, len(payload), dst.addr,
                                 dst.rkey, local_cid=101, remote_cid=202)
        c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        return c

    def receiver(env):
        c = yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
        return c

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p0.value.kind == "local" and p0.value.cid == 101
    assert p1.value.kind == "remote" and p1.value.cid == 202
    assert p1.value.src == 0
    assert cl[1].memory.read(dst.addr, len(payload)) == payload


def test_remote_completion_implies_data_visible():
    """The paper's key ordering guarantee: when the target sees the remote
    cid, the payload is already in place."""
    cl, ph = setup()
    src = ph[0].buffer(65536)
    dst = ph[1].buffer(65536)
    size = 60000  # multi-chunk
    cl[0].memory.write(src.addr, bytes([7]) * size)

    def sender(env):
        yield from ph[0].put_pwc(1, src.addr, size, dst.addr, dst.rkey,
                                 remote_cid=1)

    def receiver(env):
        c = yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
        # check data at the *instant* the completion surfaced
        data = cl[1].memory.read(dst.addr, size)
        return c, data

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    c, data = p1.value
    assert c.cid == 1
    assert data == bytes([7]) * size


def test_put_without_remote_cid_is_pure_one_sided():
    """Target does nothing at all; data still lands."""
    cl, ph = setup()
    src = ph[0].buffer(128)
    dst = ph[1].buffer(128)
    cl[0].memory.write(src.addr, b"Z" * 128)

    def sender(env):
        yield from ph[0].put_pwc(1, src.addr, 128, dst.addr, dst.rkey,
                                 local_cid=5)
        c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        return c

    p0 = cl.env.process(sender(cl.env))
    run_all(cl, [p0])
    assert p0.value.cid == 5
    assert cl[1].memory.read(dst.addr, 128) == b"Z" * 128
    assert len(ph[1].remote_cids) == 0


def test_zero_byte_put_signals_remote():
    cl, ph = setup()
    dst = ph[1].buffer(64)

    def sender(env):
        yield from ph[0].put_pwc(1, 0, 0, dst.addr, dst.rkey,
                                 local_cid=9, remote_cid=10)
        c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        return c

    def receiver(env):
        c = yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
        return c

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p0.value.cid == 9
    assert p1.value.cid == 10


def test_get_pwc_fetches_and_notifies_target():
    cl, ph = setup()
    local = ph[0].buffer(4096)
    remote = ph[1].buffer(4096)
    cl[1].memory.write(remote.addr, b"remote payload--" * 8)

    def getter(env):
        yield from ph[0].get_pwc(1, local.addr, 128, remote.addr,
                                 remote.rkey, local_cid=31, remote_cid=32)
        c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        return c

    def target(env):
        c = yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
        return c

    p0 = cl.env.process(getter(cl.env))
    p1 = cl.env.process(target(cl.env))
    run_all(cl, [p0, p1])
    assert p0.value.cid == 31
    assert p1.value.cid == 32
    assert cl[0].memory.read(local.addr, 128) == b"remote payload--" * 8


def test_send_pwc_eager_message():
    cl, ph = setup()
    payload = b"parcel bytes" * 100  # 1200B, eager

    def sender(env):
        yield from ph[0].send_pwc(1, payload, remote_cid=77, local_cid=78)
        c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        return c

    def receiver(env):
        m = yield from ph[1].wait_message(timeout_ns=TIMEOUT)
        return m

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    src, cid, data = p1.value
    assert (src, cid) == (0, 77)
    assert data == payload
    assert p0.value.cid == 78


def test_send_pwc_beyond_eager_limit_rejected():
    cl, ph = setup()
    with pytest.raises(SimulationError, match="eager limit"):
        list(ph[0].send_pwc(1, bytes(ph[0].config.eager_limit + 1),
                            remote_cid=1))


def test_eager_ring_backpressure_does_not_lose_messages():
    """Flood more messages than the ring has slots; all arrive in order."""
    cfg = PhotonConfig(eager_slots=4, completion_entries=8)
    cl, ph = setup(config=cfg)
    n_msgs = 40

    def sender(env):
        for i in range(n_msgs):
            yield from ph[0].send_pwc(1, bytes([i]) * 32, remote_cid=i)

    def receiver(env):
        got = []
        while len(got) < n_msgs:
            m = yield from ph[1].wait_message(timeout_ns=TIMEOUT)
            assert m is not None, f"lost message after {len(got)}"
            got.append(m)
        return got

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    cids = [cid for _, cid, _ in p1.value]
    assert cids == list(range(n_msgs))
    for _, cid, data in p1.value:
        assert data == bytes([cid]) * 32
    assert cl.counters.get("photon.credit_writes") > 0


def test_completion_ring_backpressure():
    cfg = PhotonConfig(completion_entries=4)
    cl, ph = setup(config=cfg)
    dst = ph[1].buffer(8192)
    src = ph[0].buffer(8192)
    n_ops = 30

    def sender(env):
        for i in range(n_ops):
            yield from ph[0].put_pwc(1, src.addr, 8, dst.addr, dst.rkey,
                                     remote_cid=1000 + i)

    def receiver(env):
        got = []
        while len(got) < n_ops:
            c = yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
            assert c is not None
            got.append(c.cid)
        return got

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value == [1000 + i for i in range(n_ops)]


def test_probe_completion_returns_none_when_idle():
    cl, ph = setup()

    def prog(env):
        c = yield from ph[0].probe_completion()
        return c

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    assert p.value is None


def test_wait_completion_timeout_returns_none():
    cl, ph = setup()

    def prog(env):
        c = yield from ph[0].wait_completion(timeout_ns=100_000)
        return (c, env.now)

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    c, t = p.value
    assert c is None
    assert t >= 100_000


def test_self_put_and_send():
    cl, ph = setup()
    a = ph[0].buffer(256)
    b = ph[0].buffer(256)
    cl[0].memory.write(a.addr, b"self-transfer...")

    def prog(env):
        yield from ph[0].put_pwc(0, a.addr, 16, b.addr, b.rkey,
                                 local_cid=1, remote_cid=2)
        yield from ph[0].send_pwc(0, b"loop msg", remote_cid=3)
        c1 = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        c2 = yield from ph[0].wait_completion("remote", timeout_ns=TIMEOUT)
        m = yield from ph[0].wait_message(timeout_ns=TIMEOUT)
        return c1, c2, m

    p = cl.env.process(prog(cl.env))
    run_all(cl, [p])
    c1, c2, m = p.value
    assert c1.cid == 1 and c2.cid == 2
    assert m == (0, 3, b"loop msg")
    assert cl[0].memory.read(b.addr, 16) == b"self-transfer..."


def test_imm_mode_delivers_remote_completions():
    cfg = PhotonConfig(use_imm=True)
    cl, ph = setup(config=cfg)
    src = ph[0].buffer(4096)
    dst = ph[1].buffer(4096)
    cl[0].memory.write(src.addr, b"imm mode" * 8)

    def sender(env):
        yield from ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                 local_cid=7, remote_cid=8)
        c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
        return c

    def receiver(env):
        c = yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
        return c

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p0.value.cid == 7
    assert p1.value.cid == 8
    assert cl[1].memory.read(dst.addr, 64) == b"imm mode" * 8


def test_imm_mode_slow_poller_backpressures_senders():
    """The prepost window counts posted receives *plus* unreaped receive
    CQEs, so a target that polls rarely RNR-stalls its senders instead
    of letting its receive CQ grow (a refill by bare RQ depth overran the
    CQ after ~4000 immediates)."""
    cfg = PhotonConfig(use_imm=True)
    cl, ph = setup(config=cfg)
    src, dst = ph[0].buffer(64), ph[1].buffer(64)
    n = 600

    def sender(env):
        for i in range(n):
            yield from ph[0].put_pwc(1, src.addr, 8, dst.addr, dst.rkey,
                                     remote_cid=i)

    def reap_sender(env):
        while True:
            yield from ph[0]._progress_once()

    def slow_poller(env):
        peer = ph[1].peers[0]
        while len(ph[1].remote_cids) < n:
            yield env.timeout(30_000)
            yield from ph[1]._progress_once()
            assert (peer.qp.rq_posted + len(ph[1].recv_cq)
                    == peer.preposted <= cfg.imm_prepost)

    cl.env.process(sender(cl.env))
    cl.env.process(reap_sender(cl.env))
    cl.env.run(until=cl.env.process(slow_poller(cl.env)))
    assert [cid for cid, _ in ph[1].remote_cids] == list(range(n))
    assert cl.counters.get("verbs.rnr_stalls") > 0


def test_imm_mode_rejects_wide_cids():
    cfg = PhotonConfig(use_imm=True)
    cl, ph = setup(config=cfg)
    dst = ph[1].buffer(64)
    with pytest.raises(SimulationError, match="32 bits"):
        list(ph[0].put_pwc(1, 0, 0, dst.addr, dst.rkey, remote_cid=1 << 40))


def test_pwc_on_gemini_torus():
    """Full PWC path also works on the uGNI-flavoured torus fabric."""
    cl, ph = setup(n=4, params="gemini")
    src = ph[0].buffer(1024)
    dst = ph[3].buffer(1024)
    cl[0].memory.write(src.addr, b"torus" * 20)

    def sender(env):
        yield from ph[0].put_pwc(3, src.addr, 100, dst.addr, dst.rkey,
                                 remote_cid=5)

    def receiver(env):
        c = yield from ph[3].wait_completion("remote", timeout_ns=TIMEOUT)
        return c

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    run_all(cl, [p0, p1])
    assert p1.value.cid == 5
    assert cl[3].memory.read(dst.addr, 100) == b"torus" * 20


def test_many_concurrent_peers():
    """All-to-one puts from 3 senders complete with distinct cids."""
    cl, ph = setup(n=4)
    dst = ph[0].buffer(4096)
    srcs = [ph[r].buffer(64) for r in range(4)]

    def sender(env, r):
        cl[r].memory.write(srcs[r].addr, bytes([r]) * 64)
        yield from ph[r].put_pwc(0, srcs[r].addr, 64,
                                 dst.addr + r * 64, dst.rkey,
                                 remote_cid=100 + r)

    def receiver(env):
        got = set()
        while len(got) < 3:
            c = yield from ph[0].wait_completion("remote", timeout_ns=TIMEOUT)
            assert c is not None
            got.add((c.cid, c.src))
        return got

    procs = [cl.env.process(sender(cl.env, r)) for r in (1, 2, 3)]
    procs.append(cl.env.process(receiver(cl.env)))
    run_all(cl, procs)
    assert procs[-1].value == {(101, 1), (102, 2), (103, 3)}
    for r in (1, 2, 3):
        assert cl[0].memory.read(dst.addr + r * 64, 64) == bytes([r]) * 64
