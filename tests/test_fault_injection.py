"""Failure-injection tests: lossy links, QP errors, retry/recovery.

``LinkParams.drop_rate`` has two modes.  In the default ``"reliable"``
mode every dropped chunk is recovered by the link itself (data is
delayed, never lost) — the first half of this file asserts payload
integrity and time cost under that model.  In ``"lossy"`` mode chunks
genuinely vanish and recovery is end-to-end: the NIC's ARQ, the verbs
error states and Photon's reliability layer (deadline + backoff +
idempotent replay + dedup).  The second half drives that whole fault
domain: recovery under real loss, retry exhaustion surfacing as error
completions, QP error/flush/reconnect round trips, exactly-once replay
dedup, the parcel transport's fail-fast to a peer declared dead, and
seeded determinism of the retry schedule.
"""

import pytest

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import PhotonConfig, photon_init
from repro.sim import SimulationError

TIMEOUT = 10 ** 12


def lossy_cluster(n=2, drop=0.05, seed=1):
    return build_cluster(n, params="ib-fdr", seed=seed,
                         link__drop_rate=drop)


def test_pwc_survives_lossy_links():
    cl = lossy_cluster(drop=0.1)
    ph = photon_init(cl)
    src = ph[0].buffer(1 << 16)
    dst = ph[1].buffer(1 << 16)
    payload = bytes((i * 3) & 0xFF for i in range(1 << 16))
    cl[0].memory.write(src.addr, payload)

    def sender(env):
        yield from ph[0].put_pwc(1, src.addr, len(payload), dst.addr,
                                 dst.rkey, remote_cid=1)

    def receiver(env):
        c = yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
        return c

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert p1.value.cid == 1
    assert cl[1].memory.read(dst.addr, len(payload)) == payload
    assert cl.counters.get("link.drops") > 0


def test_loss_costs_time_but_not_data():
    def transfer_time(drop):
        cl = lossy_cluster(drop=drop)
        ph = photon_init(cl)
        src = ph[0].buffer(1 << 18)
        dst = ph[1].buffer(1 << 18)
        done = {}

        def sender(env):
            yield from ph[0].put_pwc(1, src.addr, 1 << 18, dst.addr,
                                     dst.rkey, remote_cid=1)

        def receiver(env):
            yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
            done["t"] = env.now

        p0 = cl.env.process(sender(cl.env))
        p1 = cl.env.process(receiver(cl.env))
        cl.env.run(until=cl.env.all_of([p0, p1]))
        return done["t"]

    clean = transfer_time(0.0)
    lossy = transfer_time(0.15)
    assert lossy > clean * 1.1


def test_mpi_rendezvous_survives_lossy_links():
    cl = lossy_cluster(drop=0.08)
    comms = mpi_init(cl)
    size = 128 * 1024
    s = cl[0].memory.alloc(size)
    r = cl[1].memory.alloc(size)
    cl[0].memory.write(s, bytes(range(256)) * (size // 256))

    def sender(env):
        yield from comms[0].send(s, size, 1, tag=1)

    def receiver(env):
        st = yield from comms[1].recv(r, size, 0, tag=1)
        return st

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert cl[1].memory.read(r, size) == bytes(range(256)) * (size // 256)


def test_lossy_runs_are_deterministic_per_seed():
    def run(seed):
        cl = lossy_cluster(drop=0.1, seed=seed)
        ph = photon_init(cl)
        src = ph[0].buffer(1 << 16)
        dst = ph[1].buffer(1 << 16)
        done = {}

        def sender(env):
            yield from ph[0].put_pwc(1, src.addr, 1 << 16, dst.addr,
                                     dst.rkey, remote_cid=1)

        def receiver(env):
            yield from ph[1].wait_completion("remote", timeout_ns=TIMEOUT)
            done["t"] = env.now

        p0 = cl.env.process(sender(cl.env))
        p1 = cl.env.process(receiver(cl.env))
        cl.env.run(until=cl.env.all_of([p0, p1]))
        return done["t"], cl.counters.get("link.drops")

    assert run(3) == run(3)
    # different seeds see different drop patterns (overwhelmingly likely)
    assert run(3) != run(4)


def test_collectives_survive_loss():
    import numpy as np
    cl = lossy_cluster(n=4, drop=0.05)
    ph = photon_init(cl)
    results = []

    def body(rank):
        out = yield from ph[rank].allreduce(
            np.array([float(rank + 1)]), "sum")
        results.append(float(out[0]))

    procs = [cl.env.process(body(r)) for r in range(4)]
    cl.env.run(until=cl.env.all_of(procs))
    assert results == [10.0] * 4


def test_wait_timeout_fires_when_peer_never_sends():
    cl = build_cluster(2)
    ph = photon_init(cl)

    def prog(env):
        c = yield from ph[0].wait_completion(timeout_ns=1_000_000)
        m = yield from ph[0].wait_message(timeout_ns=1_000_000)
        info = yield from ph[0].wait_recv_info(timeout_ns=1_000_000)
        return c, m, info

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert p.value == (None, None, None)
    assert cl.env.now >= 3_000_000


def test_memory_exhaustion_is_loud():
    from repro.fabric import OutOfMemory
    cl = build_cluster(2, mem_size=1 << 20)
    with pytest.raises(OutOfMemory):
        cl[0].memory.alloc(2 << 20)

# --------------------------------------------------------------------------
# lossy mode: genuine chunk loss, end-to-end recovery
# --------------------------------------------------------------------------

def real_loss_cluster(n=2, drop=1e-3, seed=7, **kw):
    """Lossy fabric with the NIC's own ARQ disabled, so every drop is
    surfaced to the middleware recovery paths under test."""
    return build_cluster(n, params="ib-fdr", seed=seed,
                         link__loss_mode="lossy", link__drop_rate=drop,
                         nic__transport_retries=0, **kw)


def put_stream(cl, ph, n_msgs, size=1 << 16):
    """Run a stop-and-wait put_pwc stream; returns (statuses, remote cids)."""
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)
    payload = bytes(range(256)) * (size // 256)
    cl[0].memory.write(src.addr, payload)
    statuses, got = [], []

    def sender(env):
        for i in range(n_msgs):
            yield from ph[0].put_pwc(1, src.addr, size, dst.addr, dst.rkey,
                                     local_cid=i + 1, remote_cid=i + 1)
            c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
            statuses.append(c.status)
            if not c.ok:
                return

    def receiver(env):
        while True:
            c = yield from ph[1].wait_completion("remote",
                                                 timeout_ns=5 * 10 ** 7)
            if c is None:
                return
            got.append(c.cid)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert cl[1].memory.read(dst.addr, size) == payload
    return statuses, got


def test_put_pwc_recovers_from_real_loss():
    """64KiB puts at 1e-3 chunk loss: every message completes with the
    correct payload, and at least one needed a Photon-level replay."""
    cl = real_loss_cluster(drop=1e-3, seed=7)
    ph = photon_init(cl, PhotonConfig(max_op_retries=5))
    statuses, got = put_stream(cl, ph, 20)
    assert all(bool(s is not None and s.name == "SUCCESS") for s in statuses)
    assert len(statuses) == 20 and got == list(range(1, 21))
    assert cl.counters.get("link.drops") > 0
    assert cl.counters.get("photon.op_retries") > 0
    assert cl.counters.get("photon.op_failures") == 0
    # the sender's scope holds every retry; no reliable op is left
    assert (cl.scope(0).get("photon.op_retries")
            == cl.counters.get("photon.op_retries"))
    assert ph[0].stats()["reliable_ops_inflight"] == 0


def test_retry_exhaustion_surfaces_error_not_hang():
    """Same fabric, zero retry budget: the first lost message completes
    with RETRY_EXC_ERR within the op deadline instead of hanging."""
    from repro.verbs import WCStatus
    cl = real_loss_cluster(drop=1e-3, seed=7)
    ph = photon_init(cl, PhotonConfig(max_op_retries=0))
    size = 1 << 16
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)
    cl[0].memory.write(src.addr, bytes(range(256)) * (size // 256))
    out = {}

    def sender(env):
        for i in range(20):
            t0 = env.now
            yield from ph[0].put_pwc(1, src.addr, size, dst.addr, dst.rkey,
                                     local_cid=i + 1, remote_cid=i + 1)
            c = yield from ph[0].wait_completion("local", timeout_ns=TIMEOUT)
            if not c.ok:
                out["status"] = c.status
                out["elapsed"] = env.now - t0
                return

    def receiver(env):
        while True:
            c = yield from ph[1].wait_completion("remote",
                                                 timeout_ns=5 * 10 ** 7)
            if c is None:
                return

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert out["status"] is WCStatus.RETRY_EXC_ERR
    assert out["elapsed"] <= ph[0].config.op_timeout_ns
    assert cl.counters.get("photon.op_failures") == 1
    assert cl.counters.get("photon.op_retries") == 0


def test_replayed_entries_deduped_exactly_once():
    """Completion-ledger puts under heavy loss: a replay rewrites the ring
    slot its first attempt claimed, so it fills the hole a lost write left
    and cannot deliver an entry twice.  Target-side dedup by op id stays
    as defence in depth (an entry rewritten under the consumer's read
    index is the one way left to see it fire); delivery is exactly-once."""
    cl = real_loss_cluster(drop=0.05, seed=1)
    # use_imm=False routes the completion through a second ledger write,
    # the path where a replay used to duplicate an already-delivered entry
    ph = photon_init(cl, PhotonConfig(max_op_retries=8, use_imm=False))
    n = 40
    statuses, got = put_stream(cl, ph, n, size=8192)
    assert len(statuses) == n and all(s.name == "SUCCESS" for s in statuses)
    assert sorted(got) == list(range(1, n + 1))  # exactly once, all of them
    assert cl.counters.get("photon.op_retries") > 0
    assert cl.counters.get("photon.entry_rewrites") > 0
    assert cl.counters.get("photon.dup_drops") == 0
    # lost ledger writes were repaired in place (ring liveness)
    assert cl.counters.get("photon.entry_drops") == 0


def test_deadline_replay_across_a_partition_leaves_no_ring_hole():
    """On the reliable fabric a partition drops chunks at delivery with no
    error CQE: a lost eager entry is only ever noticed by ``op.deadline``.
    The replay must go back into the slot the entry claimed — a fresh
    claim leaves the lost slot a hole the in-order consumer never passes,
    credit stops, and ``nslots`` sends later the producer waits for ring
    room for good."""
    cfg = PhotonConfig(eager_slots=8, op_timeout_ns=100_000, max_op_retries=8)
    cl = build_cluster(2, params="ib-fdr", seed=3)
    ph = photon_init(cl, cfg)
    env = cl.env
    n_lost, n_after = 3, cfg.eager_slots
    got = []

    def chaos(env):
        yield env.timeout(1_000)
        cl.topology.partition((0,), (1,))
        yield env.timeout(3 * cfg.op_timeout_ns)  # outlasts a whole attempt
        cl.topology.heal()

    def sender(env):
        yield env.timeout(2_000)
        for i in range(n_lost + n_after):
            if i == n_lost:
                # the healed fabric has delivered every replay
                ok = yield from ph[0].wait_op(op, 50 * cfg.op_timeout_ns)
                assert ok
            op = yield from ph[0].send_pwc(1, b"msg-%02d" % i, remote_cid=i)
        ok = yield from ph[0].wait_op(op, 50 * cfg.op_timeout_ns)
        assert ok

    def receiver(env):
        while len(got) < n_lost + n_after:
            m = yield from ph[1].wait_message(
                timeout_ns=100 * cfg.op_timeout_ns)
            if m is None:
                return
            got.append(m[1])

    env.process(chaos(env))
    procs = [env.process(sender(env)), env.process(receiver(env))]
    env.run(until=env.all_of(procs))
    assert got == list(range(n_lost + n_after))  # in order, exactly once
    assert cl.counters.get("photon.op_retries") >= n_lost
    assert cl.counters.get("photon.entry_rewrites") >= n_lost
    assert cl.counters.get("photon.dup_drops") == 0
    assert cl.counters.get("photon.op_failures") == 0


def test_the_targets_dedup_set_drains_after_a_mixed_stream():
    """Only completion entries and eager headers carry an op's dedup id,
    so a producer draws the id when the first such entry is built: an imm
    put, a put without a remote cid and a get leave no gap the target's
    high-water mark never passes, and ``rx_seen`` (the ids delivered above
    the mark) ends empty instead of keeping every later id for good."""
    cl = build_cluster(2, params="ib-fdr", seed=3)
    ph = photon_init(cl)  # use_imm on: a put's remote cid rides the imm
    src, dst = ph[0].buffer(256), ph[1].buffer(256)
    n = 6

    def sender(env):
        for i in range(n):
            for post in (
                    ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                  remote_cid=i),
                    ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey),
                    ph[0].get_pwc(1, src.addr, 64, dst.addr, dst.rkey),
                    ph[0].send_pwc(1, b"m%d" % i, remote_cid=i)):
                op = yield from post
                assert (yield from ph[0].wait_op(op, TIMEOUT))

    def receiver(env):
        for _ in range(n):
            assert (yield from ph[1].wait_message(timeout_ns=TIMEOUT))

    env = cl.env
    env.run(until=env.all_of([env.process(sender(env)),
                              env.process(receiver(env))]))
    channel = ph[1].peers[0].channel
    assert channel.rx_seen == set()
    assert channel.rx_hwm == n  # one id per send, none skipped


def _rendezvous_into_a_partition(lose_fin: bool):
    """Four 16 KiB ``send_rdma``s across a 300 us partition of the
    reliable fabric, which drops writes with no error CQE: either the
    advertisements (info entries) or the receiver's FINs are posted into
    it.  Returns the cluster, the fetched tags and the send requests'
    outcomes."""
    cfg = PhotonConfig(op_timeout_ns=100_000, max_op_retries=8)
    cl = build_cluster(2, params="ib-fdr", seed=3)
    ph = photon_init(cl, cfg)
    env = cl.env
    size, n, window = 16 * 1024, 4, 300_000
    src, land = ph[0].buffer(n * size), ph[1].buffer(n * size)
    payload = bytes(i % 251 for i in range(n * size))
    cl[0].memory.write(src.addr, payload)
    fetched, failed = [], []

    def partition():
        cl.topology.partition((0,), (1,))
        yield env.timeout(window)
        cl.topology.heal()

    post_fin = ph[1]._post_fin

    def fin_into_the_partition(info):
        if info.tag == 0:
            env.process(partition())
        yield from post_fin(info)

    if lose_fin:
        ph[1]._post_fin = fin_into_the_partition
    else:
        env.process(partition())

    def sender(env):
        rids = []
        for i in range(n):
            rids.append((yield from ph[0].send_rdma(
                1, src.addr + i * size, size, tag=i)))
        if (yield from ph[0].wait_all(rids, 10_000_000)):
            failed.extend(ph[0].request_info(r).failed for r in rids)

    def receiver(env):
        for i in range(n):
            info = yield from ph[1].wait_recv_info(src=0, tag=i,
                                                   timeout_ns=10_000_000)
            if info is None:
                return
            yield from ph[1].recv_rdma(info, land.addr + i * size)
            fetched.append(i)

    env.run(until=env.all_of([env.process(sender(env)),
                              env.process(receiver(env))]))
    assert bytes(cl[1].memory.read(land.addr, len(fetched) * size)) == \
        payload[:len(fetched) * size]
    return cl, fetched, failed


def test_advertisements_lost_in_a_partition_are_replayed_into_their_slots():
    """ROADMAP 1d: an info entry is a reliable op, so an advertisement the
    partition lost is noticed by its deadline and rewritten into the slot
    it claimed once the fabric heals; every send is fetched and FINed."""
    cl, fetched, failed = _rendezvous_into_a_partition(lose_fin=False)
    assert fetched == [0, 1, 2, 3]
    assert failed == [False] * 4
    assert cl.counters.get("photon.entry_rewrites") >= 4
    assert cl.env.now < 1_000_000


def test_a_fin_lost_in_a_partition_is_replayed_and_completes_the_send():
    """The FIN is a reliable op too: one posted into a partition is
    rewritten into its slot after the heal, so the sender's request
    completes instead of waiting on a ring hole for good."""
    cl, fetched, failed = _rendezvous_into_a_partition(lose_fin=True)
    assert fetched == [0, 1, 2, 3]
    assert failed == [False] * 4
    assert cl.counters.get("photon.entry_rewrites") >= 1
    assert cl.env.now < 1_000_000


def test_qp_error_flush_reconnect_roundtrip():
    """WR retry exhaustion errors the QP; posts flush; reset_and_reconnect
    re-arms the pair and traffic flows again once the fabric heals."""
    from repro.verbs import (Access, Opcode, QPState, SendWR, WCStatus)
    cl = build_cluster(2, link__loss_mode="lossy", link__drop_rate=1.0,
                       nic__transport_retries=0)
    setups = []
    for r in (0, 1):
        node = cl[r]
        pd = node.context.alloc_pd()
        heap = node.memory.alloc(1 << 16)
        mr = node.context.reg_mr_sync(pd, heap, 1 << 16, Access.ALL)
        cq = node.context.create_cq()
        setups.append((pd, heap, mr, cq))
    qps = [cl[r].context.create_qp(setups[r][0], setups[r][3], setups[r][3])
           for r in (0, 1)]
    qps[0].connect(qps[1])
    (_, heap0, mr0, cq0), (_, heap1, mr1, _) = setups
    cl[0].memory.write(heap0, b"fault-domain-data")

    def drain(n):
        def waiter(env):
            got = []
            while len(got) < n:
                yield cq0.wait_nonempty()
                got.extend(cq0.poll())
            return got
        return cl.env.run(until=cl.env.process(waiter(cl.env)))

    wr = SendWR(opcode=Opcode.RDMA_WRITE, wr_id=1, local_addr=heap0,
                length=17, remote_addr=heap1, rkey=mr1.rkey)
    qps[0].post_send(wr)
    wcs = drain(1)
    assert wcs[0].status is WCStatus.RETRY_EXC_ERR
    assert qps[0].state is QPState.ERROR
    # posting to an errored QP flushes immediately
    qps[0].post_send(SendWR(opcode=Opcode.RDMA_WRITE, wr_id=2,
                            local_addr=heap0, length=17,
                            remote_addr=heap1, rkey=mr1.rkey))
    wcs = drain(1)
    assert wcs[0].status is WCStatus.WR_FLUSH_ERR
    assert cl.counters.get("qp.flushes") >= 1
    # re-arm and heal the fabric: the same WR now goes through
    qps[0].reset_and_reconnect()
    assert qps[0].state is QPState.READY
    assert cl.counters.get("qp.reconnects") == 1
    cl.topology.set_drop_rate(0.0)
    qps[0].post_send(SendWR(opcode=Opcode.RDMA_WRITE, wr_id=3,
                            local_addr=heap0, length=17,
                            remote_addr=heap1, rkey=mr1.rkey))
    wcs = drain(1)
    assert wcs[0].ok
    assert cl[1].memory.read(heap1, 17) == b"fault-domain-data"


def test_a_dead_peer_is_refused_until_it_rejoins():
    """The health monitor is the one source of "peer down".  From the
    moment it declares a crashed rank dead, every parcel to it fails
    fast with nothing posted, for the whole outage: no cooldown of the
    transport's own lets a probe through.  The first send after the rank
    rejoins at a new incarnation goes out at once and arrives."""
    from repro.chaos import (ChaosController, CrashRank, FaultSchedule,
                             RestartRank)
    from repro.runtime.health import build_health
    from repro.runtime.transport import PeerDownError, PhotonTransport
    cl = build_cluster(2, seed=11)
    ph = photon_init(cl)
    mons = build_health(cl)
    tps = [PhotonTransport(ph[r]) for r in range(2)]
    ChaosController(cl, FaultSchedule([CrashRank(500_000, 1),
                                       RestartRank(6_000_000, 1)])).arm()
    out = {"refused": []}

    def prog(env):
        while not mons[0].is_dead(1):
            yield env.timeout(10_000)
        posts = cl.scope(0).get("photon.posts")
        while mons[0].is_dead(1):
            with pytest.raises(PeerDownError):
                yield from tps[0].send(1, b"refused")
            out["refused"].append(env.now)
            yield env.timeout(100_000)
        out["posts"] = cl.scope(0).get("photon.posts") - posts
        t_join = env.now
        yield from tps[0].send(1, b"back")
        for _ in range(100):
            raw = yield from tps[1].poll()
            if raw is not None:
                out["got"] = (raw, env.now - t_join)
                return
            yield from tps[0].poll()
            yield env.timeout(1_000)

    cl.env.run(until=cl.env.process(prog(cl.env)))
    refused = out["refused"]
    # refused from detection to rejoin, well past a 2 ms cooldown
    assert refused[-1] - refused[0] > 4_000_000
    assert cl.counters.get("transport.fast_fails") == len(refused)
    assert out["posts"] == 0
    raw, latency = out["got"]
    assert raw == b"back" and latency < 20_000


def test_same_seed_identical_retry_schedule():
    """The whole fault domain is deterministic: two same-seed runs produce
    identical counter snapshots, two different seeds do not."""
    def run(seed):
        cl = real_loss_cluster(drop=0.02, seed=seed)
        ph = photon_init(cl, PhotonConfig(max_op_retries=8))
        put_stream(cl, ph, 25)
        return cl.counters.snapshot()

    a, b = run(5), run(5)
    assert a == b
    assert a["photon.op_retries"] > 0
    assert run(6) != a


def test_qp_reconnect_under_rapid_flaps():
    """Partition-heal-partition inside one backoff window: a flapping
    link forces repeated QP error/flush/reconnect cycles, and every op
    still lands exactly once.  The src registration is rcache-pinned
    before the first flap and must survive every reconnect (hits, not
    re-registrations)."""
    from repro.chaos import ChaosController, FaultSchedule, FlapLink
    # a hair of built-in loss arms the NIC ARQ machinery so flap drops
    # surface as ack timeouts -> RETRY_EXC_ERR -> QP ERROR -> reconnect
    cl = build_cluster(2, params="ib-fdr", seed=31,
                       link__loss_mode="lossy", link__drop_rate=1e-9,
                       nic__transport_retries=0)
    ph = photon_init(cl, PhotonConfig(use_imm=False, max_op_retries=12,
                                      op_timeout_ns=150_000,
                                      backoff_jitter_ns=60_000))
    size = 4096
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)
    ctrl = ChaosController(cl, FaultSchedule(
        [FlapLink(20_000, "up0", period_ns=120_000, duty=0.5,
                  duration_ns=1_200_000)]))
    ctrl.arm()
    hits_before = cl.scope(0).get("photon.rcache.hits")

    def prog(env):
        for i in range(6):
            payload = bytes([i + 1]) * size
            cl[0].memory.write(src.addr, payload)
            yield from ph[0].put_pwc(1, src.addr, size, dst.addr,
                                     dst.rkey, local_cid=i + 1,
                                     remote_cid=i + 1)
            c = yield from ph[0].wait_completion("local",
                                                 timeout_ns=TIMEOUT)
            assert c is not None and c.ok, f"put {i} lost across flaps"
            assert cl[1].memory.read(dst.addr, size) == payload

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert cl.counters.get("link.chaos_drops") > 0
    assert cl.counters.get("photon.qp_reconnects") >= 1
    assert cl.counters.get("qp.reconnects") >= 1
    # the cached src registration served every put after the first
    assert cl.scope(0).get("photon.rcache.hits") - hits_before >= 5
    cl.env.run(until=2_000_000)
    assert cl.topology.link("up0").chaos is None


# --------------------------------------------------------------------------
# credit writes: one retry path
# --------------------------------------------------------------------------

def _credit_cluster():
    """Lossy mode armed but never dropping, and a NIC that gives up on a
    message after its first attempt: a credit write lost to a fault comes
    back to Photon as a WR error."""
    return build_cluster(2, "ib-fdr", seed=5, link__loss_mode="lossy",
                         link__drop_rate=1e-12, nic__transport_retries=0)


def test_a_lost_credit_write_is_resent_and_the_producer_unblocks():
    """The consumer's uplink is dark for 100 us: every credit write is
    lost and resent (the credit word is absolute), the last resend lands,
    and the producer blocked on a full eager ring goes on."""
    from repro.fabric.link import LinkChaos
    cfg = PhotonConfig(eager_slots=4)
    cl = _credit_cluster()
    ph = photon_init(cl, cfg)
    env, n, got = cl.env, 3 * cfg.eager_slots, []
    uplink = cl.topology.link("up1")
    uplink.arm_chaos(LinkChaos(up=False))

    def heal(env):
        yield env.timeout(100_000)
        uplink.arm_chaos(None)

    def sender(env):
        for i in range(n):
            op = yield from ph[0].send_pwc(1, b"m%02d" % i, remote_cid=i)
        assert (yield from ph[0].wait_op(op, 10_000_000))

    def receiver(env):
        while len(got) < n:
            m = yield from ph[1].wait_message(timeout_ns=10_000_000)
            got.append(m[1])

    env.process(heal(env))
    env.run(until=env.all_of([env.process(sender(env)),
                              env.process(receiver(env))]))
    assert got == list(range(n))
    assert cl.counters.get("photon.eager_stalls") >= 1
    assert cl.counters.get("photon.credit_resends") >= 1
    assert env.now > 100_000              # released by a resend after all


@pytest.mark.parametrize("watched", [True, False])
def test_no_credit_is_resent_to_a_peer_declared_dead(watched, monkeypatch):
    """The producer crashes with its ring full; the consumer then drains
    it and writes credit to the dead NIC, which never acks.  By the time
    that write errors (a 5 ms ack timeout) the health monitor has declared
    the producer dead, and nothing is resent; on ranks with no detector
    the write is resent like any lost one."""
    from repro.runtime.health import build_health
    cfg = PhotonConfig(eager_slots=4)
    monkeypatch.setattr("repro.fabric.nic.ACK_TIMEOUT_NS", 5_000_000)
    cl = _credit_cluster()
    ph = photon_init(cl, cfg)
    mons = build_health(cl) if watched else None
    got = []

    def script(env):
        yield env.timeout(400_000)
        for i in range(cfg.eager_slots):
            yield from ph[0].send_pwc(1, b"m%02d" % i, remote_cid=i)
        yield env.timeout(100_000)
        cl[0].crash()
        while env.now < 12_000_000:    # progress reaps the error CQE
            m = yield from ph[1].wait_message(timeout_ns=100_000)
            if m is not None:
                got.append(m[1])

    cl.env.process(script(cl.env))
    cl.env.run(until=12_000_000)
    assert got == list(range(cfg.eager_slots))
    assert cl.counters.get("photon.credit_writes") == 1
    resends = cl.counters.get("photon.credit_resends")
    if watched:
        assert mons[1].is_dead(0)
        assert resends == 0
    else:
        assert resends >= 1


# --------------------------------------------------------------------------
# error paths a dead wire takes: every drop surfaces, nothing is replayed
# --------------------------------------------------------------------------

def _dead_wire(**photon):
    """A 2-rank lossy fabric that drops every chunk, NIC ARQ off: each
    posted WR ends in an error completion."""
    cl = real_loss_cluster(drop=1.0)
    return cl, photon_init(cl, PhotonConfig(**photon))


def test_failed_one_sided_requests_count_and_release_their_regions():
    from repro.photon.rcache import assert_reg_balance

    cl, ph = _dead_wire()
    local = cl[0].memory.alloc(4096)  # unregistered: acquire must pin it
    dst = ph[1].buffer(4096)
    out = {}

    def prog(env):
        rids = [(yield from ph[0].post_os_put(1, local, 4096, dst.addr,
                                              dst.rkey)),
                (yield from ph[0].post_os_get(1, local, 4096, dst.addr,
                                              dst.rkey))]
        out["settled"] = yield from ph[0].wait_all(rids, timeout_ns=TIMEOUT)
        out["failed"] = [ph[0].request_info(r).failed for r in rids]

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert out["settled"] and out["failed"] == [True, True]
    assert cl.scope(0).get("photon.request_failures") == 2
    assert ph[0].rcache.held_refs == 0
    cl.env.run()
    assert_reg_balance(cl.counters, [cl[r].context for r in range(cl.n)])


def test_a_lost_atomic_surfaces_its_cid_as_an_error():
    from repro.verbs.enums import WCStatus

    cl, ph = _dead_wire()
    word = ph[1].buffer(8)
    out = {}

    def prog(env):
        yield from ph[0].atomic_fadd(1, word.addr, word.rkey, 5, local_cid=42)
        out["c"] = yield from ph[0].wait_completion("local",
                                                    timeout_ns=TIMEOUT)

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert (out["c"].cid, out["c"].status) == (42, WCStatus.RETRY_EXC_ERR)
    assert cl.scope(0).get("photon.atomic_failures") == 1
    with pytest.raises(SimulationError):
        ph[0].atomic_result(42)


def test_an_eager_send_out_of_retries_fails_and_returns_its_slot(
        monkeypatch):
    monkeypatch.setattr("repro.minimpi.protocol.MAX_OP_RETRIES", 2)
    cl = real_loss_cluster(drop=1.0)
    mm = mpi_init(cl)
    ch = mm[0].engine.peers[1]
    slots = len(ch.send_slots)
    src = cl[0].memory.alloc(256)
    out = {}

    def prog(env):
        req = yield from mm[0].isend(src, 256, 1, tag=3)
        out["ok"] = yield from mm[0].engine.wait(req, timeout_ns=TIMEOUT)
        out["failed"] = req.failed

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert out["ok"] and out["failed"]
    assert cl.scope(0).get("mpi.ctrl_resends") == 2
    assert cl.scope(0).get("mpi.ctrl_failures") == 1
    assert cl.scope(0).get("mpi.send_failures") == 1
    assert len(ch.send_slots) == slots


def test_a_lost_entry_resends_its_budget_per_attempt_then_the_op_fails(
        monkeypatch):
    """On a dead wire every write of an eager entry errors: each attempt
    resends it ``ENTRY_RESEND_LIMIT`` times into its slot and then drops
    it, and the op replays until ``max_op_retries`` is spent — each drop
    reaching the op at once, not at the op's deadline."""
    from repro.verbs.enums import WCStatus

    monkeypatch.setattr("repro.photon.base.ENTRY_RESEND_LIMIT", 2)
    cl, ph = _dead_wire(max_op_retries=2)
    out = {}

    def prog(env):
        yield from ph[0].send_pwc(1, b"x" * 32, remote_cid=1, local_cid=9)
        out["c"] = yield from ph[0].wait_completion("local",
                                                    timeout_ns=TIMEOUT)

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert (out["c"].cid, out["c"].status) == (9, WCStatus.RETRY_EXC_ERR)
    assert cl.env.now < ph[0].config.op_timeout_ns
    scope, attempts = cl.scope(0), 3
    assert scope.get("photon.entry_resends") == 2 * attempts
    assert scope.get("photon.entry_drops") == attempts
    assert scope.get("photon.entry_rewrites") == attempts - 1
    assert scope.get("photon.op_retries") == attempts - 1
    assert scope.get("photon.op_failures") == 1


def test_a_failed_rendezvous_read_fails_its_sender(monkeypatch):
    """The receiver reads a 16 KiB rendezvous payload with an rkey the
    sender's NIC refuses: after ``MAX_OP_RETRIES`` refetches its receive
    fails, and the FIN it still sends says so, so the sender's request —
    which keeps no deadline — fails too and releases its pinned buffer."""
    from repro.minimpi.protocol import MAX_OP_RETRIES
    from repro.photon.rcache import assert_reg_balance

    cl = build_cluster(2, "ib-fdr", seed=7)
    mm = mpi_init(cl)
    engine, size = mm[1].engine, 1 << 14
    fetch = engine._fetch_rendezvous

    def refused(posted, msg):
        msg.remote_key ^= 0x5A5A
        return (yield from fetch(posted, msg))

    monkeypatch.setattr(engine, "_fetch_rendezvous", refused)
    src, dst = cl[0].memory.alloc(size), cl[1].memory.alloc(size)
    out = {}

    def sender(env):
        req = yield from mm[0].isend(src, size, 1, tag=3)
        out["sent"] = yield from mm[0].engine.wait(req, timeout_ns=50_000_000)
        out["send_failed"] = req.failed

    def receiver(env):
        req = yield from mm[1].irecv(dst, size, 0, tag=3)
        out["recv"] = yield from engine.wait(req, timeout_ns=50_000_000)
        out["recv_failed"] = req.failed

    cl.env.run(until=cl.env.all_of([cl.env.process(sender(cl.env)),
                                    cl.env.process(receiver(cl.env))]))
    assert out["recv"] and out["recv_failed"]
    assert out["sent"] and out["send_failed"]
    assert cl.scope(1).get("mpi.fetch_retries") == MAX_OP_RETRIES
    assert cl.scope(1).get("mpi.recv_failures") == 1
    assert cl.scope(0).get("mpi.send_failures") == 1
    assert not mm[0].engine.live_requests and not engine.live_requests
    cl.env.run(until=cl.env.now + 1_000_000)  # the async deregistrations
    assert_reg_balance(cl.counters, [cl[r].context for r in range(cl.n)])


def test_a_rendezvous_read_out_of_retries_fails_its_receive():
    """A rendezvous read that always fails (a dead wire, NIC ARQ off) is
    refetched ``MAX_OP_RETRIES`` times; then the receive fails and its
    pinned buffer is released."""
    from repro.minimpi.matching import PostedRecv, UnexpectedMsg
    from repro.minimpi.protocol import MAX_OP_RETRIES, MPIRequest
    from repro.photon.rcache import assert_reg_balance

    cl = real_loss_cluster(drop=1.0)
    mm = mpi_init(cl)
    engine, size = mm[1].engine, 1 << 14
    src, dst = cl[0].memory.alloc(size), cl[1].memory.alloc(size)
    out = {}

    def prog(env):
        # the RTS the sender would have sent, as the receiver matched it
        req = MPIRequest("recv", engine.live_requests)
        msg = UnexpectedMsg(src=0, tag=3, payload=None, remote_addr=src,
                            remote_key=0, size=size, sreq=1)
        yield from engine._fetch_rendezvous(
            PostedRecv(request=req, src=0, tag=3, addr=dst, length=size),
            msg)
        out["ok"] = yield from engine.wait(req, timeout_ns=TIMEOUT)
        out["failed"] = req.failed

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert out["ok"] and out["failed"]
    assert cl.scope(1).get("mpi.fetch_retries") == MAX_OP_RETRIES
    assert cl.scope(1).get("mpi.recv_failures") == 1
    assert not engine.live_requests
    assert_reg_balance(cl.counters, [cl[r].context for r in range(cl.n)])
