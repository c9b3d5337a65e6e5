"""Focused tests for the runtime transports (edge cases, pipelining).

What every transport must do alike lives in test_transport_contract.py.
"""

import pytest

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import photon_init
from repro.runtime import ActionRegistry, build_runtime
from repro.runtime.transport import (MpiTransport, PeerDownError,
                                     PhotonTransport)

TIMEOUT = 100_000_000_000


def photon_pair(max_parcel=1 << 16):
    cl = build_cluster(2)
    ph = photon_init(cl)
    tps = [PhotonTransport(ph[r], max_parcel=max_parcel) for r in range(2)]
    return cl, tps


def mpi_pair(max_parcel=1 << 16):
    cl = build_cluster(2)
    comms = mpi_init(cl)
    tps = [MpiTransport(comms[r], max_parcel=max_parcel) for r in range(2)]
    return cl, tps


def test_photon_large_parcels_pipeline():
    """Back-to-back rendezvous parcels overlap their fetches: total time
    must be well under N x single-parcel time."""
    size = 64 * 1024  # > eager limit

    def run(count):
        cl, tps = photon_pair(max_parcel=1 << 20)
        out = {}

        def sender(env):
            for i in range(count):
                yield from tps[0].send(1, bytes([i]) * size)

        def receiver(env):
            t0 = env.now
            got = 0
            while got < count:
                raw = yield from tps[1].poll()
                if raw is not None:
                    assert raw == bytes([got]) * size
                    got += 1
            out["elapsed"] = env.now - t0

        p0 = cl.env.process(sender(cl.env))
        p1 = cl.env.process(receiver(cl.env))
        cl.env.run(until=cl.env.all_of([p0, p1]))
        return out["elapsed"]

    one = run(1)
    eight = run(8)
    assert eight < 8 * one * 0.75  # pipelining visible


def test_photon_rendezvous_parcels_arrive_in_order():
    size = 32 * 1024
    cl, tps = photon_pair(max_parcel=1 << 20)
    got = []

    def sender(env):
        for i in range(12):
            yield from tps[0].send(1, bytes([i]) * size)

    def receiver(env):
        while len(got) < 12:
            raw = yield from tps[1].poll()
            if raw is not None:
                got.append(raw[0])

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert got == list(range(12))


def test_mixed_eager_and_rendezvous_parcels():
    """Small and large parcels interleave without loss (order across the
    two photon channels is not guaranteed, so check the multiset)."""
    cl, tps = photon_pair(max_parcel=1 << 20)
    sizes = [64, 32 * 1024, 128, 50 * 1024, 256]
    got = []

    def sender(env):
        for i, s in enumerate(sizes):
            yield from tps[0].send(1, bytes([i]) * s)

    def receiver(env):
        while len(got) < len(sizes):
            raw = yield from tps[1].poll()
            if raw is not None:
                got.append((raw[0], len(raw)))

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert sorted(got) == sorted((i, s) for i, s in enumerate(sizes))


def test_mpi_transport_window_replenishes():
    """More parcels than the irecv window still all arrive.

    ISIR delivery order is not guaranteed (wildcard irecvs complete in
    arrival order, but the poll loop reaps them by window slot), matching
    the unordered-parcel semantics of real many-task runtimes — so this
    asserts the delivered *set*, not the order.
    """
    cl = build_cluster(2)
    comms = mpi_init(cl)
    tps = [MpiTransport(comms[r], max_parcel=4096, window=4)
           for r in range(2)]
    n = 30
    got = []

    def sender(env):
        for i in range(n):
            yield from tps[0].send(1, bytes([i]) * 32)

    def receiver(env):
        while len(got) < n:
            raw = yield from tps[1].poll()
            if raw is not None:
                got.append(raw[0])

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert sorted(got) == list(range(n))


def test_runtime_handler_cost_charged():
    cl = build_cluster(2)
    registry = ActionRegistry()
    ph = photon_init(cl)
    rts = build_runtime(cl, registry, "photon", photon=ph)
    registry.register("noop", lambda rt, src, data: None)
    times = []

    def prog(env):
        t0 = env.now
        yield from rts[0].send(0, "noop")
        yield from rts[0].progress()
        times.append(env.now - t0)

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert times[0] >= rts[0].handler_cost_ns


# ---------------------------------------------------------------------------
# reliability regressions (the parcel-path bugfix sweep)
# ---------------------------------------------------------------------------

class _StubHealth:
    """Minimal health monitor: a mutable dead-set, no heartbeats."""

    def __init__(self):
        self.dead = set()

    def on_dead(self, cb):
        pass

    def on_join(self, cb):
        pass

    def is_dead(self, rank):
        return rank in self.dead


def test_rendezvous_parcel_retried_after_failure():
    """Regression: a failed rendezvous send used to be discovered only at
    slot reuse and silently dropped (one counter bump, no resend); large
    parcels now get the same retry budget as eager ones.

    Scenario: the peer is declared dead while the advertisement's ring
    entry is still in flight, so the entry WR is flushed with PEER_DEAD
    and the rendezvous rid settles as failed.  After both sides re-arm
    the pairing (peer rejoin), the transport's retry budget must
    re-issue the parcel end to end.
    """
    cl = build_cluster(2, params="ib-fdr", seed=17)
    ph = photon_init(cl)
    health = _StubHealth()
    ph[0].attach_health(health)
    tps = [PhotonTransport(ph[r]) for r in range(2)]
    tps[0].max_send_retries, tps[0].breaker_threshold = 3, 100
    size = 64 * 1024  # rendezvous-size
    got = []

    def driver(env):
        yield from tps[0].send(1, b"R" * size)
        # peer dies before the advertisement is acknowledged
        health.dead.add(1)
        ph[0].handle_peer_dead(1)
        yield env.timeout(20_000)
        # peer rejoins with a fresh incarnation: both views re-arm
        ph[0].rearm_peer(1)
        ph[1].rearm_peer(0)
        for _ in range(200):
            yield env.timeout(20_000)
            yield from tps[0].poll()
            raw = yield from tps[1].poll()
            if raw is not None:
                got.append(raw)
                break

    cl.env.run(until=cl.env.process(driver(cl.env)))
    assert got == [b"R" * size]
    assert cl.counters.get("transport.parcel_resends") >= 1
    assert cl.counters.get("transport.parcel_failures") == 0


def test_rendezvous_retry_budget_exhaustion_counts_failure():
    """With the fabric dead for good, the retry budget runs out and the
    loss is visible on the transport.parcel_failures path."""
    from repro.photon import PhotonConfig
    cl = build_cluster(2, params="ib-fdr", seed=17, link__loss_mode="lossy",
                       link__drop_rate=1.0, nic__transport_retries=0)
    ph = photon_init(cl, PhotonConfig(max_op_retries=0,
                                      op_timeout_ns=100_000,
                                      entry_resend_limit=0))
    tps = [PhotonTransport(ph[r]) for r in range(2)]
    tps[0].max_send_retries, tps[0].breaker_threshold = 1, 100

    def sender(env):
        yield from tps[0].send(1, b"R" * (64 * 1024))
        for _ in range(100):
            yield env.timeout(20_000)
            yield from tps[0].poll()
            if cl.counters.get("transport.parcel_failures") >= 1:
                break

    cl.env.run(until=cl.env.process(sender(cl.env)))
    assert cl.counters.get("transport.parcel_failures") == 1
    assert cl.counters.get("transport.parcel_resends") == 1
    # the slot is free again (no leaked request)
    assert tps[0]._slots_live == 0
    assert all(s is None for s in tps[0]._slot_sends)


def test_mpi_send_reap_pops_live_requests():
    """Regression: the opportunistic send-side reap dropped done isends
    from the transport's in-flight list without popping them from the
    engine's live-request table (a leak the recv path never had)."""
    cl, tps = mpi_pair()
    n = 60
    done = {}

    def sender(env):
        for i in range(n):
            yield from tps[0].send(1, bytes([i]) * 32)
            # give the isend time to complete so the next send's reap
            # observes it done
            for _ in range(3):
                yield from tps[0].poll()
        done["sent"] = True

    def receiver(env):
        got = 0
        while got < n:
            raw = yield from tps[1].poll()
            if raw is not None:
                got += 1
            else:
                yield env.timeout(200)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert done["sent"]
    stale = [r for r in tps[0].comm.engine.live_requests.values() if r.done]
    # without the reap fix nearly all n done isends linger here
    assert len(stale) < 8


def test_mpi_failed_sends_get_the_shared_retry_and_breaker():
    """Regression: MpiTransport.send reaped ``done`` isends without
    looking at ``failed`` — a failed parcel was silently forgotten, never
    re-sent, never counted, and the MPI arm had no breaker at all.

    The engine's detector fails every isend to rank 1 at post time; the
    transport itself has no monitor, so only the failures feed its
    breaker: 1 send + 2 resends = ``breaker_threshold`` failures.
    """
    cl, tps = mpi_pair()
    health = _StubHealth()
    health.dead.add(1)
    tps[0].comm.engine.attach_health(health)

    def prog(env):
        yield from tps[0].send(1, b"lost" * 8)
        for _ in range(4):
            yield from tps[0].poll()
        assert tps[0].peer_is_down(1)
        with pytest.raises(PeerDownError):
            yield from tps[0].send(1, b"nope")

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert cl.counters.get("transport.parcel_resends") == 2
    assert cl.counters.get("transport.parcel_failures") == 1
    assert cl.counters.get("transport.peer_down") == 1
    assert cl.counters.get("transport.fast_fails") == 1
    assert [(p, old, new) for _t, p, old, new in tps[0].breaker_log] == [
        (1, "closed", "open")]
    # every staging slot is free again and no settled isend lingers
    assert tps[0]._slots_live == 0
    assert all(s is None for s in tps[0]._slot_sends)
    assert not [r for r in tps[0].comm.engine.live_requests.values()
                if r.kind == "send"]


def test_mpi_failed_send_is_reissued_from_its_staging_slot():
    """A parcel whose isend the fabric gave up on is re-sent from its
    still-intact staging slot once the fabric heals — and later sends
    step around the slot instead of overwriting it."""
    from repro.minimpi.status import MPIConfig
    cl = build_cluster(2, seed=5, link__loss_mode="lossy",
                       link__drop_rate=1.0, nic__transport_retries=0)
    comms = mpi_init(cl, MPIConfig(max_op_retries=0))
    tps = [MpiTransport(comms[r], max_parcel=1 << 16) for r in range(2)]
    got = []

    def prog(env):
        yield from tps[0].send(1, b"first!" * 4)
        owner = tps[0]._slot_sends[0]
        yield from comms[0].wait(owner[0])
        assert owner[0].failed
        cl.topology.set_drop_rate(0.0)
        for i in range(8):  # a full lap of the staging ring
            yield from tps[0].send(1, bytes([i]) * 24)
        for _ in range(400):
            yield from tps[0].poll()
            raw = yield from tps[1].poll()
            if raw is not None:
                got.append(bytes(raw))
            if len(got) == 9:
                break

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert sorted(got) == sorted([b"first!" * 4]
                                 + [bytes([i]) * 24 for i in range(8)])
    assert cl.counters.get("transport.parcel_resends") == 1
    assert cl.counters.get("transport.parcel_failures") == 0
