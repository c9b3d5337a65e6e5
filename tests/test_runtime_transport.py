"""Focused tests for the runtime transports (edge cases, pipelining).

What every transport must do alike lives in test_transport_contract.py.
"""

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import photon_init
from repro.runtime import ActionRegistry, build_runtime
from repro.runtime.scheduler import HANDLER_COST_NS
from repro.runtime.transport import MpiTransport, PhotonTransport

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
    tps = [MpiTransport(comms[r], max_parcel=4096)
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
    assert times[0] >= HANDLER_COST_NS


# ---------------------------------------------------------------------------
# reliability regressions (the parcel-path bugfix sweep)
# ---------------------------------------------------------------------------

def test_rendezvous_retry_budget_exhaustion_counts_failure(monkeypatch):
    """With the fabric dead for good, Photon's retry budget runs out and
    the loss is visible on the transport.parcel_failures path, once: the
    transport has no budget of its own to spend on top."""
    from repro.photon import PhotonConfig
    monkeypatch.setattr("repro.photon.base.ENTRY_RESEND_LIMIT", 0)
    cl = build_cluster(2, params="ib-fdr", seed=17, link__loss_mode="lossy",
                       link__drop_rate=1.0, nic__transport_retries=0)
    ph = photon_init(cl, PhotonConfig(max_op_retries=0,
                                      op_timeout_ns=100_000))
    tps = [PhotonTransport(ph[r]) for r in range(2)]

    def sender(env):
        yield from tps[0].send(1, b"R" * (64 * 1024))
        for _ in range(100):
            yield env.timeout(20_000)
            yield from tps[0].poll()
            if cl.counters.get("transport.parcel_failures") >= 1:
                break

    cl.env.run(until=cl.env.process(sender(cl.env)))
    assert cl.counters.get("transport.parcel_failures") == 1
    assert cl.counters.get("photon.rendezvous_sends") == 1
    # the slot is free again (no leaked request)
    assert tps[0]._slots_live == 0
    assert all(s is None for s in tps[0]._slot_sends)


def test_mpi_send_reap_pops_live_requests():
    """Regression: done isends the transport reaps opportunistically must
    not linger in the engine's live-request table (a settled request now
    leaves it by itself)."""
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


def test_mpi_failed_sends_are_counted_and_never_refuse_the_next():
    """Regression: MpiTransport.send reaped ``done`` isends without
    looking at ``failed`` — a failed parcel was silently forgotten.

    A wire that drops every chunk (NIC ARQ off) fails every isend to rank
    1 once minimpi's resends are spent; the ranks have no detector.  Each
    failure is counted once, and failures never make the transport refuse
    a send: "down" is the detector's word, and this rank has none.
    """
    cl = build_cluster(2, link__loss_mode="lossy", link__drop_rate=1.0,
                       nic__transport_retries=0)
    tps = [MpiTransport(c, max_parcel=1 << 16) for c in mpi_init(cl)]

    def prog(env):
        for i in range(4):
            # each send goes out after the one before it has failed
            yield from tps[0].send(1, b"lost" * 8)
            for _ in range(1000):
                if cl.counters.get("transport.parcel_failures") > i:
                    break
                yield from tps[0].poll()
                yield env.timeout(10_000)

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert cl.counters.get("transport.parcel_failures") == 4
    assert cl.counters.get("mpi.send_failures") == 4
    assert cl.counters.get("transport.fast_fails") == 0
    # every staging slot is free again and no settled isend lingers
    assert tps[0]._slots_live == 0
    assert all(s is None for s in tps[0]._slot_sends)
    assert not [r for r in tps[0].comm.engine.live_requests.values()
                if r.kind == "send"]
