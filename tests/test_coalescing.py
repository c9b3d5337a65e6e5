"""Tests for the parcel-coalescing transport layer."""

import pytest

from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.runtime import (
    ActionRegistry,
    CoalescingTransport,
    PhotonTransport,
    Runtime,
)
from repro.sim import SimulationError

TIMEOUT = 10 ** 12


def make(flush_bytes=4096, flush_count=16, max_delay_ns=5_000):
    cl = build_cluster(2)
    ph = photon_init(cl)
    tps = [CoalescingTransport(PhotonTransport(ph[r]),
                               flush_bytes=flush_bytes,
                               flush_count=flush_count,
                               max_delay_ns=max_delay_ns)
           for r in range(2)]
    return cl, tps


def pump(cl, tps, n, sender_gen):
    got = []

    def receiver(env):
        while len(got) < n:
            raw = yield from tps[1].poll()
            if raw is not None:
                got.append(raw)
            else:
                yield env.timeout(200)

    p0 = cl.env.process(sender_gen(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    return got


def test_batch_flushes_at_count_threshold():
    cl, tps = make(flush_count=4, max_delay_ns=10 ** 9)

    def sender(env):
        for i in range(8):
            yield from tps[0].send(1, bytes([i]) * 16)

    got = pump(cl, tps, 8, sender)
    assert [g[0] for g in got] == list(range(8))
    assert tps[0].batches_sent == 2  # 8 parcels / 4 per batch


def test_batch_flushes_at_byte_threshold():
    cl, tps = make(flush_bytes=256, flush_count=1000, max_delay_ns=10 ** 9)

    def sender(env):
        for i in range(10):
            yield from tps[0].send(1, bytes([i]) * 100)
        yield from tps[0].flush()  # ship the final partial batch

    got = pump(cl, tps, 10, sender)
    assert len(got) == 10
    assert tps[0].batches_sent >= 4  # ~2 x 104B per 256B batch


def test_stale_batch_flushes_on_poll():
    """A partially filled batch ships after max_delay even if the sender
    goes quiet (latency bound)."""
    cl, tps = make(flush_count=100, max_delay_ns=2_000)

    def sender(env):
        yield from tps[0].send(1, b"lonely parcel")
        # sender keeps polling (as a runtime loop would) but sends nothing
        for _ in range(50):
            yield from tps[0].poll()
            yield env.timeout(500)

    got = pump(cl, tps, 1, sender)
    assert got == [b"lonely parcel"]


def test_explicit_flush():
    cl, tps = make(flush_count=100, max_delay_ns=10 ** 9)

    def sender(env):
        yield from tps[0].send(1, b"a")
        yield from tps[0].send(1, b"bb")
        yield from tps[0].flush()

    got = pump(cl, tps, 2, sender)
    assert got == [b"a", b"bb"]
    assert tps[0].batches_sent == 1


def test_oversized_parcel_ships_alone():
    cl, tps = make(flush_bytes=512, flush_count=100, max_delay_ns=10 ** 9)

    def sender(env):
        yield from tps[0].send(1, b"s" * 16)
        yield from tps[0].send(1, b"L" * 2000)  # exceeds flush_bytes
        yield from tps[0].flush()

    got = pump(cl, tps, 2, sender)
    assert sorted(len(g) for g in got) == [16, 2000]


def test_bad_thresholds_rejected():
    cl = build_cluster(2)
    ph = photon_init(cl)
    with pytest.raises(SimulationError):
        CoalescingTransport(PhotonTransport(ph[0]), flush_bytes=1)


def test_runtime_over_coalescing_transport():
    """The Runtime works unchanged over the coalescing layer."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    registry = ActionRegistry()
    seen = []
    registry.register("tick", lambda rt, src, data: seen.append(data[0]))
    rts = [Runtime(r, cl.env,
                   CoalescingTransport(PhotonTransport(ph[r]),
                                       flush_count=8),
                   registry, counters=cl.counters) for r in range(2)]

    def sender(env):
        for i in range(24):
            yield from rts[0].send(1, "tick", bytes([i]))
        yield from rts[0].transport.flush()

    def receiver(env):
        yield from rts[1].process_n(24, timeout_ns=TIMEOUT)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert seen == list(range(24))
    # fewer wire messages than parcels
    assert rts[0].transport.batches_sent < 24


def test_coalescing_improves_small_parcel_rate():
    """The reason the layer exists: higher delivered parcel rate."""

    def flood(coalesce: bool):
        cl = build_cluster(2)
        ph = photon_init(cl)
        tp0 = PhotonTransport(ph[0])
        tp1 = PhotonTransport(ph[1])
        if coalesce:
            tp0 = CoalescingTransport(tp0, flush_count=16)
            tp1 = CoalescingTransport(tp1, flush_count=16)
        n = 300
        out = {}

        def sender(env):
            for i in range(n):
                yield from tp0.send(1, b"x" * 24)
            if coalesce:
                yield from tp0.flush()

        def receiver(env):
            got = 0
            t0 = None
            while got < n:
                raw = yield from tp1.poll()
                if raw is not None:
                    if t0 is None:
                        t0 = env.now
                    got += 1
                else:
                    yield env.timeout(100)
            out["rate"] = (n - 1) / ((env.now - t0) / 1e9)

        p0 = cl.env.process(sender(cl.env))
        p1 = cl.env.process(receiver(cl.env))
        cl.env.run(until=cl.env.all_of([p0, p1]))
        return out["rate"]

    assert flood(True) > 1.5 * flood(False)


# ---------------------------------------------------------------------------
# breaker-trip accounting (regression: batches used to vanish silently)
# ---------------------------------------------------------------------------

def test_batch_shed_on_breaker_trip_is_accounted():
    """Regression: _ship popped the batch before inner.send, so a
    PeerDownError made the whole batch vanish with no accounting.  Shed
    mode (the default) now counts every parcel and re-raises."""
    from repro.runtime import PeerDownError

    cl = build_cluster(2)
    ph = photon_init(cl)
    inner = PhotonTransport(ph[0])
    inner.breaker_threshold, inner.breaker_cooldown_ns = 1, 10 ** 9
    tp = CoalescingTransport(inner, flush_count=4)
    inner._record_failure(1)  # breaker open for the next 1 s
    assert inner.peer_is_down(1)

    def prog(env):
        yield from tp.send(1, b"a" * 16)
        yield from tp.send(1, b"b" * 16)
        yield from tp.send(1, b"c" * 16)
        with pytest.raises(PeerDownError):
            yield from tp.send(1, b"d" * 16)  # 4th parcel trips _ship

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert tp.parcels_dropped == 4
    assert cl.counters.get("coalesce.parcels_dropped") == 4
    assert not tp._open  # nothing silently retained either


def test_batch_requeued_when_peer_recovers():
    """Requeue mode: the tripped batch goes back into the open batch and
    ships once the breaker lets a probe through."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    inner0 = PhotonTransport(ph[0])
    inner0.breaker_threshold, inner0.breaker_cooldown_ns = 1, 200_000
    tp0 = CoalescingTransport(inner0, flush_count=2, max_delay_ns=10 ** 9,
                              requeue_on_peer_down=True, max_requeues=2)
    tp1 = CoalescingTransport(PhotonTransport(ph[1]), flush_count=2)
    inner0._record_failure(1)
    got = []

    def sender(env):
        yield from tp0.send(1, b"one!")
        yield from tp0.send(1, b"two!")  # trips _ship -> requeued, no raise
        assert tp0.parcels_dropped == 0
        assert cl.counters.get("coalesce.parcels_requeued") == 2
        yield env.timeout(300_000)  # breaker cooldown expires
        yield from tp0.flush()

    def receiver(env):
        while len(got) < 2:
            raw = yield from tp1.poll()
            if raw is not None:
                got.append(raw)
            else:
                yield env.timeout(500)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(receiver(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert got == [b"one!", b"two!"]
    assert tp0.parcels_dropped == 0


def test_stale_flush_swallows_peer_down():
    """flush_stale (poll- or scheduler-driven) must never propagate a
    tripped breaker: in shed mode the loss is counted and polling
    continues."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    inner = PhotonTransport(ph[0])
    inner.breaker_threshold, inner.breaker_cooldown_ns = 1, 10 ** 9
    tp = CoalescingTransport(inner, flush_count=100, max_delay_ns=1_000)

    def prog(env):
        yield from tp.send(1, b"doomed")
        inner._record_failure(1)  # peer dies with the batch open
        yield env.timeout(5_000)  # batch is now stale
        raw = yield from tp.poll()  # must not raise
        assert raw is None

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert tp.parcels_dropped == 1
    assert cl.counters.get("coalesce.parcels_dropped") == 1
