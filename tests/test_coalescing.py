"""Tests for the parcel-coalescing transport layer."""

from types import SimpleNamespace

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


# ---------------------------------------------------------------------------
# work conservation: a batch waits only while its rank is busy
# ---------------------------------------------------------------------------

@pytest.fixture
def coalescers(monkeypatch):
    """``.built``: every coalescer built during the test; ``.parks``: each
    park on one's doorbell as ``(rank, now, [peers not marked down it holds an
    open batch for])`` — the constructor and ``Signal.wait`` wrapped from
    the test tree (the ``heap_oracle`` mould: no hook in ``src/``)."""
    from repro.sim.resources import Signal

    seen = SimpleNamespace(built=[], parks=[])
    init, wait = CoalescingTransport.__init__, Signal.wait

    def spy_init(tp, *args, **kw):
        init(tp, *args, **kw)
        seen.built.append(tp)

    def spy_wait(bell, until=None):
        for tp in seen.built:
            if tp.doorbell is bell:
                seen.parks.append((tp.rank, bell.env.now, [
                    d for d in tp._open if not tp.peer_is_down(d)]))
        return wait(bell, until)

    monkeypatch.setattr(CoalescingTransport, "__init__", spy_init)
    monkeypatch.setattr(Signal, "wait", spy_wait)
    return seen


@pytest.mark.parametrize("scenario", ["mcts", "flood", "lossy flood"])
def test_no_rank_parks_on_an_open_batch(coalescers, scenario):
    """The invariant the idle flush buys: whenever a rank parks — in
    ``Future.wait``, in a credit stall, as a server between requests —
    its coalescer holds nothing it could have shipped.  Over R23's own
    4-rank MCTS demo and its window-32 floods, clean and 2 % lossy."""
    from repro.bench.experiments import r23_am

    if scenario == "mcts":
        out = r23_am._mcts_demo(6)
        assert out["root_visits"] == out["expected_visits"]
    else:
        out = r23_am._invoke_flood("am/photon+coal", 300,
                                   lossy=scenario != "flood")
        # a busy rank still batches: the flood's batches fill by count,
        # as many of them and as many wire messages as before the idle
        # flush existed
        assert [tp.batches_sent for tp in coalescers.built] == [19, 19]
        assert out["wire"] == 40
    assert len(coalescers.parks) > 10
    assert [p for p in coalescers.parks if p[2]] == []


def _down_peer_pair(requeue):
    """Rank 0's coalescer with two parcels open towards rank 1, which a
    failure detector reports dead (``dead[0]``); ``ships`` logs every
    ``_ship`` call of rank 0's."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    tps = [CoalescingTransport(PhotonTransport(ph[r]), flush_count=100,
                               max_delay_ns=10 ** 9,
                               requeue_on_peer_down=requeue, max_requeues=2)
           for r in range(2)]
    dead = [True]
    tps[0].inner.monitor = SimpleNamespace(is_dead=lambda rank: dead[0])
    ships = []
    ship = tps[0]._ship

    def spy(dst, why):
        ships.append((cl.env.now, why))
        yield from ship(dst, why)

    tps[0]._ship = spy
    return cl, tps, dead, ships


def _idle_polls(tp, n):
    """``n`` polls that find nothing; each must cost what the first does."""
    env = tp.env
    costs = []
    for _ in range(n):
        t0 = env.now
        assert (yield from tp.poll()) is None
        costs.append(env.now - t0)
    return costs


def test_idle_flush_towards_a_down_peer_neither_spins_nor_loses():
    """Requeue mode.  While the breaker is open the idle pass skips the
    peer (no ``_ship`` at all); a ``_ship`` that finds the peer dead under
    a breaker that has cooled down puts the batch back and returns, once
    per pass and ``max_requeues`` times at most — every such pass ends in
    the nanosecond it began — and after ``peer_up`` the next idle pass
    delivers both parcels."""
    cl, tps, dead, ships = _down_peer_pair(requeue=True)
    tp, wire = tps[0], tps[0].inner
    wire.breaker_threshold, wire.breaker_cooldown_ns = 1, 50_000
    got = []

    def sender(env):
        (base,) = yield from _idle_polls(tp, 1)
        yield from tp.send(1, b"one!")
        yield from tp.send(1, b"two!")
        wire._record_failure(1)  # breaker open: skipped, not shipped
        assert (yield from _idle_polls(tp, 3)) == [base] * 3
        assert ships == []
        yield env.timeout(60_000)  # cooled down, the detector still says dead
        assert not tp.peer_is_down(1)
        assert (yield from _idle_polls(tp, 2)) == [base] * 2
        assert [why for _t, why in ships] == ["idle"] * 2
        assert cl.counters.get("coalesce.parcels_requeued") == 4
        dead[0] = False
        wire._on_peer_join(1)
        yield from tp.poll()
        assert not tp._open and tp.parcels_dropped == 0

    def receiver(env):
        while len(got) < 2:
            raw = yield from tps[1].poll()
            if raw is not None:
                got.append(raw)
            else:
                yield env.timeout(500)

    procs = [cl.env.process(sender(cl.env)), cl.env.process(receiver(cl.env))]
    cl.env.run(until=cl.env.all_of(procs))
    assert got == [b"one!", b"two!"]
    assert len(ships) == tp.max_requeues + 1  # two put back, one delivered


@pytest.mark.parametrize("requeue", [False, True])
def test_idle_flush_counts_every_shed_parcel_once(requeue):
    """The peer stays dead.  Shed mode: the first idle pass drops the
    batch and counts its parcels; requeue mode: the pass after the last
    requeue does.  Either way once, without raising into the poll loop,
    and the passes after it find nothing to do."""
    cl, tps, _dead, ships = _down_peer_pair(requeue)
    tp = tps[0]

    def prog(env):
        yield from tp.send(1, b"a" * 16)
        yield from tp.send(1, b"b" * 16)
        yield from _idle_polls(tp, 6)

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert len(ships) == (tp.max_requeues + 1 if requeue else 1)
    assert tp.parcels_dropped == 2 and not tp._open
    assert cl.counters.get("coalesce.parcels_dropped") == 2
    assert cl.counters.get("coalesce.batches_sent") == 0
