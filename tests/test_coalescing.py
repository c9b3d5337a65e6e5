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
from repro.runtime.coalesce import MAX_DELAY_NS
from repro.sim import SimulationError

TIMEOUT = 10 ** 12


def make(flush_bytes=4096, flush_count=16):
    cl = build_cluster(2)
    ph = photon_init(cl)
    tps = [CoalescingTransport(PhotonTransport(ph[r]),
                               flush_bytes=flush_bytes,
                               flush_count=flush_count)
           for r in range(2)]
    return cl, tps


def sent(cl, rank=0):
    """Batches ``rank``'s coalescer shipped (its scope's counter)."""
    return cl.scope(rank).get("coalesce.batches_sent")


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
    cl, tps = make(flush_count=4)

    def sender(env):
        for i in range(8):
            yield from tps[0].send(1, bytes([i]) * 16)

    got = pump(cl, tps, 8, sender)
    assert [g[0] for g in got] == list(range(8))
    assert sent(cl) == 2  # 8 parcels / 4 per batch


def test_batch_flushes_at_byte_threshold():
    cl, tps = make(flush_bytes=256, flush_count=1000)

    def sender(env):
        for i in range(10):
            yield from tps[0].send(1, bytes([i]) * 100)
        yield from tps[0].flush()  # ship the final partial batch

    got = pump(cl, tps, 10, sender)
    assert len(got) == 10
    assert sent(cl) >= 4  # ~2 x 104B per 256B batch


def test_stale_batch_flushes_on_poll():
    """A partially filled batch ships after max_delay even if the sender
    goes quiet (latency bound)."""
    cl, tps = make(flush_count=100)

    def sender(env):
        yield from tps[0].send(1, b"lonely parcel")
        # sender keeps polling (as a runtime loop would) but sends nothing
        for _ in range(50):
            yield from tps[0].poll()
            yield env.timeout(500)

    got = pump(cl, tps, 1, sender)
    assert got == [b"lonely parcel"]


def test_explicit_flush():
    cl, tps = make(flush_count=100)

    def sender(env):
        yield from tps[0].send(1, b"a")
        yield from tps[0].send(1, b"bb")
        yield from tps[0].flush()

    got = pump(cl, tps, 2, sender)
    assert got == [b"a", b"bb"]
    assert sent(cl) == 1


def test_oversized_parcel_ships_alone():
    cl, tps = make(flush_bytes=512, flush_count=100)

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
                   registry, counters=cl.scope(r)) for r in range(2)]

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
    assert sent(cl) < 24


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
# shedding a batch to a dead peer (regression: batches used to vanish
# silently)
# ---------------------------------------------------------------------------

def _dead_set(tp):
    """Give ``tp``'s rank a failure detector that declares dead whatever
    rank the returned set holds."""
    dead = set()
    tp.node.health = SimpleNamespace(is_dead=dead.__contains__)
    return dead


def test_batch_shed_on_peer_down_is_accounted():
    """Regression: _ship popped the batch before inner.send, so a
    PeerDownError made the whole batch vanish with no accounting.  It
    now counts every parcel and re-raises."""
    from repro.runtime import PeerDownError

    cl = build_cluster(2)
    ph = photon_init(cl)
    tp = CoalescingTransport(PhotonTransport(ph[0]), flush_count=4)
    _dead_set(tp).add(1)

    def prog(env):
        yield from tp.send(1, b"a" * 16)
        yield from tp.send(1, b"b" * 16)
        yield from tp.send(1, b"c" * 16)
        with pytest.raises(PeerDownError):
            yield from tp.send(1, b"d" * 16)  # 4th parcel trips _ship

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert cl.scope(0).get("coalesce.parcels_dropped") == 4
    assert not tp._open  # nothing silently retained either


def test_stale_flush_swallows_peer_down():
    """flush_stale (poll- or scheduler-driven) must never propagate a
    PeerDownError: the loss is counted and polling continues."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    tp = CoalescingTransport(PhotonTransport(ph[0]), flush_count=100)
    dead = _dead_set(tp)

    def prog(env):
        yield from tp.send(1, b"doomed")
        dead.add(1)  # peer declared dead with the batch open
        yield env.timeout(MAX_DELAY_NS)  # batch is now stale
        raw = yield from tp.poll()  # must not raise
        assert raw is None

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert cl.scope(0).get("coalesce.parcels_dropped") == 1


# ---------------------------------------------------------------------------
# work conservation: a batch waits only while its rank is busy
# ---------------------------------------------------------------------------

@pytest.fixture
def coalescers(monkeypatch):
    """``.built``: every coalescer built during the test; ``.parks``: each
    park on one's doorbell as ``(rank, now, [peers it holds an open batch
    for])`` — the constructor and ``Signal.wait`` wrapped from
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
                seen.parks.append((tp.rank, bell.env.now, list(tp._open)))
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
        assert [tp.counters.get("coalesce.batches_sent")
                for tp in coalescers.built] == [19, 19]
        assert out["wire"] == 40
    assert len(coalescers.parks) > 10
    assert [p for p in coalescers.parks if p[2]] == []


def _down_peer_pair():
    """Rank 0's coalescer towards rank 1, which its failure detector
    reports dead.  ``ships`` logs every ``_ship`` call of rank 0's."""
    cl = build_cluster(2)
    ph = photon_init(cl)
    tps = [CoalescingTransport(PhotonTransport(ph[r]), flush_count=100)
           for r in range(2)]
    _dead_set(tps[0]).add(1)
    ships = []
    ship = tps[0]._ship

    def spy(dst, why):
        ships.append((cl.env.now, why))
        yield from ship(dst, why)

    tps[0]._ship = spy
    return cl, tps, ships


def _idle_polls(tp, n):
    """``n`` polls that find nothing; each must cost what the first does."""
    env = tp.env
    costs = []
    for _ in range(n):
        t0 = env.now
        assert (yield from tp.poll()) is None
        costs.append(env.now - t0)
    return costs


def test_idle_flush_counts_every_shed_parcel_once():
    """The peer stays down.  The first idle pass drops the batch and
    counts its parcels, once, without raising into the poll loop, and
    the passes after it find nothing to do."""
    cl, tps, ships = _down_peer_pair()
    tp = tps[0]

    def prog(env):
        yield from tp.send(1, b"a" * 16)
        yield from tp.send(1, b"b" * 16)
        costs = yield from _idle_polls(tp, 6)
        assert len(set(costs[1:])) == 1  # nothing left to ship: no spin

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert len(ships) == 1
    assert not tp._open
    assert cl.scope(0).get("coalesce.parcels_dropped") == 2
    assert cl.counters.get("coalesce.batches_sent") == 0
