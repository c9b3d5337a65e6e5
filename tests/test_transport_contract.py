"""DESIGN §3 seam 9 as one contract test: every parcel transport — both
wires, with and without the coalescing layer — is the same
:class:`~repro.runtime.transport.Transport` to the code above it.

Failure has one source on every one of them: the wire library retries,
the failure detector says who is down, and the transport adds neither a
re-send nor a "down" of its own."""

import inspect
import json

import pytest

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import PhotonConfig, photon_init
from repro.runtime import (ActionRegistry, CoalescingTransport, MpiTransport,
                           PeerDownError, PhotonTransport, Runtime, Transport)
from repro.runtime.transport import WireTransport
from repro.sim import Signal, SimulationError


def _photon(cl, max_parcel):
    ph = photon_init(cl)
    return [PhotonTransport(ph[r], max_parcel=max_parcel)
            for r in range(cl.n)]


def _mpi(cl, max_parcel):
    comms = mpi_init(cl)
    return [MpiTransport(comms[r], max_parcel=max_parcel)
            for r in range(cl.n)]


def _coalescing(wire):
    return lambda cl, max_parcel: [CoalescingTransport(tp)
                                   for tp in wire(cl, max_parcel)]


KINDS = {"photon": _photon, "mpi": _mpi,
         "coalescing(photon)": _coalescing(_photon),
         "coalescing(mpi)": _coalescing(_mpi)}


@pytest.fixture(params=list(KINDS))
def pair(request):
    def make(max_parcel=1 << 16):
        cl = build_cluster(2)
        return cl, KINDS[request.param](cl, max_parcel)
    make.kind = request.param
    return make


class _DeadPeer:
    """A failure detector whose view is ``dead``: rank 1 to start with.
    It has no callbacks: a transport asks it at every send."""

    def __init__(self):
        self.dead = {1}

    def is_dead(self, rank):
        return rank in self.dead


def _run(cl, gen):
    p = cl.env.process(gen)
    cl.env.run(until=p)
    return p.value


def test_members_and_defaults(pair):
    cl, tps = pair(max_parcel=4096)
    tp = tps[0]
    assert isinstance(tp, Transport)
    assert (tp.rank, tp.env, tp.memory) == (0, cl.env, cl.ranks[0].memory)
    assert tp.max_parcel == 4096
    # staging depth is a class constant on every wire (no constructor
    # knob), and no layer keeps a failure policy: the detector is the
    # rank's, and there is none until build_health installs one
    wire = tp.inner if pair.kind.startswith("coalescing") else tp
    assert isinstance(wire, WireTransport)
    assert isinstance(tp, WireTransport) == (wire is tp)
    assert wire.scratch_slots == 8
    assert "scratch_slots" not in inspect.signature(type(wire)).parameters
    assert tp.node is wire.node is cl[0] and cl[0].health is None
    # the counter scope is this rank's: writes mirror into the aggregate
    tp.counters.add("contract.probe")
    assert cl.counters.get("contract.probe") == 1
    assert cl.scope(0).get("contract.probe") == 1
    # what a scheduler parks on: the wire library's own doorbell, and no
    # deadline while nothing is buffered or in flight
    assert isinstance(tp.doorbell, Signal) and tp.doorbell is wire.doorbell
    assert tp.next_deadline() is None
    # what a server loop parks on: the doorbell's receive side (the
    # doorbell itself on a wire that cannot tell the two apart), rung by a
    # parcel queued for this very rank — together with the doorbell
    assert isinstance(tp.arrivals, Signal) and tp.arrivals is wire.arrivals
    reg = ActionRegistry()
    reg.register("noop", lambda rt, src, payload: None)
    before = tp.arrivals.fires, tp.doorbell.fires
    _run(cl, Runtime(0, cl.env, tp, reg).send(0, "noop"))
    assert tp.arrivals.fires > before[0] and tp.doorbell.fires > before[1]

    def idle(env):
        t0 = env.now
        yield from tp.flush()
        yield from tp.flush(1)
        yield from tp.flush_stale()
        assert env.now == t0  # flushing nothing costs nothing
        return (yield from tps[1].poll())

    assert _run(cl, idle(cl.env)) is None


def _send_and_flush(tp, raw):
    yield from tp.send(1, raw)
    yield from tp.flush()  # where a coalescing layer ships


def test_oversize_parcel_rejected(pair):
    cl, tps = pair(max_parcel=1024)
    with pytest.raises(SimulationError, match="exceeds transport max 1024B"):
        _run(cl, _send_and_flush(tps[0], bytes(2048)))
    assert cl.counters.get("nic.tx_msgs") == 0


def test_confirmed_dead_peer_fails_fast(pair):
    cl, tps = pair()
    cl[0].health = _DeadPeer()
    with pytest.raises(PeerDownError) as exc:
        _run(cl, _send_and_flush(tps[0], b"into the void"))
    assert exc.value.peer == 1
    assert cl.counters.get("transport.fast_fails") == 1
    assert cl.counters.get("nic.tx_msgs") == 0  # never touched the wire


def test_stats_share_one_json_shape(pair):
    cl, tps = pair()
    snap = json.loads(json.dumps(tps[0].stats()))
    assert snap["kind"] == pair.kind.split("(")[0]
    if pair.kind.startswith("coalescing"):
        assert snap["inner"]["kind"] == pair.kind[len("coalescing("):-1]


def test_down_is_what_the_detector_says_now(pair):
    """A rank the detector declares dead stays refused for as long as it
    says so — no "down" of the transport's own expires meanwhile — and
    the first send after the detector takes it back (a rejoin at a new
    incarnation) goes out at once, with no cooldown to sit out."""
    cl, tps = pair()
    detector = _DeadPeer()
    cl[0].health = detector

    def prog(env):
        for _ in range(2):
            with pytest.raises(PeerDownError):
                yield from _send_and_flush(tps[0], b"refused")
            yield env.timeout(10_000_000)  # well past any cooldown
        detector.dead.clear()  # rank 1 rejoined
        t0 = env.now
        yield from _send_and_flush(tps[0], b"rejoined")
        assert env.now - t0 < 10_000
        while True:
            raw = yield from tps[1].poll()
            if raw is not None:
                return raw
            yield from tps[0].poll()

    assert _run(cl, prog(cl.env)) == b"rejoined"
    assert cl.counters.get("transport.fast_fails") == 2


def _fabric_that_drops_everything(kind, monkeypatch):
    """Two ranks of ``kind`` wire over a fabric that drops every chunk,
    with every retry of the wire library switched off: the first attempt
    of each send fails, to a peer nobody has declared dead."""
    monkeypatch.setattr("repro.photon.base.ENTRY_RESEND_LIMIT", 0)
    monkeypatch.setattr("repro.minimpi.protocol.MAX_OP_RETRIES", 0)
    cl = build_cluster(2, seed=5, link__loss_mode="lossy",
                       link__drop_rate=1.0, nic__transport_retries=0)
    if kind == "photon":
        ph = photon_init(cl, PhotonConfig(max_op_retries=0,
                                          op_timeout_ns=100_000))
        return cl, [PhotonTransport(p) for p in ph]
    return cl, [MpiTransport(c) for c in mpi_init(cl)]


#: a wire library's count of the sends a transport handed it
_LIBRARY_SENDS = ("photon.pwc_sends", "photon.rendezvous_sends",
                  "mpi.isends")


@pytest.mark.parametrize("size", [64, 64 * 1024],
                         ids=["eager", "rendezvous"])
@pytest.mark.parametrize("kind", ["photon", "mpi"])
def test_a_failed_parcel_is_counted_once_and_never_resent(
        kind, size, monkeypatch):
    """The wire library gave up on a parcel to a live peer.  It is
    counted once — in ``transport.parcel_failures`` where the transport
    staged it, in ``photon.op_failures`` where a Photon eager op carried
    it — and the transport never puts it on the wire again, not while
    the fabric stays dead and not once it heals."""
    cl, tps = _fabric_that_drops_everything(kind, monkeypatch)
    counted = ("photon.op_failures" if (kind, size) == ("photon", 64)
               else "transport.parcel_failures")
    got = []

    def prog(env):
        yield from tps[0].send(1, b"x" * size)
        for _ in range(500):
            yield env.timeout(10_000)
            yield from tps[0].poll()
            if cl.counters.get(counted):
                break
        for heal in (False, True):
            if heal:
                cl.topology.set_drop_rate(0.0)
            for _ in range(50):
                yield env.timeout(10_000)
                yield from tps[0].poll()
                raw = yield from tps[1].poll()
                if raw is not None:
                    got.append(raw)

    _run(cl, prog(cl.env))
    assert cl.counters.get(counted) == 1
    assert cl.counters.get("transport.parcel_failures") == int(
        counted == "transport.parcel_failures")
    # handed to the wire library once, and never delivered
    assert sum(cl.scope(0).get(name) for name in _LIBRARY_SENDS) == 1
    assert got == []
    assert tps[0]._slots_live == 0  # its staging slot is free again
