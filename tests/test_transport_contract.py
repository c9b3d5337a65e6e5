"""DESIGN §3 seam 9 as one contract test: every parcel transport — both
wires, with and without the coalescing layer — is the same
:class:`~repro.runtime.transport.Transport` to the code above it."""

import inspect
import json

import pytest

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import photon_init
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
    """A failure detector that has already confirmed rank 1 dead."""

    def on_dead(self, cb):
        pass

    def on_join(self, cb):
        pass

    def is_dead(self, rank):
        return rank == 1


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
    # one policy on every wire, as class constants (no constructor knobs);
    # a coalescing layer has no policy of its own
    wire = tp.inner if pair.kind.startswith("coalescing") else tp
    assert isinstance(wire, WireTransport)
    assert isinstance(tp, WireTransport) == (wire is tp)
    assert (wire.max_send_retries, wire.breaker_threshold, wire.scratch_slots,
            wire.breaker_cooldown_ns) == (2, 3, 8, 2_000_000)
    for knob in ("max_send_retries", "breaker_threshold",
                 "breaker_cooldown_ns", "scratch_slots"):
        assert knob not in inspect.signature(type(wire)).parameters
    # the counter scope is this rank's: writes mirror into the aggregate
    tp.counters.add("contract.probe")
    assert cl.counters.get("contract.probe") == 1
    assert cl.scope(0).get("contract.probe") == 1
    # what a scheduler parks on: the wire library's own doorbell, and no
    # deadline while nothing is buffered or in flight
    assert isinstance(tp.doorbell, Signal) and tp.doorbell is wire.doorbell
    assert tp.next_deadline() is None
    # nobody down, nothing logged
    assert tp.peer_is_down(1) is False
    assert list(tp.breaker_log) == []
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
    tps[0].attach_health(_DeadPeer())
    with pytest.raises(PeerDownError) as exc:
        _run(cl, _send_and_flush(tps[0], b"into the void"))
    assert exc.value.peer == 1
    assert cl.counters.get("transport.fast_fails") == 1
    assert cl.counters.get("nic.tx_msgs") == 0  # never touched the wire


def test_stats_share_one_json_shape(pair):
    cl, tps = pair()
    wire = tps[0].inner if pair.kind.startswith("coalescing") else tps[0]
    for _ in range(wire.breaker_threshold):  # the last one opens it
        wire._record_failure(1)
    snap = json.loads(json.dumps(tps[0].stats()))
    assert snap["kind"] == pair.kind.split("(")[0]
    assert snap["peers"] == {"1": {"state": "open", "failures": 3,
                                   "open_until": 2_000_000}}
    assert snap["breaker_transitions"] == [
        {"t": 0, "peer": 1, "from": "closed", "to": "open"}]
    assert tps[0].peer_is_down(1)
    assert list(tps[0].breaker_log) == [(0, 1, "closed", "open")]
    if wire is not tps[0]:  # the breaker is the wire's, seen through the wrapper
        assert snap["inner"]["peers"] == snap["peers"]
        assert tps[0].breaker_log is wire.breaker_log
