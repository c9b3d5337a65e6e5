"""Tests for the active-message invocation layer (repro.runtime.am)."""

import pytest

from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.runtime import (
    ActionRegistry,
    AmConfig,
    AM_REP,
    AM_REQ,
    Parcel,
    PeerDownError,
    RemoteActionError,
    build_health,
    build_runtime,
)
from repro.sim import SimulationError

TIMEOUT = 10 ** 10


def make(n=2, am_config=None, coalesce=False, **coalesce_opts):
    cl = build_cluster(n, params="ib-fdr", seed=9)
    ph = photon_init(cl)
    reg = ActionRegistry()

    def echo(rt, src, payload):
        return payload[::-1]

    def boom(rt, src, payload):
        raise SimulationError("handler exploded")

    reg.register("echo", echo)
    reg.register("boom", boom)
    rts = build_runtime(cl, reg, "photon", photon=ph, am=True,
                        coalesce=coalesce, am_config=am_config,
                        coalesce_opts=coalesce_opts or None)
    return cl, rts


def run_pair(cl, client_gen, server_rt, done):
    def server(env):
        yield from server_rt.process_until(lambda: done(), TIMEOUT)

    p0 = cl.env.process(client_gen(cl.env))
    p1 = cl.env.process(server(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_invoke_round_trip():
    cl, rts = make()
    out = {}

    def client(env):
        fut = yield from rts[0].invoke(1, "echo", b"hello")
        out["val"] = yield from fut.wait(rts[0], TIMEOUT)

    run_pair(cl, client, rts[1], lambda: "val" in out)
    assert out["val"] == b"olleh"
    assert cl.scope(0).get("am.invokes") == 1
    assert cl.scope(0).get("am.replies") == 1
    assert cl.scope(1).get("am.requests_served") == 1
    # per-action latency histogram recorded on the caller
    hist = cl.scope(0).histograms.get("am.echo.latency_ns")
    assert hist is not None and hist.count == 1


def test_invoke_local_short_circuit():
    cl, rts = make()
    out = {}

    def client(env):
        fut = yield from rts[0].invoke(0, "echo", b"local")
        out["val"] = yield from fut.wait(rts[0], TIMEOUT)

    cl.env.run(until=cl.env.process(client(cl.env)))
    assert out["val"] == b"lacol"
    assert cl.counters.get("nic.tx_msgs") == 0  # never touched the wire


def test_remote_handler_error_fails_future():
    cl, rts = make()
    out = {}

    def client(env):
        fut = yield from rts[0].invoke(1, "boom", b"x")
        try:
            yield from fut.wait(rts[0], TIMEOUT)
        except RemoteActionError as exc:
            out["err"] = exc

    run_pair(cl, client, rts[1], lambda: "err" in out)
    assert "handler exploded" in str(out["err"])
    assert out["err"].action == "boom"
    assert cl.scope(1).get("am.handler_errors") == 1
    assert cl.scope(0).get("am.remote_errors") == 1


def test_invoke_requires_am_engine():
    cl = build_cluster(2, params="ib-fdr")
    ph = photon_init(cl)
    reg = ActionRegistry()
    rts = build_runtime(cl, reg, "photon", photon=ph)  # am off

    def client(env):
        with pytest.raises(SimulationError):
            yield from rts[0].invoke(1, "echo", b"x")

    cl.env.run(until=cl.env.process(client(cl.env)))


def test_generator_handler_reply_is_return_value():
    cl, rts = make()
    reg = rts[0].registry

    def slow_double(rt, src, payload):
        yield rt.env.timeout(1_000)
        return payload * 2

    reg.register("slow_double", slow_double)
    out = {}

    def client(env):
        fut = yield from rts[0].invoke(1, "slow_double", b"ab")
        out["val"] = yield from fut.wait(rts[0], TIMEOUT)

    run_pair(cl, client, rts[1], lambda: "val" in out)
    assert out["val"] == b"abab"


# ---------------------------------------------------------------------------
# correlation under retransmit
# ---------------------------------------------------------------------------

def test_duplicate_request_not_rerun_and_reply_correlates():
    """At-least-once delivery, effectively-once execution: a retransmitted
    request is answered from the dedup cache without re-running the
    handler, and the duplicate reply is dropped as stale."""
    cl, rts = make()
    runs = []
    rts[0].registry.register(
        "count", lambda rt, src, p: (runs.append(rt.env.now), b"ok")[1])
    out = {}

    def client(env):
        fut = yield from rts[0].invoke(1, "count", b"x")
        out["val"] = yield from fut.wait(rts[0], TIMEOUT)
        # replay the identical request parcel (same cid) — the wire-level
        # retransmit a lossy fabric would produce
        cid = rts[0].am._next_cid - 1
        dup = Parcel(action=rts[0].registry.id_of("count"), src=0,
                     payload=b"x", cid=cid, flags=AM_REQ)
        yield from rts[0].transport.send(1, dup.encode())
        # pump until the duplicate's reply came back (and was discarded)
        yield from rts[0].process_until(
            lambda: cl.scope(0).get("am.stale_replies") == 1, TIMEOUT)

    run_pair(cl, client, rts[1],
             lambda: cl.scope(1).get("am.duplicate_requests") == 1)
    assert out["val"] == b"ok"
    assert len(runs) == 1  # handler executed exactly once
    assert cl.scope(1).get("am.duplicate_requests") == 1
    assert cl.scope(0).get("am.stale_replies") == 1


def test_interleaved_invocations_correlate_by_cid():
    """Many outstanding invocations to the same destination settle each
    future with its own reply, regardless of completion order."""
    cl, rts = make(am_config=AmConfig(credits_per_dest=16))
    out = {}

    def client(env):
        futs = []
        for i in range(10):
            fut = yield from rts[0].invoke(1, "echo", bytes([i]) * 4)
            futs.append((i, fut))
        vals = []
        for i, fut in futs:
            vals.append((i, (yield from fut.wait(rts[0], TIMEOUT))))
        out["vals"] = vals

    run_pair(cl, client, rts[1], lambda: "vals" in out)
    for i, val in out["vals"]:
        assert val == bytes([i]) * 4


# ---------------------------------------------------------------------------
# credit backpressure
# ---------------------------------------------------------------------------

def test_credit_exhaustion_blocks_until_replies_free_credits():
    cl, rts = make(am_config=AmConfig(credits_per_dest=2))
    out = {}

    def client(env):
        futs = []
        for i in range(8):  # 4x the credit window
            fut = yield from rts[0].invoke(1, "echo", bytes([i]))
            futs.append(fut)
        vals = []
        for fut in futs:
            vals.append((yield from fut.wait(rts[0], TIMEOUT)))
        out["vals"] = vals

    run_pair(cl, client, rts[1], lambda: "vals" in out)
    assert out["vals"] == [bytes([i]) for i in range(8)]
    assert cl.scope(0).get("am.credit_stalls") > 0
    assert rts[0].am._credits[1] == 2  # all returned


def test_no_invoke_outlives_a_dead_destination():
    """Rank 1 crashes with two invocations in flight and a third parked
    for a credit.  When rank 0's detector declares it dead, all three end
    with PeerDownError and the credits come back; a reply that turns up
    later for a failed cid is stale and returns none; once rank 1 rejoins
    an invoke to it completes."""
    from repro.chaos.controller import ChaosController
    from repro.chaos.schedule import CrashRank, FaultSchedule, RestartRank

    cl = build_cluster(2, params="ib-fdr", seed=9)
    ph = photon_init(cl)
    reg = ActionRegistry()
    reg.register("echo", lambda rt, src, payload: payload[::-1])
    rts = build_runtime(cl, reg, "photon", photon=ph, am=True,
                        coalesce=False,
                        am_config=AmConfig(credits_per_dest=2))
    mons = build_health(cl)
    ChaosController(cl, FaultSchedule([CrashRank(5_000, 1),
                                       RestartRank(3_000_000, 1)])).arm()
    out = {}

    def client(env):
        yield env.timeout(10_000)
        futs = []
        for _ in range(2):
            futs.append((yield from rts[0].invoke(1, "echo", b"x")))
        with pytest.raises(PeerDownError):
            yield from rts[0].invoke(1, "echo", b"x")  # parked, then dead
        out["dead_at"] = env.now
        assert mons[0].is_dead(1)
        for fut in futs:
            assert fut.ready
            with pytest.raises(PeerDownError):
                fut.get()
        assert not rts[0].am._pending and rts[0].am._credits[1] == 2
        ok = yield from rts[0].process_until(
            lambda: cl.scope(0).get("am.stale_replies") == 1, TIMEOUT)
        assert ok and rts[0].am._credits[1] == 2
        fut = yield from rts[0].invoke(1, "echo", b"back")
        out["val"] = yield from fut.wait(rts[0], TIMEOUT)

    def reborn(env):
        yield env.timeout(3_000_000)
        yield from rts[1].process_until(lambda: not mons[0].is_dead(1),
                                        TIMEOUT)
        late = Parcel(action=rts[1].registry.id_of("echo"), src=1,
                      payload=b"late", cid=1, flags=AM_REP)
        yield from rts[1].transport.send(0, late.encode())
        yield from rts[1].process_until(lambda: "val" in out, TIMEOUT)

    procs = [cl.env.process(client(cl.env)), cl.env.process(reborn(cl.env))]
    cl.env.run(until=cl.env.all_of(procs))
    assert out["dead_at"] < 3_000_000
    assert out["val"] == b"kcab"
    assert cl.scope(0).get("am.peer_dead_failures") == 2


# ---------------------------------------------------------------------------
# stale-flush timing (scheduler-driven, not only poll-driven)
# ---------------------------------------------------------------------------

def test_scheduler_flushes_stale_batch_while_rank_is_local_busy(
        monkeypatch):
    """A rank grinding through local parcels never reaches transport.poll,
    yet its open invocation batch must still ship at ~MAX_DELAY_NS: the
    scheduler drives flush_stale between local dispatches."""
    monkeypatch.setattr("repro.runtime.coalesce.MAX_DELAY_NS", 2_000)
    served_at = []
    cl, rts = make(coalesce=True, flush_count=1000, flush_bytes=1 << 16)
    rts[0].registry.register(
        "stamp", lambda rt, src, p: (served_at.append(rt.env.now), b"")[1])
    rts[0].registry.register("noop", lambda rt, src, p: None)
    out = {}

    def client(env):
        t0 = env.now
        fut = yield from rts[0].invoke(1, "stamp", b"x")
        # stay local-busy well past the latency bound: every progress
        # pass has local work, so poll() is never reached
        for _ in range(100):
            yield from rts[0].send(0, "noop")
            yield from rts[0].progress()
        out["t0"] = t0
        out["busy_until"] = env.now
        # the server must stay up past this wait: the reply rides rank 1's
        # own coalescing batch and needs rank 1's stale flush to ship
        yield from fut.wait(rts[0], TIMEOUT)
        out["done"] = True

    run_pair(cl, client, rts[1], lambda: out.get("done"))
    busy_span = out["busy_until"] - out["t0"]
    assert busy_span > 12_000  # the local grind really outlived the bound
    # the request left this rank at ~max_delay, not after the grind
    assert served_at[0] - out["t0"] < 8_000


def _lone_invoke_latency(**kw):
    cl, rts = make(**kw)
    rts[0].registry.register("stamp", lambda rt, src, p: b"")
    out = {}

    def client(env):
        t0 = env.now
        fut = yield from rts[0].invoke(1, "stamp", b"x")
        yield from fut.wait(rts[0], TIMEOUT)
        out["lat"] = env.now - t0

    run_pair(cl, client, rts[1], lambda: "lat" in out)
    return out["lat"]


def test_stale_flush_timing_poll_path():
    """Poll-driven ranks ship a lone sub-threshold invocation when they
    go idle — neither at the (never-reached) count threshold nor at the
    latency bound: an unloaded coalesced round trip costs the per-parcel
    one plus the framing, on both legs."""
    coalesced = _lone_invoke_latency(coalesce=True, flush_count=1000,
                                     flush_bytes=1 << 16)
    assert _lone_invoke_latency() < coalesced < 3_200


# ---------------------------------------------------------------------------
# armed-but-idle: AM must not perturb non-AM traffic or golden traces
# ---------------------------------------------------------------------------

def test_armed_idle_am_keeps_plain_parcel_trace_identical():
    """The same plain-parcel workload, with and without an armed AM
    engine (no coalescing): traces must be bit-identical — arming the
    layer costs nothing until it is used."""
    from tests.test_determinism_golden import _trace_fingerprint

    def workload(am: bool):
        cl = build_cluster(2, params="ib-fdr", seed=13, trace=True)
        ph = photon_init(cl)
        reg = ActionRegistry()
        seen = []
        reg.register("tick", lambda rt, src, p: seen.append(p[0]))
        rts = build_runtime(cl, reg, "photon", photon=ph, am=am,
                            coalesce=False)

        def sender(env):
            for i in range(12):
                yield from rts[0].send(1, "tick", bytes([i]))

        def receiver(env):
            yield from rts[1].process_n(12, timeout_ns=TIMEOUT)

        p0 = cl.env.process(sender(cl.env))
        p1 = cl.env.process(receiver(cl.env))
        cl.env.run(until=cl.env.all_of([p0, p1]))
        assert seen == list(range(12))
        return _trace_fingerprint(cl)

    assert workload(am=True) == workload(am=False)


def test_golden_traces_hold_with_am_armed_calendar_and_heap(monkeypatch):
    """KV-guard idiom: with the AM layer imported and armed engines live
    in the process, the golden r1/r4/r17 fingerprints must still match —
    on the production kernel and on the heap oracle."""
    import repro.runtime.am  # noqa: F401 — the layer is present
    from tests import test_determinism_golden as golden
    from tests.heap_oracle import HeapEnvironment

    # an armed engine existing elsewhere in the process must not leak
    cl, rts = make()
    assert rts[0].am is not None

    golden.test_r1_table_matches_golden()
    golden.test_clean_traces_match_golden()

    monkeypatch.setattr("repro.cluster.Environment", HeapEnvironment)
    golden.test_r1_table_matches_golden()
    golden.test_clean_traces_match_golden()


# ---------------------------------------------------------------------------
# extended parcel wire format
# ---------------------------------------------------------------------------

def test_parcel_legacy_encoding_is_byte_identical():
    """Plain parcels must keep the pre-AM 24-byte header verbatim."""
    import struct
    p = Parcel(action=3, src=1, payload=b"abc")
    raw = p.encode()
    assert raw == struct.pack("<qqq", 3, 1, 3) + b"abc"
    assert Parcel.decode(raw) == p


def test_parcel_extended_header_round_trips():
    p = Parcel(action=7, src=2, payload=b"xy", cid=123456789, flags=AM_REQ)
    q = Parcel.decode(p.encode())
    assert q == p
    assert len(p.encode()) == 40 + 2


def test_parcel_decode_rejects_truncation():
    p = Parcel(action=7, src=2, payload=b"xyz", cid=5, flags=AM_REQ)
    with pytest.raises(SimulationError):
        Parcel.decode(p.encode()[:-1])
    with pytest.raises(SimulationError):
        Parcel.decode(b"\x01")


def test_am_config_validation():
    with pytest.raises(SimulationError):
        AmConfig(credits_per_dest=0)


def test_action_handler_rejects_bad_ids():
    """Regression: a corrupt action id must surface as a SimulationError
    like every other malformed-input path, not as a bare IndexError from
    the registry's handler table (nor a negative index wrapping round)."""
    reg = ActionRegistry()
    only = reg.register("only", lambda rt, src, p: None)
    assert reg.handler(only) is not None
    with pytest.raises(SimulationError):
        reg.handler(1)
    with pytest.raises(SimulationError):
        reg.handler(-1)
