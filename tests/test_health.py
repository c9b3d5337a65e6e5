"""Heartbeat service and phi-accrual failure detection.

Unit level: detector math (phi growth, EWMA adaptation, reset) and
membership semantics (monotonic versions, sticky DEAD).  End to end: a
powered-off NIC starves real heartbeats until the survivor declares the
peer dead, and the photon / minimpi consumers settle pending work with
a dead-peer status instead of burning their full retry budgets.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosController, CrashRank, FaultSchedule, RestartRank
from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.minimpi.protocol import EAGER_CREDITS, PREPOST
from repro.photon import PhotonConfig, photon_init
from repro.runtime.health import (ALIVE, DEAD, DETECT_BUDGET_NS, SUSPECT,
                                  HealthConfig, MembershipView,
                                  PhiAccrualDetector, build_health)
from repro.runtime.transport import PhotonTransport
from repro.sim.core import SimulationError
from repro.verbs.enums import WCStatus

WAIT = 10 ** 12


# --------------------------------------------------------------------------
# detector + membership units
# --------------------------------------------------------------------------

def test_phi_grows_with_silence_and_resets_on_heartbeat():
    det = PhiAccrualDetector(HealthConfig(), now=0)
    assert det.phi(0) == 0.0
    early, late = det.phi(100_000), det.phi(500_000)
    assert 0.0 < early < late
    det.sample(500_000)
    assert det.phi(500_000) == 0.0


def test_detector_ewma_adapts_to_slow_heartbeats():
    det = PhiAccrualDetector(HealthConfig(), now=0)
    t = 0
    for _ in range(50):
        t += 200_000  # 4x the nominal period, steadily
        det.sample(t)
    # the mean tracked the real cadence, so a 400 us gap is mild suspicion
    assert det.mean_ns > 150_000
    assert det.phi(t + 400_000) < 3.0


def test_membership_versions_monotonic_and_dead_sticky():
    view = MembershipView(3)
    assert view.transition(1, SUSPECT)
    assert view.transition(1, ALIVE)
    assert view.transition(1, DEAD)
    v = view.version
    assert not view.transition(1, DEAD)  # same-state: no version burn
    assert view.version == v
    assert view.transition(1, ALIVE, incarnation=2)
    versions = [h[0] for h in view.history]
    assert versions == sorted(versions) and len(set(versions)) == len(versions)
    assert view.incarnation[1] == 2


def test_health_config_validation():
    with pytest.raises(ValueError):
        HealthConfig(period_ns=0).validate()
    with pytest.raises(ValueError):
        HealthConfig(phi_dead=2.0).validate()


# --------------------------------------------------------------------------
# end to end over the real fabric
# --------------------------------------------------------------------------

def test_crash_detected_and_rejoin_clears_dead():
    cl = build_cluster(2, "ib-fdr", seed=1, spans=True)
    mons = build_health(cl)
    cl.env.run(until=1_000_000)
    assert mons[0].view.status[1] == ALIVE
    assert cl.counters.get("health.heartbeats") > 0

    cl[1].crash()
    t_crash = cl.env.now

    def until_dead(env):
        while not mons[0].is_dead(1):
            yield env.timeout(10_000)
    cl.env.run(until=cl.env.process(until_dead(cl.env)))
    assert cl.env.now - t_crash < 2 * DETECT_BUDGET_NS
    assert cl.counters.get("health.deaths") == 1
    assert cl.metrics.span_durations("health.detect")

    # restart: the new incarnation is the only legal way out of DEAD
    cl.env.run(until=cl.env.process(cl[1].restart()))

    def until_alive(env):
        while mons[0].is_dead(1):
            yield env.timeout(10_000)
    cl.env.run(until=cl.env.process(until_alive(cl.env)))
    assert mons[0].view.incarnation[1] == 2
    assert cl.counters.get("health.joins") == 1
    assert cl.metrics.span_durations("health.outage")


def test_gray_silence_suspects_then_one_heartbeat_recovers():
    cl = build_cluster(2, "ib-fdr", seed=2)
    mons = build_health(cl)
    cl.env.run(until=500_000)
    # silence short of the death threshold: suspect only (the detector
    # alone goes quiet, a gray rank rather than a crash)
    mons[1].halted = True
    cl.env.run(until=cl.env.now + 350_000)
    assert mons[0].view.status[1] == SUSPECT
    assert cl.counters.get("health.suspects") >= 1
    mons[1].halted = False
    cl.env.run(until=cl.env.now + 200_000)
    assert mons[0].view.status[1] == ALIVE
    assert cl.counters.get("health.recoveries") >= 1
    assert cl.counters.get("health.deaths") == 0


def test_photon_pending_op_settles_peer_dead():
    """An op against a crashed peer settles PEER_DEAD at detection time,
    not after the full deadline+retry budget."""
    cl = build_cluster(2, "ib-fdr", seed=3)
    ph = photon_init(cl, PhotonConfig(use_imm=False, max_op_retries=5,
                                      op_timeout_ns=400_000))
    build_health(cl)
    a, b = ph[0].buffer(4096), ph[1].buffer(4096)
    out = {}

    def prog(env):
        yield env.timeout(500_000)  # detectors warmed up
        cl[1].crash()
        t0 = env.now
        yield from ph[0].put_pwc(1, a.addr, 4096, b.addr, b.rkey,
                                 local_cid=1, remote_cid=1)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        out["status"], out["settle"] = c.status, env.now - t0
        # a second op posted after detection fails at post time
        t0 = env.now
        yield from ph[0].put_pwc(1, a.addr, 4096, b.addr, b.rkey,
                                 local_cid=2, remote_cid=2)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        out["status2"], out["settle2"] = c.status, env.now - t0

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert out["status"] is WCStatus.PEER_DEAD
    assert out["settle"] < 2 * DETECT_BUDGET_NS   # ~0.7ms, not ~2.5ms
    assert out["status2"] is WCStatus.PEER_DEAD
    assert out["settle2"] < 100_000
    assert cl.counters.get("photon.dead_peer_fails") >= 2
    assert cl.counters.get("photon.peer_dead_events") == 1


#: rendezvous sends below start here, the detectors warmed up; the
#: receiver crashes 20 us later, before it fetches
T_SEND = 500_000
RNDV = 16 * 1024


def _rndv_pair(restart):
    """Two ranks with failure detectors; rank 1 crashes 20 us after
    ``T_SEND`` and, with ``restart``, comes back 400 us later: suspected
    by then, not yet dead, so rank 0 sees a join and re-arms the pairing
    instead of declaring a death."""
    cl = build_cluster(2, "ib-fdr", seed=3)
    ph = photon_init(cl)
    mons = build_health(cl)
    events = [CrashRank(T_SEND + 20_000, 1)]
    if restart:
        events.append(RestartRank(T_SEND + 420_000, 1))
    ChaosController(cl, FaultSchedule(events)).arm()
    return cl, ph, mons


@pytest.mark.parametrize("restart", [False, True])
def test_rendezvous_send_fails_when_its_peer_dies(restart):
    """A rendezvous send the receiver never fetched fails when rank 0
    declares the receiver dead — or re-arms the pairing for its new
    incarnation — and the source buffer is unpinned.  It used to stay
    PENDING, pinned, until any wait timed out."""
    cl, ph, mons = _rndv_pair(restart)
    src = ph[0].buffer(RNDV)
    out = {}

    def prog(env):
        yield env.timeout(T_SEND)
        rid = yield from ph[0].send_rdma(1, src.addr, RNDV)
        out["settled"] = bool((yield from ph[0].wait(rid, 20_000_000)))
        out["failed"] = ph[0].request_info(rid).failed
        out["held"] = ph[0].rcache.held_refs
        out["t"] = env.now - T_SEND

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert out["settled"] and out["failed"] and out["held"] == 0
    assert mons[0].is_dead(1) is not restart
    assert cl.counters.get("photon.peer_rearms") == int(restart)
    assert out["t"] < 20_000 + 2 * DETECT_BUDGET_NS


def _post_to(ph, kind, dst, local, remote):
    """One request-tracked post of ``kind`` from ``ph`` (generator)."""
    if kind == "send_rdma":
        return (yield from ph.send_rdma(dst, local.addr, RNDV))
    post = ph.post_os_put if kind == "os_put" else ph.post_os_get
    return (yield from post(dst, local.addr, RNDV, remote.addr, remote.rkey))


@pytest.mark.parametrize("kind", ["send_rdma", "os_put", "os_get"])
def test_request_post_to_a_peer_already_dead_fails_at_post_time(kind):
    """Rank 1 dies with nothing outstanding from rank 0, so its QP is
    never torn down.  A request-tracked post to it after the detector
    declared it dead fails at once, as a PWC op does: nothing is posted
    or left pinned.  It used to go onto that QP and stay PENDING."""
    cl, ph, mons = _rndv_pair(restart=False)
    local, remote = ph[0].buffer(RNDV), ph[1].buffer(RNDV)
    out = {}

    def prog(env):
        while not mons[0].is_dead(1):
            yield env.timeout(10_000)
        posts = cl.counters.get("photon.posts")
        fails = cl.counters.get("photon.dead_peer_fails")
        t0 = env.now
        rid = yield from _post_to(ph[0], kind, 1, local, remote)
        out["settled"] = bool((yield from ph[0].wait(rid, 5_000_000)))
        out["t"] = env.now - t0
        out["failed"] = ph[0].request_info(rid).failed
        out["held"] = ph[0].rcache.held_refs
        out["posts"] = cl.counters.get("photon.posts") - posts
        out["fails"] = cl.counters.get("photon.dead_peer_fails") - fails
        ph[0].free_request(rid)

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert out["settled"] and out["failed"] and out["t"] == 0
    assert (out["held"], out["posts"], out["fails"]) == (0, 0, 1)


def test_transport_reuses_the_slot_of_a_send_to_a_dead_peer(monkeypatch):
    """With one staging slot, a rendezvous parcel to a peer that then dies
    must not hold the slot for good: the next parcel's ``send`` waits for
    the first to settle, and returns."""
    monkeypatch.setattr(PhotonTransport, "scratch_slots", 1)
    cl, ph, mons = _rndv_pair(restart=False)
    tp = PhotonTransport(ph[0])
    out = {}

    def prog(env):
        yield env.timeout(T_SEND)
        for i in range(2):
            yield from tp.send(1, bytes([i]) * RNDV)
        out["t"] = env.now - T_SEND

    cl.env.process(prog(cl.env))
    cl.env.run(until=T_SEND + 20_000_000)
    assert out["t"] < 20_000 + 2 * DETECT_BUDGET_NS
    assert cl.counters.get("transport.parcel_failures") == 1


def test_minimpi_requests_fail_with_peer_dead():
    cl = build_cluster(2, "ib-fdr", seed=4)
    mm = mpi_init(cl)
    build_health(cl)
    src = cl[0].memory.alloc(64)
    cl[0].memory.write(src, b"\xaa" * 64)
    out = {}

    def prog(env):
        yield env.timeout(500_000)
        cl[1].crash()
        # pending at crash: settles via the on_dead callback at detection
        req = yield from mm[0].isend(src, 64, 1, tag=0)
        yield from mm[0].engine.wait(req, timeout_ns=WAIT)
        out["err1"], out["done1"] = req.error, req.done
        # posted after detection: fast-fails at post time
        req2 = yield from mm[0].isend(src, 64, 1, tag=1)
        out["err2"], out["done2"] = req2.error, req2.done

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert out["done1"] and out["err1"] == "peer_dead"
    assert out["done2"] and out["err2"] == "peer_dead"
    assert cl.counters.get("mpi.dead_peer_fails") >= 2


# --------------------------------------------------------------------------
# backpressure stalls end when the peer is declared dead
# --------------------------------------------------------------------------

def _run_bounded(cl, gen, limit_ns):
    """Run ``gen`` for at most ``limit_ns`` (the heartbeat loops never let
    the queue drain, so a wedged program would otherwise run forever)."""
    proc = cl.env.process(gen)
    cl.env.run(until=limit_ns)
    assert proc.triggered, "sender still wedged in its backpressure stall"
    return proc.value


def test_photon_sender_stalled_on_a_full_ring_is_released_peer_dead():
    """The eager ring toward a peer that never polls fills up; the sender
    blocks for credit that a dead peer will never return."""
    cl = build_cluster(2, "ib-fdr", seed=6)
    ph = photon_init(cl)
    build_health(cl)
    out = {}

    def crash(env):
        yield env.timeout(600_000)  # detectors warmed up, sender stalled
        out["stalls"] = cl.counters.get("photon.eager_stalls")
        cl[1].crash()
        out["t_crash"] = env.now

    def sender(env):
        yield env.timeout(500_000)
        ops = []
        for i in range(ph[0].config.eager_slots + 1):
            ops.append((yield from ph[0].send_pwc(1, b"x" * 32,
                                                  remote_cid=i)))
        return ops, env.now

    cl.env.process(crash(cl.env))
    ops, t_back = _run_bounded(cl, sender(cl.env), 5_000_000)
    assert out["stalls"] == 1  # the last send found the ring full
    assert t_back - out["t_crash"] < 2 * DETECT_BUDGET_NS
    assert ops[-1].status is WCStatus.PEER_DEAD
    assert cl.counters.get("photon.dead_peer_entry_drops") == 1


def test_minimpi_sender_stalled_on_the_eager_window_is_released_peer_dead():
    """Un-reaped messages exhaust the peer's preposted receives, the next
    ``EAGER_CREDITS`` sends sit un-acked on every bounce slot, and one
    more blocks for a slot."""
    cl = build_cluster(2, "ib-fdr", seed=6)
    mm = mpi_init(cl)
    build_health(cl)
    src = cl[0].memory.alloc(64)
    out = {}

    def crash(env):
        yield env.timeout(700_000)
        out["stalls"] = cl.counters.get("mpi.eager_stalls")
        cl[1].crash()
        out["t_crash"] = env.now

    def sender(env):
        yield env.timeout(500_000)
        reqs = []
        for i in range(PREPOST + EAGER_CREDITS + 1):
            reqs.append((yield from mm[0].isend(src, 8, 1, tag=i)))
        return reqs, env.now

    cl.env.process(crash(cl.env))
    reqs, t_back = _run_bounded(cl, sender(cl.env), 5_000_000)
    assert out["stalls"] >= 1
    assert t_back - out["t_crash"] < 2 * DETECT_BUDGET_NS
    assert reqs[-1].done and reqs[-1].error == "peer_dead"


# --------------------------------------------------------------------------
# the detector is the rank's: build order does not matter
# --------------------------------------------------------------------------

@pytest.mark.parametrize("health_last", [True, False],
                         ids=["detector-built-last", "detector-built-first"])
def test_every_layer_hears_the_verdict_whatever_the_build_order(
        health_last):
    """Photon, an AM runtime and the rank's detector, in either build
    order: in the nanosecond rank 0 declares rank 1 dead, a pending PWC
    op settles ``PEER_DEAD``, a pending invoke's future fails with
    ``PeerDownError``, and the next transport send is refused."""
    from repro.runtime import (ActionRegistry, PeerDownError,
                               build_runtime)
    cl = build_cluster(2, "ib-fdr", seed=3)
    if not health_last:
        mons = build_health(cl)
    ph = photon_init(cl, PhotonConfig(max_op_retries=5,
                                      op_timeout_ns=400_000))
    reg = ActionRegistry()
    reg.register("echo", lambda rt, src, payload: payload)
    rts = build_runtime(cl, reg, "photon", photon=ph, am=True,
                        coalesce=False)
    if health_last:
        mons = build_health(cl)
    a, b = ph[0].buffer(4096), ph[1].buffer(4096)
    seen = {}
    verdict = cl.env.event()

    def at_verdict(peer):
        # subscribed after every layer: they have all run by now
        seen["t"] = cl.env.now
        seen["op"] = seen["pending_op"].status
        seen["fut"] = seen["pending_fut"].ready
        verdict.succeed()

    cl[0].on_peer_dead.append(at_verdict)

    def prog(env):
        yield env.timeout(500_000)  # detectors warmed up
        cl[1].crash()
        seen["pending_op"] = yield from ph[0].put_pwc(
            1, a.addr, 4096, b.addr, b.rkey, local_cid=1, remote_cid=1)
        seen["pending_fut"] = yield from rts[0].invoke(1, "echo", b"x")
        yield verdict
        with pytest.raises(PeerDownError):
            yield from rts[0].transport.send(1, b"refused")
        seen["refused"] = env.now

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert mons[0].is_dead(1)
    assert seen["op"] is WCStatus.PEER_DEAD
    assert seen["fut"]
    with pytest.raises(PeerDownError):
        seen["pending_fut"].get()
    assert seen["refused"] == seen["t"]
    assert seen["t"] - 500_000 < 2 * DETECT_BUDGET_NS


def test_a_rank_has_one_detector():
    cl = build_cluster(2)
    mons = build_health(cl, start=False)
    assert [node.health for node in cl.ranks] == mons
    with pytest.raises(SimulationError, match="already have"):
        build_health(cl, start=False)
