"""Heartbeat service and phi-accrual failure detection.

Unit level: detector math (phi growth, EWMA adaptation, reset) and
membership semantics (monotonic versions, sticky DEAD).  End to end: a
powered-off NIC starves real heartbeats until the survivor declares the
peer dead, and the photon / minimpi consumers settle pending work with
a dead-peer status instead of burning their full retry budgets.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import PhotonConfig, photon_init
from repro.runtime.health import (ALIVE, DEAD, SUSPECT, HealthConfig,
                                  MembershipView, PhiAccrualDetector,
                                  build_health)
from repro.verbs.enums import WCStatus

WAIT = 10 ** 12
#: phi-accrual detection budget at default tuning (phi_dead * period * ln 10)
DETECT_BUDGET_NS = int(6.0 * 50_000 * math.log(10.0))


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
        HealthConfig(ewma_alpha=0.0).validate()
    with pytest.raises(ValueError):
        HealthConfig(phi_suspect=6.0, phi_dead=2.0).validate()


# --------------------------------------------------------------------------
# end to end over the real fabric
# --------------------------------------------------------------------------

def test_crash_detected_and_rejoin_clears_dead():
    cl = build_cluster(2, "ib-fdr", seed=1, spans=True)
    mons = build_health(cl)
    cl.env.run(until=1_000_000)
    assert mons[0].view.status[1] == ALIVE
    assert cl.counters.get("health.heartbeats") > 0

    mons[1].halt()
    cl[1].nic.power_off()
    t_crash = cl.env.now

    def until_dead(env):
        while not mons[0].is_dead(1):
            yield env.timeout(10_000)
    cl.env.run(until=cl.env.process(until_dead(cl.env)))
    assert cl.env.now - t_crash < 2 * DETECT_BUDGET_NS
    assert cl.counters.get("health.deaths") == 1
    assert cl.metrics.span_durations("health.detect")

    # restart: the new incarnation is the only legal way out of DEAD
    cl[1].nic.power_on()
    mons[1].resume()

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
    # silence short of the death threshold: suspect only
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
                                      op_timeout_ns=400_000,
                                      backoff_base_ns=20_000))
    mons = build_health(cl)
    for r in range(2):
        ph[r].attach_health(mons[r])
    a, b = ph[0].buffer(4096), ph[1].buffer(4096)
    out = {}

    def prog(env):
        yield env.timeout(500_000)  # detectors warmed up
        mons[1].halt()
        ph[1].crash_local()
        cl[1].nic.power_off()
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


def test_minimpi_requests_fail_with_peer_dead():
    cl = build_cluster(2, "ib-fdr", seed=4)
    mm = mpi_init(cl)
    mons = build_health(cl)
    for r in range(2):
        mm[r].engine.attach_health(mons[r])
    src = cl[0].memory.alloc(64)
    cl[0].memory.write(src, b"\xaa" * 64)
    out = {}

    def prog(env):
        yield env.timeout(500_000)
        mons[1].halt()
        cl[1].nic.power_off()
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
    mons = build_health(cl)
    for r in range(2):
        ph[r].attach_health(mons[r])
    out = {}

    def crash(env):
        yield env.timeout(600_000)  # detectors warmed up, sender stalled
        out["stalls"] = cl.counters.get("photon.eager_stalls")
        mons[1].halt()
        ph[1].crash_local()
        cl[1].nic.power_off()
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
    ``eager_credits`` sends sit un-acked on every bounce slot, and one
    more blocks for a slot."""
    cl = build_cluster(2, "ib-fdr", seed=6)
    mm = mpi_init(cl)
    mons = build_health(cl)
    for r in range(2):
        mm[r].engine.attach_health(mons[r])
    cfg = mm[0].engine.config
    src = cl[0].memory.alloc(64)
    out = {}

    def crash(env):
        yield env.timeout(700_000)
        out["stalls"] = cl.counters.get("mpi.eager_stalls")
        mons[1].halt()
        cl[1].nic.power_off()
        out["t_crash"] = env.now

    def sender(env):
        yield env.timeout(500_000)
        reqs = []
        for i in range(cfg.prepost + cfg.eager_credits + 1):
            reqs.append((yield from mm[0].isend(src, 8, 1, tag=i)))
        return reqs, env.now

    cl.env.process(crash(cl.env))
    reqs, t_back = _run_bounded(cl, sender(cl.env), 5_000_000)
    assert out["stalls"] >= 1
    assert t_back - out["t_crash"] < 2 * DETECT_BUDGET_NS
    assert reqs[-1].done and reqs[-1].error == "peer_dead"
