"""Chaos orchestration: schedules, controller, invariants, determinism.

The headline property is at the top: a chaos controller armed with an
*empty* schedule reproduces the golden trace hashes bit for bit, on the
clean and the lossy fabric — chaos is pay-for-what-you-schedule.
"""

from __future__ import annotations

import types

import pytest

from repro.bench.experiments import r19_chaos
from repro.chaos import (ChaosController, CrashRank, FaultSchedule,
                         FlapLink, GrayLink, HealEvent, InvariantViolation,
                         PartitionEvent, RestartRank, check_all,
                         check_breaker_legality, check_membership_monotonic,
                         check_no_duplicate_delivery)
from repro.cluster import build_cluster
from repro.photon import PhotonConfig, photon_init
from repro.runtime.health import DEAD, ALIVE, MembershipView
from repro.sim.rng import RngRegistry
from repro.verbs.enums import WCStatus

from tests.test_determinism_golden import (GOLDEN, _photon_clean_workload,
                                           _photon_lossy_workload,
                                           _trace_fingerprint)

WAIT = 10 ** 12


def _arm_idle(cl):
    ChaosController(cl, FaultSchedule([])).arm()


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------

def test_armed_idle_schedule_keeps_golden_traces_bit_identical():
    """Armed-but-empty chaos: the exact golden hashes, clean and lossy."""
    assert _trace_fingerprint(_photon_clean_workload(chaos_hook=_arm_idle)) \
        == GOLDEN["photon_clean_trace"]
    assert _trace_fingerprint(_photon_lossy_workload(chaos_hook=_arm_idle)) \
        == GOLDEN["photon_lossy_trace"]


def test_chaos_rng_streams_are_independent():
    """Materialising and consuming chaos streams never shifts the draws
    any other named stream produces (satellite: per-mode streams)."""
    def link_draws(touch_chaos: bool):
        rng = RngRegistry(123)
        if touch_chaos:
            ns = rng.namespace("chaos")
            ns.stream("jitter.up0").integers(0, 1000, size=64)
            ns.stream("flap.up0").integers(0, 1000, size=64)
        s = rng.stream("link.up0")
        return [int(s.integers(0, 1 << 30)) for _ in range(16)]

    assert link_draws(False) == link_draws(True)

    rng = RngRegistry(123)
    ns = rng.namespace("chaos")
    jit = [int(ns.stream("jitter.up0").integers(0, 1 << 30))
           for _ in range(8)]
    flap = [int(ns.stream("flap.up0").integers(0, 1 << 30))
            for _ in range(8)]
    assert jit != flap  # distinct modes, distinct streams

    # a namespace is pure name prefixing — same seed, same stream
    rng2 = RngRegistry(123)
    assert jit == [int(rng2.stream("chaos.jitter.up0").integers(0, 1 << 30))
                   for _ in range(8)]


def test_gray_jitter_is_deterministic_per_seed():
    def fingerprint():
        cl = build_cluster(2, "ib-fdr", seed=21, trace=True)
        ph = photon_init(cl)
        ctrl = ChaosController(cl, FaultSchedule(
            [GrayLink(0, "up0", jitter_ns=5_000)]))
        ctrl.arm()
        a, b = ph[0].buffer(4096), ph[1].buffer(4096)

        def prog(env):
            for i in range(4):
                yield from ph[0].put_pwc(1, a.addr, 4096, b.addr, b.rkey,
                                         local_cid=i + 1, remote_cid=i + 1)
                c = yield from ph[0].wait_completion("local",
                                                     timeout_ns=WAIT)
                assert c is not None and c.ok
        cl.env.run(until=cl.env.process(prog(cl.env)))
        return _trace_fingerprint(cl)

    assert fingerprint() == fingerprint()


# --------------------------------------------------------------------------
# schedules
# --------------------------------------------------------------------------

def test_schedule_orders_and_validates():
    s = FaultSchedule([RestartRank(5_000, 0), CrashRank(2_000, 0)])
    assert [e.t_ns for e in s.events] == [2_000, 5_000]
    assert not s.empty and s.horizon_ns() == 5_000
    assert FaultSchedule([]).empty
    with pytest.raises(ValueError):
        FaultSchedule([GrayLink(0, "up0", bw_scale=0.0)])
    with pytest.raises(ValueError):
        FaultSchedule([FlapLink(0, "up0", period_ns=0)])
    with pytest.raises(ValueError):
        FaultSchedule([FlapLink(0, "up0", period_ns=100, duty=1.0)])
    with pytest.raises(ValueError):
        FaultSchedule([CrashRank(-1, 0)])


# --------------------------------------------------------------------------
# partitions and gray links
# --------------------------------------------------------------------------

def test_partition_blocks_traffic_and_heal_restores():
    cl = build_cluster(2, "ib-fdr", seed=9)
    ph = photon_init(cl, PhotonConfig(use_imm=False, max_op_retries=1,
                                      op_timeout_ns=100_000,
                                      backoff_base_ns=10_000))
    a, b = ph[0].buffer(4096), ph[1].buffer(4096)
    cl[0].memory.write(a.addr, b"\x42" * 4096)
    ctrl = ChaosController(cl, FaultSchedule(
        [PartitionEvent(0, (0,), (1,)), HealEvent(1_000_000)]))
    ctrl.arm()
    out = {}

    def prog(env):
        yield from ph[0].put_pwc(1, a.addr, 4096, b.addr, b.rkey,
                                 local_cid=1, remote_cid=1)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        out["cut_status"] = c.status
        out["cut_reachable"] = cl.topology.reachable(0, 1)
        if env.now < 1_100_000:
            yield env.timeout(1_100_000 - env.now)
        out["heal_reachable"] = cl.topology.reachable(0, 1)
        yield from ph[0].put_pwc(1, a.addr, 4096, b.addr, b.rkey,
                                 local_cid=2, remote_cid=2)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        out["heal_status"] = c.status

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert out["cut_status"] is WCStatus.RETRY_EXC_ERR
    assert not out["cut_reachable"] and out["heal_reachable"]
    assert out["heal_status"] is WCStatus.SUCCESS
    assert cl.counters.get("fabric.partition_drops") > 0
    assert cl.counters.get("chaos.events") == 2
    assert cl[1].memory.read(b.addr, 4096) == b"\x42" * 4096
    assert len(ctrl.applied) == 2


def test_gray_link_latency_inflation_is_visible():
    def put_latency(schedule):
        cl = build_cluster(2, "ib-fdr", seed=13)
        ph = photon_init(cl)
        ChaosController(cl, schedule).arm()
        a, b = ph[0].buffer(4096), ph[1].buffer(4096)
        out = {}

        def prog(env):
            t0 = env.now
            yield from ph[0].put_pwc(1, a.addr, 4096, b.addr, b.rkey,
                                     local_cid=1, remote_cid=1)
            c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
            assert c is not None and c.ok
            out["t"] = env.now - t0
        cl.env.run(until=cl.env.process(prog(cl.env)))
        return out["t"]

    base = put_latency(FaultSchedule([]))
    slow = put_latency(FaultSchedule(
        [GrayLink(0, "up0", latency_add_ns=50_000)]))
    assert slow >= base + 50_000


def test_gray_link_self_clears_after_duration():
    cl = build_cluster(2, "ib-fdr", seed=14)
    ctrl = ChaosController(cl, FaultSchedule(
        [GrayLink(0, "up0", latency_add_ns=10_000, duration_ns=300_000)]))
    ctrl.arm()
    cl.env.run(until=100_000)
    assert cl.topology.link("up0").chaos is not None
    cl.env.run(until=400_000)
    assert cl.topology.link("up0").chaos is None


def test_flapping_link_drops_then_recovers():
    """Ops posted into down windows are replayed across flaps and all
    complete once the flap clears."""
    cl = build_cluster(2, "ib-fdr", seed=17)
    ph = photon_init(cl, PhotonConfig(use_imm=False, max_op_retries=10,
                                      op_timeout_ns=150_000,
                                      backoff_base_ns=20_000,
                                      backoff_jitter_ns=40_000))
    a, b = ph[0].buffer(4096), ph[1].buffer(4096)
    cl[0].memory.write(a.addr, b"\x7e" * 4096)
    ctrl = ChaosController(cl, FaultSchedule(
        [FlapLink(0, "up0", period_ns=200_000, duty=0.5,
                  duration_ns=900_000)]))
    ctrl.arm()

    def prog(env):
        for i in range(3):
            yield from ph[0].put_pwc(1, a.addr, 4096, b.addr, b.rkey,
                                     local_cid=i + 1, remote_cid=i + 1)
            c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
            assert c is not None and c.ok, f"put {i} lost to the flap"

    cl.env.run(until=cl.env.process(prog(cl.env)))
    assert cl.counters.get("link.chaos_drops") > 0
    assert cl.counters.get("photon.op_retries") > 0
    cl.env.run(until=1_200_000)
    assert cl.topology.link("up0").chaos is None  # flap cleaned up
    assert cl[1].memory.read(b.addr, 4096) == b"\x7e" * 4096


# --------------------------------------------------------------------------
# retry-storm decorrelation (satellite: backoff_jitter_ns)
# --------------------------------------------------------------------------

def test_retry_jitter_decorrelates_concurrent_retries():
    """No two retries of distinct ops land on the same tick with the
    widened jitter window, and the window widens beyond the historical
    one-backoff_base_ns default."""
    def retry_ticks(config):
        cl = build_cluster(2, "ib-fdr", seed=23)
        ph = photon_init(cl, config)
        peer = ph[0].peers[1]
        ticks = []
        for i in range(8):
            op = ph[0]._new_reliable_op(peer, "put", i + 1)
            op.attempts = 1
            ph[0]._op_attempt_failed(op)
            ticks.append(op.next_retry_at)
        return ticks

    wide = retry_ticks(PhotonConfig(backoff_base_ns=20_000,
                                    backoff_jitter_ns=80_000))
    assert len(set(wide)) == len(wide)
    assert max(wide) - min(wide) > 20_000       # wider than one base
    assert all(20_000 <= t < 100_000 for t in wide)

    # historical default: draws stay inside one backoff_base_ns window
    legacy = retry_ticks(PhotonConfig(backoff_base_ns=20_000))
    assert all(20_000 <= t < 40_000 for t in legacy)


# --------------------------------------------------------------------------
# crash / restart end to end + invariants
# --------------------------------------------------------------------------

def test_crash_restart_scenario_and_invariants():
    r = r19_chaos.run_scenario(quick=True)
    # safety: no dup delivery, reg balance, breaker legality, membership
    check_all(r["cluster"], delivered=r["delivered"],
              transports=[r["transport"]],
              monitors=[r["monitors"][0], r["monitors"][1]])
    assert r["probe_status"] is WCStatus.PEER_DEAD
    assert r["probe_settle_ns"] < 1_200_000
    assert r["fast_status"] is WCStatus.PEER_DEAD
    assert r["fast_settle_ns"] < 100_000
    assert r["side_ok"]
    assert r["rejoin_put_ok"] and r["rejoin_payload_ok"] and r["back_ok"]
    assert len(r["detect_ns"]) == 2 and len(r["outage_ns"]) == 2
    cl = r["cluster"]
    assert cl.counters.get("photon.crashes") == 1
    assert cl.counters.get("photon.rejoins") == 1
    assert cl.counters.get("photon.peer_rearms") == 2
    assert cl.counters.get("chaos.events") == 2
    # pinned from the pre-Transport-base PhotonTransport: the breaker that
    # moved into the shared base is provably the same breaker
    assert list(r["transport"].breaker_log) == [
        (2650000, 2, "closed", "open"), (4051060, 2, "open", "closed")]
    assert {k: v for k, v in cl.counters.snapshot().items()
            if k.startswith("transport.")} == {
        "transport.breaker_closed": 1, "transport.breaker_open": 1,
        "transport.peer_down": 1, "transport.peer_up": 1}
    # chaos events went through the trace (JSONL export source)
    cats = [rec.category for rec in cl.tracer.records]
    assert "chaos.crash" in cats and "chaos.restart" in cats


def test_rejoin_after_crash_mid_progress_pass_does_not_overflow_rq():
    """Regression (perf/README "Program defects" 3): a progress pass the
    crash catches between its CQ reap and its prepost top-up used to
    finish afterwards and re-post into a QP a survivor had already
    reconnected; rejoin() assumed an empty RQ, posted a full window on
    top and raised QueueFullError."""
    cl = build_cluster(2, "ib-fdr", seed=3)
    ph = photon_init(cl)
    window = ph[1].config.imm_prepost
    src, dst = ph[0].buffer(64), ph[1].buffer(64)

    def burst(env):
        for i in range(24):  # > max_recv_wr - imm_prepost immediates
            yield from ph[0].put_pwc(1, src.addr, 8, dst.addr, dst.rkey,
                                     remote_cid=i)
        yield env.timeout(50_000)  # all landed in rank 1's recv CQ

    cl.env.run(until=cl.env.process(burst(cl.env)))
    victim_pass = cl.env.process(ph[1]._progress_once())
    while not ph[1].remote_cids:  # the pass is now mid-reap, in a yield
        cl.env.step()
    ph[1].crash_local()
    ph[0].peers[1].qp.reset_and_reconnect()  # a survivor re-arms the pair
    cl.env.run(until=victim_pass)
    assert ph[1].peers[0].qp.rq_posted == 0  # the dead do not post receives
    cl.env.run(until=cl.env.process(ph[1].rejoin()))
    assert (ph[1].peers[0].preposted == ph[1].peers[0].qp.rq_posted
            == window)
    ph[0].rearm_peer(1)
    assert (ph[0].peers[1].preposted == ph[0].peers[1].qp.rq_posted
            == window)


def test_rearm_peer_before_flush_cqes_drain_does_not_overflow_rq():
    """The survivor's window counter is conserved, not re-measured: a
    pairing torn down just before the re-arm still has its flushed
    receives sitting unreaped in the CQ, and counting only the (empty)
    RQ would post a second window on top once they drain."""
    cl = build_cluster(2, "ib-fdr", seed=3)
    ph = photon_init(cl)
    peer, window = ph[0].peers[1], ph[0].config.imm_prepost
    peer.qp.teardown()  # what on_peer_dead does with sends outstanding
    assert peer.qp.rq_posted == 0 and len(ph[0].recv_cq) == window
    ph[0].rearm_peer(1)
    assert peer.qp.rq_posted == 0  # the window is still in use, unreaped

    def drain(env):
        while len(ph[0].recv_cq):
            yield from ph[0]._progress_once()

    cl.env.run(until=cl.env.process(drain(cl.env)))
    assert peer.preposted == peer.qp.rq_posted == window


def test_controller_rejects_double_crash_and_unknown_restart():
    from repro.sim.core import SimulationError
    cl = build_cluster(2, "ib-fdr", seed=25)
    ph = photon_init(cl)
    ctrl = ChaosController(cl, FaultSchedule(
        [CrashRank(1_000, 1), CrashRank(2_000, 1)]), photon=ph)
    ctrl.arm()
    with pytest.raises(SimulationError):
        cl.env.run(until=10_000)

    cl2 = build_cluster(2, "ib-fdr", seed=25)
    ph2 = photon_init(cl2)
    ctrl2 = ChaosController(cl2, FaultSchedule([RestartRank(1_000, 1)]),
                            photon=ph2)
    ctrl2.arm()
    with pytest.raises(SimulationError):
        cl2.env.run(until=10_000)


# --------------------------------------------------------------------------
# invariant checkers reject violations
# --------------------------------------------------------------------------

def test_no_duplicate_delivery_checker():
    check_no_duplicate_delivery([(0, 1), (0, 2), (1, 1)])
    with pytest.raises(InvariantViolation):
        check_no_duplicate_delivery([(0, 1), (0, 1)])


def test_breaker_legality_checker():
    check_breaker_legality([(0, 1, "closed", "open"),
                            (5, 1, "open", "half-open"),
                            (9, 1, "half-open", "closed")])
    with pytest.raises(InvariantViolation):  # illegal edge
        check_breaker_legality([(0, 1, "closed", "half-open")])
    with pytest.raises(InvariantViolation):  # discontinuous chain
        check_breaker_legality([(0, 1, "closed", "open"),
                                (5, 1, "closed", "open")])


def test_membership_monotonicity_checker():
    good = MembershipView(2)
    good.transition(1, DEAD)
    good.transition(1, ALIVE, incarnation=2)
    check_membership_monotonic(types.SimpleNamespace(view=good))

    bad = MembershipView(2)
    bad.transition(1, DEAD)
    bad.transition(1, ALIVE)  # no incarnation bump: illegal resurrection
    with pytest.raises(InvariantViolation):
        check_membership_monotonic(types.SimpleNamespace(view=bad))
