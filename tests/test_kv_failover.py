"""Leader failover under chaos: the acked-write survival contract.

One scenario, shared by every test here (module-scoped fixture): a
5-rank single-group store takes a client write burst while a chaos
schedule crashes the Raft leader mid-burst.  The phi-accrual detector
declares the death, the detection-driven fast election installs a new
leader, the client retries onto it with the same session uids, and the
suite asserts the whole contract:

* a new leader exists, and it is not the victim;
* the election lands within the phi detection budget plus the fast
  election delay (not the full election timeout);
* every acknowledged write is present on the new leader *and* on every
  surviving replica — audited uid by uid, the linearizability
  spot-check the issue asks for;
* surviving membership views stayed monotonic (the chaos invariant
  checker).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments.r20_kvstore import (DETECT_BUDGET_NS,
                                                 run_failover)
from repro.chaos.invariants import check_membership_monotonic


@pytest.fixture(scope="module")
def fo():
    return run_failover(quick=True)


def test_burst_made_progress_before_and_after_the_crash(fo):
    # every op in the burst was eventually acknowledged (retries are
    # exactly-once, so the count is exact, not a lower bound)
    assert fo["acked"] == fo["n_ops"]
    assert fo["acked"] > 0


def test_new_leader_is_elected_and_is_not_the_victim(fo):
    assert fo["t_new_leader"] is not None
    assert fo["new_leader"] != fo["leader_before"]


def test_election_within_the_detection_bound(fo):
    # crash -> new leader must be driven by detection (phi budget plus a
    # fast election), far under the idle election timeout
    assert fo["failover_ns"] is not None
    assert fo["failover_ns"] < 2 * DETECT_BUDGET_NS + 500_000
    detections = fo["detect_ns"]
    assert detections and max(detections) <= 2 * DETECT_BUDGET_NS


def test_zero_acked_write_loss_on_every_survivor(fo):
    assert fo["lost_on_new_leader"] == []
    assert fo["lost_per_survivor"]  # the audit actually covered replicas
    for rank, missing in fo["lost_per_survivor"].items():
        assert missing == [], f"rank {rank} lost acked writes {missing[:5]}"


def test_membership_monotonic_on_survivors(fo):
    for monitor in fo["survivor_monitors"]:
        check_membership_monotonic(monitor)


# ---------------------------------------------------------------------------
# crash landing *inside* the victim's apply / flush loop: on_crash() wipes
# the group table the loop is iterating across a simulated yield
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("where", ["apply", "flush"])
def test_crash_inside_apply_or_flush_keeps_the_serve_loop_alive(where):
    from repro.bench.experiments.r20_kvstore import (HB_PERIOD, VALUE_SIZE,
                                                     _build, _leaders_ready)
    from repro.chaos import ChaosController, FaultSchedule
    from repro.kv import KVClient
    from repro.kv.store import ACT_RAFT
    from repro.kv.workload import value_for

    cl, ph, monitors, nodes = _build(5, 1, seed=303)
    env = cl.env
    ctrl = ChaosController(cl, FaultSchedule([]), photon=ph,
                           monitors=monitors, kv=nodes)
    out = {"armed": False, "t_crash": None}

    def crash(victim):
        # 1 ns later the victim is parked in the yield that follows the
        # hooked call: apply_cost_ns, or the wire send of a Raft message
        out["armed"] = False
        yield env.timeout(1)
        ctrl._crash(victim)
        out["t_crash"] = env.now

    def hook(victim):
        node = nodes[victim]
        if where == "apply":
            sm = node.machines[0]
            inner = sm.apply

            def apply(cmd):
                if out["armed"]:
                    env.process(crash(victim))
                return inner(cmd)
            sm.apply = apply
        else:
            inner = node._ship

            def ship(dst, action, payload):
                if out["armed"] and action == ACT_RAFT:
                    env.process(crash(victim))
                return inner(dst, action, payload)
            node._ship = ship

    def burst(env):
        while not _leaders_ready(nodes, 1):
            yield env.timeout(HB_PERIOD)
        victim = out["victim"] = next(n.rank for n in nodes
                                      if n.is_leader(0))
        hook(victim)
        client = out["client"] = KVClient(nodes[4], client_id=7)
        for i in range(120):
            out["armed"] = out["t_crash"] is None and i >= 40
            v = value_for(7, client.seq + 1, VALUE_SIZE)
            yield from client.put(f"cr:{i % 40:04d}".encode(), v)
        yield env.timeout(20 * HB_PERIOD)

    # a dead serve loop surfaces here: the kernel re-raises the failure
    # of a process nobody waits on ("dictionary changed size ...")
    env.run(until=env.process(burst(env), name="kv.crash.burst"))

    victim = nodes[out["victim"]]
    assert out["t_crash"] is not None, "the crash hook never fired"
    # dead-poll stance: loop alive, endpoint dead, replica state wiped
    assert victim._proc.is_alive and not victim.photon.alive
    assert not victim.raft and not victim.machines
    acked = {(c, s) for (c, s, _op, _k, _v) in out["client"].acked}
    assert len(acked) == 120
    survivors = [n for n in nodes if n.photon.alive and 0 in n.machines]
    assert len(survivors) == 2
    for n in survivors:
        assert acked <= n.machines[0].applied_uids, n.rank
