"""A crash belongs to the rank: ``RankNode.crash()`` / ``restart()``.

Every layer built on a rank subscribes to its crash and its restart when
it is built, so a chaos schedule reaches each of them whatever order they
were built in, and a restarted rank sees nothing its previous incarnation
left behind: no staged parcel ships, no dead fetch blocks the landing
ring, no lost credit parks an invoke, no posted receive of the dead
swallows a new message.
"""

import pytest

from repro.chaos.controller import ChaosController
from repro.chaos.schedule import CrashRank, FaultSchedule, RestartRank
from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import photon_init
from repro.runtime import (ActionRegistry, AmConfig, build_health,
                           build_runtime)
from repro.sim import SimulationError

T_CRASH = 30_000
T_RESTART = 3_000_000


def _chaos(cl, rank=1, crash=T_CRASH, restart=T_RESTART):
    ctrl = ChaosController(cl, FaultSchedule([CrashRank(crash, rank),
                                              RestartRank(restart, rank)]))
    ctrl.arm()
    return ctrl


def _at(env, t_ns, gen):
    """Run ``gen`` from simulated time ``t_ns``."""
    def run():
        yield env.timeout(t_ns - env.now)
        return (yield from gen)
    return env.process(run())


# --------------------------------------------------------------------------
# the rank owns its crash
# --------------------------------------------------------------------------

def test_a_rank_rejects_a_double_crash_and_the_restart_of_a_live_rank():
    cl = build_cluster(2, "ib-fdr", seed=25)
    photon_init(cl)
    with pytest.raises(SimulationError, match="not crashed"):
        next(cl[1].restart())
    cl[1].crash()
    assert not cl[1].alive and cl[1].nic.down
    with pytest.raises(SimulationError, match="already crashed"):
        cl[1].crash()
    cl.env.run(until=cl.env.process(cl[1].restart()))
    assert cl[1].alive and not cl[1].nic.down
    # the controller's events go through the same checks
    ChaosController(cl, FaultSchedule([CrashRank(cl.env.now + 1_000, 0),
                                       CrashRank(cl.env.now + 2_000, 0)])
                    ).arm()
    with pytest.raises(SimulationError, match="already crashed"):
        cl.env.run(until=cl.env.now + 10_000)


@pytest.mark.parametrize("armed", ["armed-first", "armed-last"])
def test_every_layer_dies_and_comes_back_with_its_rank(armed):
    """Photon, minimpi, both transports, the coalescer, the runtimes and
    the AM engine, built before or after the controller is armed, each hear the crash
    once the detector has halted and before the NIC powers off, and each
    restart once the NIC is back: Photon's rejoin (which charges time)
    first, the detector's resume last."""
    cl = build_cluster(2, "ib-fdr", seed=5)
    build_health(cl)
    if armed == "armed-first":
        _chaos(cl)
    ph = photon_init(cl)
    reg = ActionRegistry()
    build_runtime(cl, reg, "photon", photon=ph, am=True)
    build_runtime(cl, reg, "mpi", comms=mpi_init(cl))
    if armed == "armed-last":
        _chaos(cl)
    node, seen = cl[1], []

    def spy(hook, cb):
        def run():
            seen.append((hook, type(cb.__self__).__name__, cl.env.now,
                         node.health.halted, node.nic.down, ph[1].alive))
            return cb()
        return run

    node.on_crash[:] = [spy("crash", cb) for cb in node.on_crash]
    node.on_restart[:] = [spy("restart", cb) for cb in node.on_restart]
    cl.env.run(until=T_RESTART + 1_000_000)
    layers = ["Photon", "PhotonTransport", "CoalescingTransport",
              "Runtime", "ActiveMessageEngine", "Engine", "MpiTransport",
              "Runtime"]
    assert seen[:8] == [("crash", name, T_CRASH, True, False, name ==
                         "Photon") for name in layers]
    (_, first, t0, *state0), (_, second, t1, *state1) = seen[8:]
    assert (first, t0, state0) == ("Photon", T_RESTART, [True, False, False])
    # the engine restarts after Photon's rejoin has charged its time
    assert second == "Engine" and t1 > t0 and state1 == [True, False, True]
    assert node.alive and not node.health.halted
    assert cl.scope(1).get("health.restarts") == 1


# --------------------------------------------------------------------------
# layers that had no crash hook: a restarted rank sees none of the dead's
# state
# --------------------------------------------------------------------------

def _runtime_pair(**kw):
    """Two ranks with detectors: rank 0 re-arms its pairing with rank 1
    when rank 1's new incarnation joins."""
    cl = build_cluster(2, "ib-fdr", seed=7)
    ph = photon_init(cl)
    build_health(cl)
    reg = ActionRegistry()
    got = []
    reg.register("note", lambda rt, src, payload: got.append(
        (rt.env.now, bytes(payload))))
    reg.register("echo", lambda rt, src, payload: payload)
    return cl, build_runtime(cl, reg, "photon", photon=ph, **kw), got


def _serve(rt, t_end):
    """Pump ``rt`` until ``t_end`` (a server that never stops polling)."""
    yield from rt.process_until(lambda: rt.env.now >= t_end,
                                t_end - rt.env.now)


def test_a_restarted_rank_ships_no_parcel_its_previous_incarnation_staged():
    """Rank 1 stages a parcel, crashes before its batch ships and comes
    back; the idle poll of its new incarnation used to ship the old
    batch (rank 0 ran it at 4.0017 ms).  Only what the new incarnation
    sends arrives."""
    cl, rts, got = _runtime_pair(coalesce=True)
    _chaos(cl, crash=10_000, restart=2_000_000)
    env = cl.env
    _at(env, 0, rts[1].send(0, "note", b"staged before the crash"))
    _at(env, 0, _serve(rts[0], 8_000_000))
    _at(env, 4_000_000, rts[1].send(0, "note", b"sent after the restart"))
    _at(env, 4_000_000, _serve(rts[1], 4_500_000))
    env.run(until=8_000_000)
    assert [payload for _, payload in got] == [b"sent after the restart"]
    assert cl.scope(1).get("coalesce.parcels_dropped") == 1
    stats = rts[1].transport.stats()
    assert stats["open_batches"] == stats["ready_parcels"] == 0


def test_a_restarted_rank_runs_no_local_parcel_its_previous_incarnation_queued():
    """Rank 1 queues a parcel for itself and crashes before it runs; its
    new incarnation's first pass used to run it (at 4.00015 ms)."""
    cl, rts, got = _runtime_pair()
    _chaos(cl, crash=10_000, restart=2_000_000)
    env = cl.env
    _at(env, 0, rts[1].send(1, "note", b"queued before the crash"))
    _at(env, 4_000_000, rts[1].send(1, "note", b"queued after the restart"))
    _at(env, 4_000_000, _serve(rts[1], 4_500_000))
    env.run(until=5_000_000)
    assert [payload for _, payload in got] == [b"queued after the restart"]


def test_a_rendezvous_fetch_in_flight_at_a_crash_blocks_no_later_parcel():
    """Rank 1 crashes 15 us into fetching a 64 KiB parcel and comes back
    at 2 ms.  The dead fetch never settles, and it used to stay at the
    head of the landing ring: the 64 KiB parcel sent at 4 ms was never
    handed out, and 2 of 8 landings stayed taken."""
    cl, rts, got = _runtime_pair()
    _chaos(cl, crash=15_000, restart=2_000_000)
    env = cl.env
    big = 64 * 1024
    _at(env, 0, rts[0].send(1, "note", b"a" * big))
    _at(env, 0, _serve(rts[1], 8_000_000))
    _at(env, 4_000_000, rts[0].send(1, "note", b"b" * big))
    _at(env, 4_000_000, _serve(rts[0], 8_000_000))
    env.run(until=8_000_000)
    assert [payload for _, payload in got] == [b"b" * big]
    assert 4_000_000 < got[0][0] < 4_100_000
    stats = rts[1].transport.stats()
    assert stats["free_landings"] == 8 and stats["fetches_inflight"] == 0


def test_an_invoke_after_a_restart_gets_the_credits_the_dead_held():
    """Rank 1 crashes with both its credits to rank 0 held by pending
    invokes and comes back; rank 0 never dies, so no verdict returns
    them, and the invoke of the new incarnation used to park on a credit
    forever."""
    cl, rts, _ = _runtime_pair(am=True, coalesce=False,
                               am_config=AmConfig(credits_per_dest=2))
    _chaos(cl)
    env = cl.env
    out = {}

    def slow(rt, src, payload):
        yield rt.env.timeout(100_000)
        return payload
    rts[0].registry.register("slow", slow)

    def old_incarnation():
        for _ in range(2):
            yield from rts[1].invoke(0, "slow", b"old")
        out["held"] = dict(rts[1].am._credits)

    def new_incarnation():
        fut = yield from rts[1].invoke(0, "echo", b"new")
        out["val"] = yield from fut.wait(rts[1], 5_000_000)
        out["t"] = env.now

    _at(env, 0, old_incarnation())
    _at(env, 0, _serve(rts[0], 10_000_000))
    _at(env, 5_000_000, new_incarnation())
    env.run(until=10_000_000)
    assert out["held"] == {0: 0}
    assert out["val"] == b"new" and out["t"] < 5_100_000
    am = rts[1].am
    assert am._credits == {0: 2} and not am._pending


def test_minimpi_forgets_the_requests_of_the_dead_and_serves_the_reborn():
    """Rank 1's minimpi engine crashes with a rendezvous send and a
    receive pending.  Across the restart neither survives — no request,
    no WR callback, no posted receive — so the message rank 0 sends
    after the restart goes to the new incarnation's receive, not the
    dead one's; and a parcel transport over it primes a new window that
    takes the next parcel."""
    cl = build_cluster(2, "ib-fdr", seed=7)
    comms = mpi_init(cl)
    reg, got = ActionRegistry(), []
    reg.register("note", lambda rt, src, payload: got.append(bytes(payload)))
    rts = build_runtime(cl, reg, "mpi", comms=comms)
    tp, eng = rts[1].transport, comms[1].engine
    _chaos(cl)
    env = cl.env
    mem0, mem1 = cl[0].memory, cl[1].memory
    src0, src1 = mem0.alloc(64), mem1.alloc(64 * 1024)
    dead_dst, new_dst = mem1.alloc(64), mem1.alloc(64)
    mem0.write(src0, b"n" * 64)
    out = {}

    def old_incarnation():
        yield from tp.poll()  # primes the parcel window
        out["old_recv"] = yield from comms[1].irecv(dead_dst, 64, 0, 5)
        out["old_send"] = yield from comms[1].isend(src1, 64 * 1024, 0, 6)
        out["before"] = (len(eng.live_requests), len(eng._ops))

    def new_incarnation():
        out["after"] = (len(eng.live_requests), len(eng._ops), tp._primed)
        req = yield from comms[1].irecv(new_dst, 64, 0, 5)
        yield from eng.wait(req, 1_000_000)
        out["new_recv"] = req

    def sender():
        req = yield from comms[0].isend(src0, 64, 1, 5)
        yield from comms[0].engine.wait(req, 1_000_000)
        yield from rts[0].send(1, "note", b"parcel")

    _at(env, 0, old_incarnation())
    _at(env, 4_000_000, new_incarnation())
    _at(env, 4_000_000, sender())
    _at(env, 4_500_000, _serve(rts[1], 6_000_000))
    env.run(until=6_000_000)
    assert got == [b"parcel"]
    assert out["before"][0] >= 2 + 16 and out["before"][1] >= 1
    assert out["after"] == (0, 0, False)
    assert out["new_recv"].done and not out["new_recv"].failed
    assert mem1.read_bytes(new_dst, 64) == b"n" * 64
    assert not out["old_recv"].done
    assert all(len(ch.send_slots) == 32 for ch in eng.peers.values())
