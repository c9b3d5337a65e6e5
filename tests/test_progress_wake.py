"""Wake-on-arrival: the one blocking-wait loop (``sim.resources.poll_until``)
under the three layers that use it — Photon, minimpi, the parcel runtime.

A waiter runs a progress pass and, when the pass found nothing, parks on
its endpoint's doorbell until an arrival or a deadline.  These tests pin
what that must not break: no arrival is ever missed (whatever its phase
against the waiter's pass or another poller's), every waiter on an
endpoint is woken, deadlines still fire while parked, and an idle wait
costs neither kernel events nor a timer left on the queue.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.minimpi.protocol import SW_OVERHEAD_NS
from repro.photon import PhotonConfig, photon_init
from repro.photon.base import BACKOFF_BASE_NS
from repro.runtime import ActionRegistry, build_runtime
from repro.runtime.coalesce import MAX_DELAY_NS
from repro.runtime.scheduler import RECHECK_NS
from repro.sim.resources import poll_until
from tests.stepping import peek
from repro.verbs.enums import WCStatus

FAR = 10 ** 12
KINDS = ("photon", "minimpi", "runtime")


class Rig:
    """Two ranks of one layer: ``wait(timeout_ns)`` blocks on rank 0 until
    the next arrival (→ truthy, or the layer's timed-out value),
    ``send()`` produces one arrival from rank 1, ``bell`` is rank 0's
    doorbell, ``probe()`` one bare progress pass on rank 0 and ``post_ns``
    what ``wait`` spends posting before it starts to block."""

    def __init__(self, kind: str, **cluster_kw):
        self.cl = cl = build_cluster(2, "ib-fdr", seed=5, **cluster_kw)
        self.env = cl.env
        self.post_ns = 0
        if kind == "minimpi":
            comms = mpi_init(cl)
            engine = comms[0].engine
            self.post_ns = SW_OVERHEAD_NS  # the irecv
            self.bell, self.probe = engine.doorbell, engine._progress_once
            src, dst = cl[1].memory.alloc(64), cl[0].memory.alloc(64)
            tags = iter(range(1 << 20))

            def wait(timeout_ns=None):
                req = yield from comms[0].irecv(dst, 64, 1, tag=next(tags))
                return (yield from comms[0].wait(req, timeout_ns))

            sent = iter(range(1 << 20))

            def send():
                req = yield from comms[1].isend(src, 8, 0, tag=next(sent))
                yield from comms[1].wait(req)
        else:
            ph = photon_init(cl)
            self.bell, self.probe = ph[0].doorbell, ph[0]._progress_once
            if kind == "photon":
                src, dst = ph[1].buffer(64), ph[0].buffer(64)

                def wait(timeout_ns=None):
                    comp = yield from ph[0].wait_completion("remote",
                                                            timeout_ns)
                    return comp is not None

                def send():
                    yield from ph[1].put_pwc(0, src.addr, 8, dst.addr,
                                             dst.rkey, remote_cid=7)
            else:
                reg = ActionRegistry()
                reg.register("noop", lambda rt, src, payload: None)
                rts = build_runtime(cl, reg, "photon", photon=ph)
                self.rts = rts

                def wait(timeout_ns=None):
                    return (yield from rts[0].process_n(1, timeout_ns))

                def send():
                    yield from rts[1].send(0, "noop", b"x" * 8)
        self.wait, self.send = wait, send

    def run(self, *gens):
        procs = [self.env.process(g) for g in gens]
        self.env.run(until=self.env.all_of(procs))
        return [p.value for p in procs]

    def after(self, delay: int, gen_fn):
        def prog():
            yield self.env.timeout(delay)
            return (yield from gen_fn())
        return prog()


def first_ring_after_send(kind: str) -> int:
    """Instant the arrival produced by ``send()`` at t=0 rings rank 0."""
    rig = Rig(kind)
    rings = []
    rig.bell.wait().add_callback(lambda _ev: rings.append(rig.env.now))
    rig.env.process(rig.send())
    rig.env.run()  # to quiescence: the put is only posted when send() ends
    return rings[0]


# --------------------------------------------------------------- no lost wake


@pytest.mark.parametrize("kind", KINDS)
def test_arrival_at_any_phase_of_the_waiters_pass_completes_the_wait(kind):
    """Slide the waiter's start so the arrival lands before, inside, at
    the very end of, and after its first pass — in particular on the
    instant between the pass's checks and the park."""
    arrival = first_ring_after_send(kind)
    poll_ns = PhotonConfig().progress_poll_ns
    for start in range(arrival - poll_ns - 8, arrival + 4):
        rig = Rig(kind)
        t_done = []

        def waiter():
            ok = yield from rig.wait(FAR)
            t_done.append(rig.env.now)
            return ok

        ok, _ = rig.run(rig.after(start, waiter), rig.send())
        assert ok, f"waiter started at {start} missed the arrival"
        # seen by the probe after the arrival: a pass, its CQE/entry reap
        # and the handler — never a back-off tick, never the re-check
        assert t_done[0] - max(arrival, start) < 1_000, start


@pytest.mark.parametrize("kind", ("photon", "minimpi"))
def test_completion_popped_by_another_pollers_pass_still_wakes_the_waiter(
        kind):
    """A second poller on the endpoint (a server loop) reaps the waiter's
    CQE; the result becomes visible ``cqe_poll_ns`` later, after the
    waiter's own pass has found the CQ empty and parked."""
    arrival = first_ring_after_send(kind)
    poll_ns = PhotonConfig().progress_poll_ns
    for start in range(arrival - poll_ns - 4, arrival + poll_ns + 4, 3):
        rig = Rig(kind)
        ok, _, _ = rig.run(rig.wait(FAR), rig.after(start, rig.probe),
                           rig.send())
        assert ok, f"foreign pass at {start} swallowed the wake-up"


@pytest.mark.parametrize("kind", ("photon", "minimpi"))
def test_arrival_behind_a_productive_pass_is_not_slept_on(kind):
    """Both engines poll the send CQ first.  While a pass is busy reaping a
    receive, a send completion lands in the CQ that pass has already
    looked at — the waiter needs both, so it must go round again."""
    for offset in range(0, 1_500, 4):
        cl = build_cluster(2, "ib-fdr", seed=5)
        env = cl.env
        if kind == "photon":
            ph = photon_init(cl)
            bufs = [ep.buffer(64) for ep in ph]

            def peer():
                yield env.timeout(offset)
                yield from ph[1].put_pwc(0, bufs[1].addr, 8, bufs[0].addr,
                                         bufs[0].rkey, remote_cid=1)

            def waiter():
                op = yield from ph[0].get_pwc(1, bufs[0].addr + 32, 8,
                                              bufs[1].addr, bufs[1].rkey)
                return (yield from ph[0]._wait_until(
                    lambda: op.status is not None and ph[0].remote_cids, FAR))
        else:
            comms = mpi_init(cl)
            mem = [cl[r].memory.alloc(128) for r in range(2)]

            def peer():
                yield env.timeout(offset)
                req = yield from comms[1].isend(mem[1], 8, 0, tag=1)
                yield from comms[1].wait(req)
                req = yield from comms[1].irecv(mem[1], 64, 0, tag=2)
                yield from comms[1].wait(req)

            def waiter():
                rreq = yield from comms[0].irecv(mem[0], 64, 1, tag=1)
                sreq = yield from comms[0].isend(mem[0] + 64, 8, 1, tag=2)
                return (yield from comms[0].waitall([rreq, sreq], FAR))

        procs = [env.process(waiter()), env.process(peer())]
        env.run(until=env.all_of(procs))
        assert procs[0].value, f"receive sent at {offset}: send slept on"
        assert env.now < 20_000


@pytest.mark.parametrize("kind", ("photon", "minimpi"))
def test_every_waiter_on_an_endpoint_is_woken(kind):
    rig = Rig(kind)

    def two_sends():
        yield from rig.send()
        yield rig.env.timeout(5_000)
        yield from rig.send()

    a, b, _ = rig.run(rig.wait(FAR), rig.wait(FAR), two_sends())
    assert a and b


def test_predicate_flipped_out_of_band_is_noticed_within_the_recheck():
    """Nothing arrives on the rank: a driver on another rank flips a flag."""
    rig = Rig("runtime")
    state = {"done": False, "seen": None}

    def flipper():
        yield rig.env.timeout(123_456)
        state["done"] = True

    def server():
        ok = yield from rig.rts[0].process_until(lambda: state["done"], FAR)
        state["seen"] = rig.env.now
        return ok

    ok, _ = rig.run(server(), flipper())
    assert ok
    assert 0 <= state["seen"] - 123_456 <= RECHECK_NS + 100


# ------------------------------------------------------------------ idle cost


@pytest.mark.parametrize("kind", ("photon", "minimpi"))
def test_idle_wait_costs_a_constant_number_of_kernel_events(kind):
    def events(timeout_ns):
        rig = Rig(kind)
        rig.env.run(until=10)  # start-of-run events out of the way
        before = rig.env.events_processed
        (ok,) = rig.run(rig.wait(timeout_ns))
        assert not ok
        return rig.env.events_processed - before

    assert events(1_000_000) == events(4_000_000) <= 12


@pytest.mark.parametrize("kind", KINDS)
def test_short_wait_with_a_far_timeout_leaves_no_timer_behind(kind):
    rig = Rig(kind)
    ok, _ = rig.run(rig.wait(FAR), rig.send())
    assert ok and rig.env.now < 10_000
    nxt = peek(rig.env)
    assert nxt is None or nxt - rig.env.now < 100_000


@pytest.mark.parametrize("kind", KINDS)
def test_idle_timeout_returns_exactly_on_time(kind):
    rig = Rig(kind)
    timeout_ns = 77_777

    def prog():
        yield rig.env.timeout(1_234)
        t0 = rig.env.now
        ok = yield from rig.wait(timeout_ns)
        return ok, rig.env.now - t0

    ((ok, elapsed),) = rig.run(prog())
    assert elapsed == rig.post_ns + timeout_ns
    assert ok is False


# ------------------------------------------------------ deadlines while parked


def test_lost_attempt_is_replayed_at_its_deadline_while_the_waiter_is_parked():
    """A partition swallows the first attempt whole — no ack, no error
    CQE, nothing ever arrives: only the op's deadline can wake the wait."""
    from repro.chaos import (ChaosController, FaultSchedule, HealEvent,
                             PartitionEvent)
    cl = build_cluster(2, "ib-fdr", seed=9)
    ph = photon_init(cl, PhotonConfig(use_imm=False, op_timeout_ns=100_000))
    a, b = ph[0].buffer(64), ph[1].buffer(64)
    ChaosController(cl, FaultSchedule(
        [PartitionEvent(0, (0,), (1,)), HealEvent(50_000)])).arm()

    def prog(env):
        op = yield from ph[0].put_pwc(1, a.addr, 64, b.addr, b.rkey,
                                      remote_cid=1)
        yield from ph[0].wait_op(op, FAR)
        return op.status, env.now

    status, t_done = cl.env.run(until=cl.env.process(prog(cl.env)))
    assert status is WCStatus.SUCCESS
    assert cl.counters.get("photon.op_retries") == 1
    # deadline + one backoff (BACKOFF_BASE_NS + less jitter than that) +
    # the replay itself
    deadline = 100_000
    assert (deadline + BACKOFF_BASE_NS <= t_done
            < deadline + 2 * BACKOFF_BASE_NS + 10_000)
    # parked throughout: a pass at the deadline, one at the retry time
    assert cl.counters.get("photon.progress_passes") < 12


def test_coalesced_batch_leaves_on_time_from_a_rank_parked_in_future_wait():
    """On time = before the rank parks: the first pass of ``Future.wait``
    finds nothing and ships the open batch, one probe after the invoke —
    not ``MAX_DELAY_NS`` later from a park with an alarm set for it."""
    cl = build_cluster(2, "ib-fdr", seed=5)
    reg = ActionRegistry()
    reg.register("echo", lambda rt, src, payload: payload)
    rts = build_runtime(cl, reg, "photon", photon=photon_init(cl), am=True)
    tp = rts[0].transport
    shipped = []
    inner_send = tp.inner.send

    def spy(dst, raw):
        shipped.append(cl.env.now)
        yield from inner_send(dst, raw)

    tp.inner.send = spy
    state = {"done": False}

    def client(env):
        t0 = env.now
        fut = yield from rts[0].invoke(1, "echo", b"ping")
        reply = yield from fut.wait(rts[0], FAR)  # one parcel: batch not full
        state["done"] = True
        return t0, reply

    def server(env):
        yield from rts[1].process_until(lambda: state["done"], FAR)

    procs = [cl.env.process(client(cl.env)), cl.env.process(server(cl.env))]
    cl.env.run(until=cl.env.all_of(procs))
    t0, reply = procs[0].value
    assert reply == b"ping"
    assert shipped[0] - t0 == PhotonConfig().progress_poll_ns
    # and the owner's reply likewise: both legs, no timer in either
    assert len(shipped) == 1 and cl.env.now - t0 < MAX_DELAY_NS


# ------------------------------------------------- the server's bell: arrivals


def _parked_server(ph0, got):
    """A server loop in miniature: ``poll_until`` on the endpoint's
    ``arrivals``, a pass = one progress pass + pop one eager message."""
    env = ph0.env

    def probe():
        yield from ph0._progress_once()
        m = ph0._pop_message()
        if m is not None:
            got.append((env.now, m[2]))
        return m is not None

    return poll_until(ph0.arrivals, probe, lambda: bool(got), FAR)


def test_entry_in_limbo_in_another_pass_still_reaches_a_parked_server():
    """``_scan_peer`` advances a ring before its cost yield and appends to
    ``messages`` after it.  While a waiter's pass holds an entry there, a
    server pass woken by the same ledger write finds neither and parks:
    the waiter's pass must ring ``arrivals`` when it ends, not only the
    doorbell.  Slide a doorbell-only kick so the waiter's pass reaches the
    ring just before the server's does."""
    def run(kick_at):
        cl = build_cluster(2, "ib-fdr", seed=5)
        ph = photon_init(cl)
        env, got, rings = cl.env, [], []
        ph[0].arrivals.wait().add_callback(lambda _ev: rings.append(env.now))

        def waiter():  # a client blocked on an op of its own
            yield from ph[0].wait_op(SimpleNamespace(status=None), 50_000)

        def kick():
            yield env.timeout(kick_at)
            ph[0].doorbell.fire()

        env.process(waiter())
        env.process(ph[1].send_pwc(0, b"parcel", remote_cid=9))
        if kick_at is not None:
            env.process(kick())
        env.run(until=env.process(_parked_server(ph[0], got)))
        return rings[0], got[0]

    arrival, _ = run(None)
    poll_ns = PhotonConfig().progress_poll_ns
    for kick_at in range(arrival - poll_ns - 4, arrival + 4):
        _, (t_got, data) = run(kick_at)
        assert data == b"parcel"
        # one pass of the waiter's, one of the server's — not the 50 us
        # the waiter's own timeout would take to ring anything
        assert t_got - arrival < 1_000, kick_at


def test_send_side_traffic_does_not_ring_arrivals():
    """A co-located client's one-sided reads complete on the send CQ and
    settle through ``_op_done``: the doorbell rings, ``arrivals`` does
    not — a parked server pays nothing for them."""
    cl = build_cluster(2, "ib-fdr", seed=5)
    ph = photon_init(cl)
    a, b = ph[0].buffer(64), ph[1].buffer(64)

    def client():
        for _ in range(20):
            op = yield from ph[0].get_pwc(1, a.addr, 64, b.addr, b.rkey)
            yield from ph[0].wait_op(op, FAR)
            assert op.status is WCStatus.SUCCESS

    before = ph[0].arrivals.fires, ph[0].doorbell.fires
    cl.env.run(until=cl.env.process(client()))
    assert ph[0].arrivals.fires == before[0]
    assert ph[0].doorbell.fires >= before[1] + 20


def test_rendezvous_parcel_reaches_a_scheduler_parked_on_arrivals():
    """A parcel over the eager limit is advertised, then fetched with an
    RDMA read that completes on the *send* CQ.  With nothing else arriving,
    the scheduler parked on ``arrivals`` must still hear the fetch settle."""
    cl = build_cluster(2, "ib-fdr", seed=5)
    reg = ActionRegistry()
    seen = []
    reg.register("big", lambda rt, src, payload: seen.append(
        (rt.env.now, len(payload))))
    ph = photon_init(cl)
    rts = build_runtime(cl, reg, "photon", photon=ph)
    size = 3 * ph[0].config.eager_limit
    tp = rts[0].transport

    def server():
        return (yield from poll_until(tp.arrivals, rts[0].progress,
                                      lambda: bool(seen), 200_000))

    def sender():
        yield from rts[1].send(0, "big", b"z" * size)
        yield from rts[1].process_until(lambda: bool(seen), 200_000)

    procs = [cl.env.process(server()), cl.env.process(sender())]
    cl.env.run(until=cl.env.all_of(procs))
    assert procs[0].value and seen[0][1] == size
    # and the send CQ is back on the doorbell alone once nothing is owed
    assert ph[0].send_cq.doorbell is ph[0].doorbell
