"""Lossy-mode ARQ: a record and two timers, against its executable reference.

``Nic`` keeps one ``_Arq`` record per un-acked message and arms raw timers
where ``tests/arq_oracle.OracleNic`` runs the literal retry-monitor process
(``any_of([ack, deadline])``, one blocking ``put`` per copy).  Generated
scripts — a scripted drop stream, 1–5-chunk messages both ways between two
ranks, bursts and gaps, first-hop queues shallow enough that re-injections
park — must give the same deliveries, errors, acks, counters and ``nic.arq``
spans on both; scripted cases pin the corners, and the last tests pin what
a crash and a partition do to messages in flight.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import build_cluster
from repro.fabric import IB_FDR, Memory, Nic, Star, WireMsg
from repro.fabric import nic as nic_module
from repro.fabric.link import LinkChaos
from repro.obs.registry import MetricsRegistry
from repro.sim.core import Environment
from repro.util.units import serialization_ns
from tests.arq_oracle import OracleNic
from tests.stepping import peek
from tests.test_fabric_link import _at

MTU = 256
PARAMS = IB_FDR.with_overrides(
    link__mtu=MTU, link__bandwidth_gbps=8.0, link__drop_rate=0.5,
    link__loss_mode="lossy")
#: one full chunk on the wire (8 Gbit/s: a byte is a nanosecond)
SER = serialization_ns(MTU + PARAMS.link.header_bytes, 8.0)
#: the rig's ack grace: a few chunk times, so deadlines fall among sends
ACK_TIMEOUT_NS = 900


@contextmanager
def short_ack_timeout():
    """The NIC's ack grace is the rig's inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nic_module, "ACK_TIMEOUT_NS", ACK_TIMEOUT_NS)
        yield


@pytest.fixture
def short_ack():
    with short_ack_timeout():
        yield


class ScriptedStreams:
    """Stands in for the cluster's RNG registry: every link draws from the
    same cyclic drop pattern (True = drop), each from its own phase."""

    def __init__(self, pattern):
        self.pattern = pattern

    def stream(self, name: str):
        return _Cyclic(self.pattern, sum(map(ord, name)))


class _Cyclic:
    def __init__(self, pattern, phase):
        self.pattern, self.i = pattern, phase

    def random(self) -> float:
        self.i += 1
        return 0.0 if self.pattern[self.i % len(self.pattern)] else 1.0


class Rig:
    """Two ranks on a lossy Star with ``depth``-deep link queues; every
    message is tagged and its delivery / error / RC ack logged."""

    def __init__(self, nic_cls, depth=16, retries=3, pattern=(False,)):
        self.env = env = Environment()
        self.metrics = MetricsRegistry(2, spans_enabled=True)
        params = PARAMS.with_overrides(nic__transport_retries=retries)
        self.topo = Star(env, 2, params.link, self.metrics.fabric,
                         rng=ScriptedStreams(pattern))
        for link in self.topo.iter_links():
            link._depth = depth
        mems = [Memory(1 << 16, params.host, rank=r) for r in range(2)]
        self.nics = [nic_cls(env, r, params, mems[r], self.topo,
                             self.metrics.scope(r)) for r in range(2)]
        self.msgs = []
        self.delivered, self.errors, self.acked = [], [], []
        #: a re-injection started in the nanosecond another message was
        #: offered to the same first hop (see tests/arq_oracle.py)
        self.contended = False
        for uplink in self.topo.uplinks:
            self._watch(uplink)

    def _watch(self, uplink):
        inner, book, env = uplink.try_put, uplink.reserve, self.env
        heads, started, offered, restarts = set(), set(), {}, set()

        def offer(chunk, at):
            tag = chunk.msg.meta["tag"]
            if chunk.is_first and chunk not in heads:
                heads.add(chunk)
                if tag in started:
                    restarts.add(at)        # a fresh copy of a first chunk
                started.add(tag)
            offered.setdefault(at, set()).add(tag)
            if at in restarts and len(offered[at]) > 1:
                self.contended = True

        def try_put(chunk, _head=False):
            offer(chunk, env.now)
            return inner(chunk, _head)

        def reserve(chunk, at, src, up=None):
            offer(chunk, at)                # a DMA train's chunk, at its fetch end
            return book(chunk, at, src, up)

        uplink.try_put, uplink.reserve = try_put, reserve

    def send(self, src, nbytes):
        tag, env = len(self.msgs), self.env
        data = bytes([tag % 251]) * nbytes
        log = lambda into: lambda *_a: into.append((env.now, tag))
        msg = WireMsg(src, 1 - src, nbytes, "write", meta={"tag": tag},
                      fetch=lambda off, size: data[off:off + size],
                      place=lambda off, chunk: None, ack=True,
                      on_delivered=log(self.delivered),
                      on_acked=log(self.acked), on_error=log(self.errors))
        self.msgs.append(msg)
        self.nics[src].transmit(msg)
        return msg

    def observed(self):
        snap = self.metrics.aggregate.snapshot()
        # instants, not the order two ranks act in within one nanosecond
        return {"delivered": sorted(self.delivered),
                "errors": sorted(self.errors), "acked": sorted(self.acked),
                "counters": {k: v for k, v in sorted(snap.items())
                             if k.startswith(("nic.", "link."))},
                "spans": [(s.t_start, s.t_end, s.extra["retries"], s.status)
                          for s in self.metrics.spans if s.name == "nic.arq"]}


def _play(nic_cls, depth, retries, pattern, scripts):
    rig = Rig(nic_cls, depth, retries, pattern)

    def sender(src, script):
        for gap, nbytes in script:
            if gap:
                yield rig.env.timeout(gap)
            rig.send(src, nbytes)

    for src, script in enumerate(scripts):
        rig.env.process(sender(src, script), name=f"sender{src}")
    with short_ack_timeout():
        rig.env.run()
    return rig


# gaps: bursts, sub-serialisation, around one ack timeout, long enough to
# go idle; sizes: 1 to 5 chunks, full and ragged
GAPS = st.one_of(st.sampled_from((0, 0, 1, SER, 900, 2_000, 20_000)),
                 st.integers(min_value=0, max_value=4_000))
SCRIPT = st.lists(st.tuples(GAPS, st.integers(min_value=1,
                                              max_value=5 * MTU)),
                  max_size=8)


@settings(max_examples=150, deadline=None)
@given(depth=st.integers(min_value=1, max_value=4),
       retries=st.integers(min_value=0, max_value=3),
       pattern=st.lists(st.booleans(), min_size=1, max_size=12),
       scripts=st.tuples(SCRIPT, SCRIPT))
def test_arq_record_matches_retry_monitor_process(depth, retries, pattern,
                                                  scripts):
    want = _play(OracleNic, depth, retries, pattern, scripts)
    got = _play(Nic, depth, retries, pattern, scripts)
    # the two named same-nanosecond ties: neither order is more right
    assume(not (want.contended or got.contended
                or sum(nic.ties for nic in want.nics)))
    assert got.observed() == want.observed()
    n = len(scripts[0]) + len(scripts[1])
    assert len(got.delivered) + len(got.errors) >= n
    # every record is retired, and nothing of it is left on the calendar
    assert not any(nic._arqs for nic in got.nics)
    assert peek(got.env) is None and got.env.now <= want.env.now


# ---------------------------------------------------------------------------
# scripted corners, each run through the record and through the oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def first_deadline():
    """(span start, quiet ack instant, first deadline) of the 3-chunk
    message the late-ack cases send at t = 0."""
    with short_ack_timeout():
        quiet = Rig(Nic, depth=1)
        msg = quiet.send(0, 3 * MTU)
        quiet.env.run()
    (t0, t_ack, _retries, _status), = quiet.observed()["spans"]
    return t0, t_ack, msg.ack_event.due


def _late_ack(nic_cls, retries, ack_at, first_deadline):
    _t0, t_ack, _due = first_deadline
    rig = Rig(nic_cls, depth=1, retries=retries)
    rig.topo.downlinks[1].arm_chaos(LinkChaos(latency_add_ns=ack_at - t_ack))
    rig.send(0, 3 * MTU)
    rig.env.run()
    return rig


@pytest.mark.usefixtures("short_ack")
@pytest.mark.parametrize("nic_cls", [Nic, OracleNic])
def test_ack_while_reinjection_is_parked(nic_cls, first_deadline):
    """The first hop takes one copy into service and one into its queue;
    the third parks.  The ack lands while it is parked: the copies still
    go out, the span ends when the last one is admitted."""
    t0, _t_ack, due = first_deadline
    rig = _late_ack(nic_cls, 3, due + SER // 2, first_deadline)
    got = rig.observed()
    # the parked copy is admitted when the first leaves the wire
    assert got["spans"] == [(t0, due + SER, 1, "ok")]
    assert got["counters"]["nic.ack_timeouts"] == 1
    assert got["counters"]["nic.retransmits"] == 1
    assert got["counters"]["nic.dup_chunks"] == 3
    assert len(got["delivered"]) == 1 and not got["errors"]
    if nic_cls is Nic:
        # no second deadline was armed: the run ends with the last copy
        assert not rig.nics[0]._arqs and rig.env.now < due + 4 * SER + 2_000


@pytest.mark.usefixtures("short_ack")
@pytest.mark.parametrize("nic_cls", [Nic, OracleNic])
def test_exhaustion_reports_once_and_ignores_a_later_ack(nic_cls,
                                                         first_deadline):
    t0, _t_ack, due = first_deadline
    timeout_ns = due - t0
    # one retransmission allowed; the ack lands after the second deadline
    rig = _late_ack(nic_cls, 1, due + 3 * timeout_ns, first_deadline)
    got = rig.observed()
    second = due + SER + timeout_ns   # re-armed at the last admission
    assert got["errors"] == [(second, 0)]
    assert got["spans"] == [(t0, second, 1, "exhausted")]
    assert got["counters"]["nic.retry_exhausted"] == 1
    assert got["counters"]["nic.ack_timeouts"] == 2
    assert len(got["delivered"]) == 1   # ... and it was delivered, late
    assert rig.env.now > second         # the ack did land, and was ignored


@pytest.mark.usefixtures("short_ack")
@pytest.mark.parametrize("nic_cls", [Nic, OracleNic])
def test_sender_down_at_its_deadline_is_silent(nic_cls):
    """A NIC powered off mid-stage still streams the message in hand (the
    fidelity gap tests/test_fabric_nic.py pins), so its record is born
    after the crash; the only chunk is lost, and the deadline finds the
    NIC down: no retransmit, no ``on_error``, no span."""
    rig = Rig(nic_cls, pattern=(True,))
    _at(rig.env, 1_000, lambda: rig.send(0, 64))
    _at(rig.env, 1_000 + PARAMS.nic.wqe_process_ns // 2,
        rig.nics[0].power_off)
    rig.env.run()
    got = rig.observed()
    assert got["counters"]["link.drops"] == 1
    assert got["delivered"] == got["errors"] == got["spans"] == []
    assert "nic.ack_timeouts" not in got["counters"]
    assert "nic.retransmits" not in got["counters"]
    assert not rig.nics[0]._arqs


@pytest.mark.usefixtures("short_ack")
def test_drained_run_ends_at_the_last_ack():
    """An acked message leaves no deadline behind to hold the clock of an
    ``env.run()`` with no ``until`` (the monitor process's did, for one
    ``ACK_TIMEOUT_NS`` + round trip)."""
    rig = Rig(Nic)
    rig.send(0, 3 * MTU)
    rig.send(1, 64)
    rig.env.run()
    assert len(rig.acked) == 2 and not rig.errors
    assert rig.env.now == max(t for t, _tag in rig.acked)
    last_deadline = max(msg.ack_event.due for msg in rig.msgs)
    assert rig.env.now < last_deadline
    stale = Rig(OracleNic)
    stale.send(0, 3 * MTU)
    stale.send(1, 64)
    stale.env.run()
    assert stale.observed() == rig.observed()
    assert stale.env.now == last_deadline


# ---------------------------------------------------------------------------
# crash and partition against messages in flight
# ---------------------------------------------------------------------------

def _lossy_pair():
    # armed (drop_rate > 0) but never dropping: losses below are scripted
    cl = build_cluster(2, params="ib-fdr", seed=1, link__drop_rate=1e-12,
                       link__loss_mode="lossy")
    placed, errors = [], []
    msg = WireMsg(0, 1, 64, "write", inline_data=b"x" * 64,
                  place=lambda off, chunk: placed.append(cl.env.now),
                  on_error=lambda: errors.append(cl.env.now))
    return cl, msg, placed, errors


def test_power_off_drops_arq_records():
    """A NIC power-cycled inside one ack timeout must not retransmit a
    pre-crash message after the restart.  (The monitor process only looked
    at ``down`` when it woke: it retransmitted at its deadline and the
    write landed in the peer's memory at 28 442 ns.)"""
    cl, msg, placed, errors = _lossy_pair()
    env, nic = cl.env, cl[0].nic
    uplink = cl.topology.uplinks[0]
    uplink.arm_chaos(LinkChaos(up=False))     # the first copy is lost
    _at(env, 1_000, lambda: nic.transmit(msg))
    _at(env, 2_000, lambda: uplink.arm_chaos(None))
    _at(env, 4_000, nic.power_off)
    _at(env, 10_000, nic.power_on)
    env.run()
    assert cl.counters.get("link.chaos_drops") == 1
    assert cl.counters.get("nic.retransmits") == 0
    assert cl.counters.get("nic.ack_timeouts") == 0
    assert placed == [] and errors == [] and not nic._arqs
    assert env.now == 10_000                  # no deadline held the clock


def test_suppressed_transport_ack_is_never_resent():
    """DEFECT, pinned not fixed (ROADMAP item 4, fidelity gaps): a message
    delivered exactly once still fails with ``retry_exhausted`` when its
    transport ack was suppressed by a partition shorter than the retry
    budget.  ``_transport_ack_fire`` stays silent while the endpoints are
    unreachable, and ``_ingress`` drops the retransmitted copies of a
    delivered message as duplicates without acking again.  The fix (re-arm
    the ack on a duplicate last chunk) can move R19 / R21 and belongs in a
    correctness change with its own re-baseline."""
    quiet, msg, placed, _errors = _lossy_pair()
    quiet[0].nic.transmit(msg)
    quiet.env.run()
    (t_in,) = placed                              # the last chunk's ingress
    cl, msg, placed, errors = _lossy_pair()
    env, topo = cl.env, cl.topology
    cl[0].nic.transmit(msg)
    # cut between that ingress and the ack instant, for 30 us: shorter
    # than the four ack timeouts of the retry budget
    _at(env, t_in + 1, lambda: topo.partition([0], [1]))
    _at(env, t_in + 30_000, topo.heal)
    env.run()
    assert placed == [t_in]                       # delivered exactly once
    assert cl.counters.get("nic.rx_msgs") == 1
    assert cl.counters.get("nic.retransmits") == 3
    assert cl.counters.get("fabric.partition_drops") == 1   # first copy
    assert cl.counters.get("nic.dup_chunks") == 2           # the other two
    assert cl.counters.get("nic.retry_exhausted") == 1
    assert len(errors) == 1
