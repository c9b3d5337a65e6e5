"""The NIC's doorbell and delivery stage against their executable reference.

``Nic`` hands a post to a parked engine at the post, dated a doorbell
later, and runs its delivery stage as a schedule (a timer per hooked
message, none for a plain write); ``tests/nic_oracle.OracleNic`` rings a
timer per doorbell and runs the stage as a loop.  Generated scripts — posts,
direct transmits and responses of 1–3-chunk messages between two ranks,
with and without ``on_delivered`` hooks and acks, and power cycles of
either NIC one nanosecond before, at and after a doorbell, a last chunk's
ingress or a delivery's dequeue — must give the same delivery, ack and
injection instants, ``nic.*`` counter totals and drops on both.

Every scripted action is a timer armed before the run starts, so it comes
first in its nanosecond — as the chaos controller's crash does.  The one
tie set aside is named in ``tests/nic_oracle.py``.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import assume, example, given, settings, strategies as st

from repro.fabric import IB_FDR, Memory, Nic, Star, WireMsg
from repro.sim import Counters, Environment
from tests.nic_oracle import OracleNic

MTU = 256
PARAMS = IB_FDR.with_overrides(link__mtu=MTU)
DOORBELL = PARAMS.nic.doorbell_ns
DELIVERY = PARAMS.nic.delivery_ns


class Rig:
    """Two ranks on a clean Star; every message is tagged, and its
    delivery and RC ack are logged with their instants."""

    def __init__(self, nic_cls):
        self.env = env = Environment()
        self.counters = Counters()
        topo = Star(env, 2, PARAMS.link, self.counters)
        mems = [Memory(1 << 16, PARAMS.host, rank=r) for r in range(2)]
        self.nics = [nic_cls(env, r, PARAMS, mems[r], topo, self.counters)
                     for r in range(2)]
        self.msgs, self.delivered, self.acked = [], [], []
        #: (rank, instant) -> streams started: engine and responder of one
        #: NIC starting in one nanosecond is the named tie
        self.streams: Counter = Counter()
        #: instants a power cycle is anchored to
        self.ingress, self.doorbells = [], []
        for nic in self.nics:
            self._watch(nic)

    def _watch(self, nic):
        stream, deliver = nic._stream, nic._deliver

        def watched_stream(msg):
            self.streams[nic.rank, self.env.now] += 1
            return stream(msg)

        def watched_deliver(msg):
            self.ingress.append(self.env.now)
            deliver(msg)

        nic._stream, nic._deliver = watched_stream, watched_deliver

    def message(self, how, src, chunks, hook, ack):
        tag, env = len(self.msgs), self.env
        nbytes = chunks * MTU - 7 * (tag % 3)
        log = lambda into: lambda *_a: into.append((env.now, tag))
        msg = WireMsg(src, 1 - src, nbytes, "write", meta={"tag": tag},
                      fetch=lambda off, size: bytes(size),
                      place=lambda off, data: None, ack=ack,
                      on_delivered=log(self.delivered) if hook else None,
                      on_acked=log(self.acked))
        self.msgs.append(msg)
        nic = self.nics[src]
        if how == "post":
            self.doorbells.append(env.now + DOORBELL)
            nic.transmit(msg, DOORBELL)
        else:
            getattr(nic, how)(msg)

    def anchors(self):
        return {"doorbell": self.doorbells, "ingress": self.ingress,
                "dequeue": [m.t_delivered - DELIVERY for m in self.msgs
                            if m.t_delivered >= 0]}

    @property
    def tied(self) -> bool:
        return max(self.streams.values(), default=0) > 1

    def observed(self):
        return {"delivered": sorted(self.delivered),
                "acked": sorted(self.acked),
                "injected": [m.t_injected for m in self.msgs],
                "stamped": [m.t_delivered for m in self.msgs],
                "counters": {k: v for k, v in
                             sorted(self.counters.snapshot().items())
                             if k.startswith("nic.") and v}}


def _play(nic_cls, msgs, powers=(), anchors=None):
    """Arm every action as a timer before the run, then run to the end."""
    rig = Rig(nic_cls)
    actions, at = [], 0
    for how, src, chunks, hook, ack, gap in msgs:
        at += gap
        actions.append((at, lambda a=(how, src, chunks, hook, ack):
                        rig.message(*a)))
    for kind, k, offset, rank, dark_ns in powers:
        instants = anchors[kind]
        if not instants:
            continue
        off = max(0, instants[k % len(instants)] + offset)
        nic = rig.nics[rank]
        actions += [(off, nic.power_off), (off + dark_ns, nic.power_on)]
    for at, action in sorted(actions, key=lambda a: a[0]):
        rig.env.timeout(at).callbacks.append(lambda _ev, f=action: f())
    rig.env.run()
    return rig


def _compare(msgs, powers):
    quiet = _play(OracleNic, msgs)
    want = _play(OracleNic, msgs, powers, quiet.anchors())
    got = _play(Nic, msgs, powers, quiet.anchors())
    assume(not (want.tied or got.tied))
    assert got.observed() == want.observed()
    assert got.env.peek() is None
    assert not any(nic._rx for nic in got.nics if nic.down)


# gaps: one nanosecond apart, inside a doorbell / WQE / delivery stage,
# long enough to go idle
GAP = st.one_of(st.sampled_from((0, 1, DOORBELL, DELIVERY, 5_000)),
                st.integers(min_value=0, max_value=600))
MSG = st.tuples(st.sampled_from(("post", "post", "transmit", "respond")),
                st.integers(0, 1), st.integers(1, 3), st.booleans(),
                st.booleans(), GAP)
POWER = st.tuples(st.sampled_from(("doorbell", "ingress", "dequeue")),
                  st.integers(0, 9), st.sampled_from((-1, 0, 1)),
                  st.integers(0, 1),
                  st.one_of(st.just(1), st.integers(1, 3_000)))


@settings(max_examples=300, deadline=None)
@given(msgs=st.lists(MSG, min_size=1, max_size=8),
       powers=st.lists(POWER, max_size=2))
# the send side powered off before a dated hand-off's doorbell, and on
# again after it: the message is dropped at the doorbell
@example(msgs=[("post", 0, 1, True, True, 0)],
         powers=[("doorbell", 0, -1, 0, 3_000)])
# ... and powered off in the doorbell's nanosecond: dropped all the same
@example(msgs=[("post", 0, 1, True, True, 0)],
         powers=[("doorbell", 0, 0, 0, 3_000)])
# a direct transmit (a heartbeat) before a dated hand-off's doorbell goes
# first
@example(msgs=[("post", 0, 1, True, True, 0),
               ("transmit", 0, 1, True, True, 100)], powers=[])
# ... and the hand-off it turns back into a doorbell still rings before a
# doorbell posted after it in the same nanosecond
@example(msgs=[("post", 0, 1, False, False, 0),
               ("post", 0, 1, False, False, 0),
               ("transmit", 0, 1, False, False, 0)], powers=[])
# a post while the engine is busy rings a doorbell; the engine parks
# before it rings; the next post must not overtake it
@example(msgs=[("transmit", 0, 3, True, True, 0),
               ("post", 0, 1, True, True, 200),
               ("post", 0, 1, True, True, 100)], powers=[])
# a write queued behind another at the receiver, powered off one
# nanosecond after its dequeue: it finishes its stage
@example(msgs=[("transmit", 0, 1, False, True, 0),
               ("respond", 0, 1, False, True, 1)],
         powers=[("dequeue", 1, 1, 1, 1)])
# powered off in the nanosecond a queued delivery is dequeued: it is
# withdrawn, a plain write's stamp and ack with it
@example(msgs=[("transmit", 0, 1, False, True, 0),
               ("respond", 0, 1, False, True, 1)],
         powers=[("dequeue", 1, 0, 1, 3_000)])
# a plain write's ack, one return latency after its delivery instant
@example(msgs=[("transmit", 0, 1, False, True, 0)], powers=[])
# the named tie, set aside: the engine's dated hand-off and a response wake
# the NIC's two loops in one nanosecond, and stream in the other order
@example(msgs=[("post", 0, 2, True, True, 0),
               ("respond", 0, 3, False, True, DOORBELL)], powers=[])
def test_doorbell_and_delivery_stage_match_the_timer_and_loop(msgs, powers):
    _compare(msgs, powers)


def test_the_named_tie_is_one():
    """The example set aside above is a real tie: the two loops stream in
    opposite orders on the two sides, so instants differ; counts agree."""
    msgs = [("post", 0, 2, True, True, 0),
            ("respond", 0, 3, False, True, DOORBELL)]
    want, got = _play(OracleNic, msgs), _play(Nic, msgs)
    assert want.tied and got.tied
    assert got.observed() != want.observed()
    assert got.observed()["counters"] == want.observed()["counters"]
