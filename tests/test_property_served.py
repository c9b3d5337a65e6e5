"""Served links booked, against the two-timer machine they replaced.

An incast — three uplinks into one downlink — where any link may carry a
drop stream (lossy or reliable), chaos is armed and cleared on either hop
(a slower wire with added latency, jitter, a dark link) and a harness
changes the fabric's drop rate mid-stream.  Raw producers block or fire and
forget on the uplinks; rank 0's NIC streams messages into uplink 0 from its
engine and its responder.  :class:`~repro.fabric.link.Link` books every
such chunk when it is admitted; ``tests/link_oracle.ServedLink`` serves it
with two timers per chunk-hop, reading chaos and drawing drops where its
service starts.  The two must agree on every delivery and admission to the
nanosecond, on tallies, ``link.*`` counters and the draws each link took.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from repro.fabric import IB_FDR, Memory, Nic, WireMsg
from repro.fabric.link import Chunk, Link, LinkChaos
from repro.fabric.params import LinkParams
from repro.sim.core import Environment
from repro.sim.trace import Counters
from tests.link_oracle import ServedLink
from tests.test_fabric_link import _at, _Incast, _Wires


class CountingRng:
    """A drop stream that counts the draws taken from it."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self._gen.random()


class TensJitter:
    """A jitter stream drawing multiples of 10 ns (see below)."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self.bit_generator = self._gen.bit_generator

    def integers(self, low: int, high: int) -> int:
        return 10 * int(self._gen.integers(low // 10, high // 10))


#: every duration is a multiple of 10 ns — gaps, wire bytes at 1 B/ns, DMA
#: fetches of multiples of 100 B at 10 B/ns, the NIC's stage costs,
#: retransmission, chaos's added latency and jitter — and the uplinks'
#: latencies are 500 / 503 / 506 ns: no two uplinks deliver to the downlink
#: in one nanosecond, and chaos and rate changes, at instants ending in 5,
#: never share one with a link.  Served, the order of same-nanosecond
#: arrivals is the order the delivery timers were armed (at the wire's
#: end); booked, it is the order of admission.
TENS = st.integers(min_value=0, max_value=600).map(lambda n: 10 * n)
PUTS = st.lists(st.tuples(TENS, st.sampled_from((60, 700, 1000, 4120))),
                max_size=10)
#: (gap, nbytes, responder?) script of rank 0's NIC: 1 to 5 chunks
SENDS = st.lists(st.tuples(TENS, st.integers(min_value=1, max_value=50).map(
    lambda n: 100 * n), st.booleans()), max_size=6)
NIC_PARAMS = IB_FDR.with_overrides(link__bandwidth_gbps=8.0, link__mtu=1000,
                                   nic__dma_gbps=80.0)
#: per link: None (clean) or (loss mode, drop rate)
DROPS = st.one_of(st.none(), st.tuples(st.sampled_from(("lossy", "reliable")),
                                       st.sampled_from((0.2, 0.5))))
FIVES = st.integers(min_value=0, max_value=3_000).map(lambda n: 10 * n + 5)
#: (instant, hop: 0-2 an uplink / 3 the downlink, state)
CHAOS = st.lists(st.tuples(FIVES, st.integers(min_value=0, max_value=3),
                           st.sampled_from(("dark", "slow", "jitter",
                                            "clear"))),
                 max_size=4)
#: (instant, new drop rate) for the whole fabric
RATES = st.lists(st.tuples(FIVES, st.sampled_from((0.0, 0.2, 0.6))),
                 max_size=2)


def _state(name: str, hop: int, n: int):
    if name == "dark":
        return LinkChaos(up=False)
    if name == "slow":
        return LinkChaos(bw_scale=0.5, latency_add_ns=30)
    if name == "jitter":
        return LinkChaos(latency_add_ns=10, jitter_ns=400,
                         rng=TensJitter(100 * hop + n))
    return None


def _drive(link_cls, depth, drops, puts, sends, chaos, rates):
    env = Environment()
    counters = Counters()
    links, rngs = [], []
    for i, drop in enumerate(drops):
        mode, rate = drop or ("reliable", 0.0)
        params = LinkParams(bandwidth_gbps=8.0, latency_ns=(500, 503, 506,
                                                            150)[i],
                            mtu=4096, drop_rate=rate,
                            loss_mode=mode, retransmit_ns=700)
        rng = CountingRng(i) if drop else None
        rngs.append(rng)
        links.append(link_cls(env, params, "down" if i == 3 else f"up{i}",
                              counters=counters, queue_depth=depth, rng=rng))
    ups, down = links[:3], links[3]
    delivered, admitted = [], []
    down.sink = lambda c: delivered.append(
        (env.now, c.offset if c.msg is None else (c.msg.meta["tag"], c.offset)))

    def producer(up, script, tag, blocking):
        for n, (gap, wire) in enumerate(script):
            yield env.timeout(gap)
            chunk = Chunk(msg=None, offset=tag + 2 * n, size=wire - 30,
                          wire_bytes=wire, is_first=True, is_last=True,
                          path=[ups[up], down])
            if blocking:
                yield ups[up].inbox.put(chunk)
                admitted.append((env.now, tag + 2 * n))
            else:
                ups[up].inbox.put_discard(chunk)

    for up, (blocking, forgetting) in enumerate(puts, start=3 - len(puts)):
        env.process(producer(up, blocking, 10_000 * up, True))
        env.process(producer(up, forgetting, 10_000 * up + 1, False))
    offers = {}
    if sends:
        nic = Nic(env, 0, NIC_PARAMS, Memory(1 << 16, NIC_PARAMS.host),
                  _Incast(ups, down), counters)

        def sender():
            for tag, (gap, nbytes, respond) in enumerate(sends):
                yield env.timeout(gap)
                msg = WireMsg(0, 3, nbytes, "write",
                              meta={"tag": tag, "respond": respond},
                              fetch=lambda off, size: bytes(size))
                (nic.respond if respond else nic.transmit)(msg)

        inner = ups[0].try_put

        def offered(chunk, _head=False):
            if not _head:
                offers.setdefault(env.now, set()).add(
                    chunk.msg.meta["respond"])
            return inner(chunk, _head)

        ups[0].try_put = offered
        env.process(sender())
    for n, (at, hop, name) in enumerate(chaos):
        _at(env, at, lambda hop=hop, name=name, n=n:
            links[hop].arm_chaos(_state(name, hop, n)))
    fabric = _Wires(env, links)
    for at, rate in rates:
        _at(env, at, lambda rate=rate: fabric.set_drop_rate(rate))
    env.run()
    snap = counters.snapshot()
    contended = any(len(loops) > 1 for loops in offers.values())
    return env.events_processed, contended, {
        "delivered": delivered, "admitted": sorted(admitted),
        "tallies": [(lk._busy_ns, lk._chunks, lk._bytes, lk._drops)
                    for lk in links],
        "counters": {k: v for k, v in sorted(snap.items())
                     if k.startswith(("link.", "nic.")) and v},
        "draws": [rng and rng.calls - len(getattr(lk, "_spare", ()))
                  for lk, rng in zip(links, rngs)]}


@settings(max_examples=300, deadline=None)
@given(depth=st.integers(min_value=1, max_value=6),
       drops=st.tuples(DROPS, DROPS, DROPS, DROPS),
       puts=st.tuples(st.tuples(PUTS, PUTS), st.tuples(PUTS, PUTS)),
       sends=SENDS, chaos=CHAOS, rates=RATES)
# a rate change withdraws the downlink's booking ahead and hands its draw
# back: booked again at rate 0 it draws nothing, as the served chunk would
@example(depth=1, drops=(None, None, None, ("lossy", 0.2)),
         puts=(([], []), ([], [(0, 60)])), sends=[], chaos=[],
         rates=[(5, 0.0)])
# the hop before goes dark: the downlink's booking is withdrawn, and its
# draw goes back to the downlink's position, not with the swallowed chunk
@example(depth=1, drops=(None, None, None, ("lossy", 0.2)),
         puts=(([], []), ([], [(0, 60)])), sends=[], chaos=[(5, 2, "dark")],
         rates=[])
# a reliable drop holds the wire for a retry retransmit_ns later
@example(depth=1, drops=(None, None, None, ("reliable", 0.2)),
         puts=(([], []), ([], [(0, 60)])), sends=[], chaos=[], rates=[])
# a jitter draw withdrawn with its booking rewinds the chaos stream
@example(depth=1, drops=(None, None, None, ("lossy", 0.2)),
         puts=(([], []), ([], [(0, 60), (0, 60), (0, 60), (0, 60),
                                (760, 4120)])),
         sends=[(290, 700, False), (1160, 100, False), (20, 100, False),
                (0, 2700, False), (4110, 4000, False)],
         chaos=[(105, 0, "slow"), (455, 3, "jitter")], rates=[(12775, 0.2)])
def test_booked_served_links_match_the_two_timer_machine(
        depth, drops, puts, sends, chaos, rates):
    _, _, got = _drive(Link, depth, drops, puts, sends, chaos, rates)
    _, contended, want = _drive(ServedLink, depth, drops, puts, sends, chaos,
                                rates)
    # the named tie of the NIC's two loops (tests/test_fabric_link.py)
    assume(not contended)
    assert got == want
