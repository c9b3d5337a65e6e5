"""Link-level accounting under faults.

Pins the occupancy/byte bookkeeping of a lossy :class:`Link`:
``_busy_ns`` must grow by one serialisation per *attempt* (failed or
not), ``link.bytes`` must stay goodput-only with wasted attempts tallied
under ``link.retrans_bytes`` / ``link.lost_bytes``, and recovery delay
must land deliveries at the exact modelled instant.  A scripted RNG makes
the drop sequence deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.fabric import IB_FDR, Memory, Nic, WireMsg
from repro.fabric.link import Chunk, Link, LinkChaos, RETRANSMIT_NS
from repro.fabric.params import LinkParams
from repro.fabric.topology import Topology
from repro.sim.core import Environment
from repro.sim.trace import Counters
from repro.util.units import serialization_ns
from tests.link_oracle import OracleLink, ServedLink, UnbookedLink


class ScriptedRng:
    """random() returns the scripted values in order (then 1.0 = no drop)."""

    def __init__(self, values):
        self._values = list(values)

    def random(self) -> float:
        return self._values.pop(0) if self._values else 1.0


def _mk_link(env, counters, rng, drop_rate=0.5, loss_mode="reliable",
             latency_ns=500, bandwidth_gbps=8.0):
    params = LinkParams(bandwidth_gbps=bandwidth_gbps, latency_ns=latency_ns,
                        mtu=4096, drop_rate=drop_rate, loss_mode=loss_mode)
    link = Link(env, params, "uut", counters=counters, rng=rng)
    delivered = []
    link.sink = lambda chunk: delivered.append((env.now, chunk))
    return link, delivered


def _chunk(link, wire_bytes=1000):
    return Chunk(msg=None, offset=0, size=wire_bytes - 30,
                 wire_bytes=wire_bytes, is_first=True, is_last=True,
                 path=[link])


def test_reliable_retransmit_accounting():
    env = Environment()
    counters = Counters()
    # chunk 1: clean (0.9 >= rate); chunk 2: two drops, then through
    rng = ScriptedRng([0.9, 0.1, 0.2, 0.9])
    link, delivered = _mk_link(env, counters, rng)
    wire = 1000
    ser = serialization_ns(wire, 8.0)

    c1, c2 = _chunk(link, wire), _chunk(link, wire)
    link.inbox.put_discard(c1)
    link.inbox.put_discard(c2)
    env.run(until=10_000_000)

    assert [c for _, c in delivered] == [c1, c2]
    # every attempt occupies the wire: 1 (c1) + 2 failed + 1 good (c2)
    assert link.occupancy_ns() == 4 * ser
    # goodput-only bytes; wasted attempts tallied separately
    assert link._bytes == 2 * wire
    snap = dict(counters.values)
    assert snap["link.bytes"] == 2 * wire
    assert snap["link.retrans_bytes"] == 2 * wire
    assert snap["link.drops"] == 2
    assert snap["link.chunks"] == 2
    assert link._drops == 2
    assert "link.lost_bytes" not in snap
    # delivery instants: c1 = ser + latency; c2 starts at ser (queued
    # behind c1), pays two recovery rounds of (ser + RETRANSMIT_NS),
    # then its final serialisation and the propagation latency
    assert delivered[0][0] == ser + 500
    assert delivered[1][0] == ser + 2 * (ser + RETRANSMIT_NS) + ser + 500


def test_reliable_clean_path_accounting():
    env = Environment()
    counters = Counters()
    link, delivered = _mk_link(env, counters, ScriptedRng([0.9, 0.9]))
    wire = 1000
    ser = serialization_ns(wire, 8.0)
    for _ in range(2):
        link.inbox.put_discard(_chunk(link, wire))
    env.run(until=1_000_000)
    assert len(delivered) == 2
    assert link.occupancy_ns() == 2 * ser
    snap = dict(counters.values)
    assert snap["link.bytes"] == 2 * wire
    assert "link.retrans_bytes" not in snap
    assert "link.drops" not in snap


def test_lossy_drop_accounting():
    env = Environment()
    counters = Counters()
    # chunk 1 dropped, chunk 2 through
    rng = ScriptedRng([0.1, 0.9])
    link, delivered = _mk_link(env, counters, rng, loss_mode="lossy")
    wire = 1000
    ser = serialization_ns(wire, 8.0)
    c1, c2 = _chunk(link, wire), _chunk(link, wire)
    link.inbox.put_discard(c1)
    link.inbox.put_discard(c2)
    env.run(until=1_000_000)

    # the lost chunk vanishes but still occupied the wire for one
    # serialisation; only the survivor counts toward goodput
    assert [c for _, c in delivered] == [c2]
    assert link.occupancy_ns() == 2 * ser
    assert link._bytes == wire
    snap = dict(counters.values)
    assert snap["link.bytes"] == wire
    assert snap["link.lost_bytes"] == wire
    assert snap["link.drops"] == 1
    assert snap["link.chunks"] == 1
    assert delivered[0][0] == 2 * ser + 500


# ---------------------------------------------------------------------------
# served chunks across three transitions: chaos armed on a clean link
# mid-burst, chaos armed on a drop-rate link, a drop-rate link healed
# mid-run.  The expected values were captured from the two-server-process
# implementation and must never move; only the ``events`` totals follow
# the kernel events the link spends (now one timer per delivered chunk-path
# where it books), and one named tie (below) moved the reliable tail.
# ---------------------------------------------------------------------------

class CyclicRng:
    """random() cycles a fixed pattern — a deterministic ~25% drop stream."""

    PATTERN = (0.9, 0.05, 0.7, 0.6, 0.02, 0.8, 0.95, 0.3)

    def __init__(self):
        self._i = 0

    def random(self) -> float:
        v = self.PATTERN[self._i % len(self.PATTERN)]
        self._i += 1
        return v


def _two_hop(rng=None, link_cls=Link, **link_kw):
    """hop0 (the link under test) -> hop1 (clean) -> sink."""
    env = Environment()
    counters = Counters()
    params = LinkParams(bandwidth_gbps=8.0, latency_ns=500, mtu=4096,
                        **link_kw)
    hop0 = link_cls(env, params, "hop0", counters=counters, rng=rng,
                    queue_depth=4)
    hop1 = link_cls(env, LinkParams(bandwidth_gbps=8.0, latency_ns=500,
                                    mtu=4096), "hop1", counters=Counters())
    delivered = []
    hop1.sink = lambda chunk: delivered.append((env.now, chunk.offset))
    return env, counters, hop0, hop1, delivered


def _feed(env, hop0, hop1, script):
    """``script`` is [(instant, n_chunks | callable)]: blocking puts of
    chunks tagged by ``offset`` (so the bounded inbox backpressures), or a
    zero-time action such as arming chaos."""
    def feeder():
        tag = 0
        for at, what in script:
            if at > env.now:
                yield env.timeout(at - env.now)
            if callable(what):
                what()
                continue
            for _ in range(what):
                wire = 700 + 90 * (tag % 5)
                yield hop0.inbox.put(Chunk(
                    msg=None, offset=tag, size=wire - 30, wire_bytes=wire,
                    is_first=True, is_last=True, path=[hop0, hop1]))
                tag += 1

    env.process(feeder(), name="feeder")
    env.run(until=5_000_000)


def _observed(env, counters, hop0, delivered):
    snap = dict(counters.values)
    return {
        "delivered": delivered,
        "busy_ns": hop0._busy_ns,
        "events": env.events_processed,
        "link": (hop0._chunks, hop0._bytes, hop0._drops),
        "counters": {k: snap[k] for k in sorted(snap)
                     if k.startswith("link.")},
    }


EXPECT_CHAOS_ON_CLEAN = {'busy_ns': 21640,
 'counters': {'link.bytes': 18300, 'link.chaos_drops': 8, 'link.chunks': 21},
 'delivered': [(2400, 0), (3280, 1), (4250, 2), (5310, 3), (6460, 4),
               (7160, 5), (7950, 6), (8830, 7), (9800, 8), (10860, 9),
               (11900, 10), (13570, 11), (15420, 12), (17450, 13),
               (33120, 19), (33820, 20), (43120, 24), (43820, 25)],
 # every chunk on hop0 is booked on hop1
 'events': 74,
 'link': (21, 18300, 8)}

EXPECT_CHAOS_ON_LOSSY = {'busy_ns': 30460,
 'counters': {'link.bytes': 10110,
              'link.chaos_drops': 7,
              'link.chunks': 12,
              'link.drops': 4,
              'link.lost_bytes': 3970},
 'delivered': [(2400, 0), (4250, 2), (5610, 3), (12380, 5), (15630, 6),
               (19240, 7), (23210, 8), (42760, 17), (43820, 18), (45310, 20),
               (46190, 21), (47160, 22)],
 'events': 56,
 'link': (12, 10110, 11)}

#: the named tie: the two-timer machine took a zero-delay turn per chunk a
#: dark link with a drop stream swallowed, and the clear at 50 700 ns (the
#: feeder is parked until then) came after three turns, so chunks 13-16
#: were served; booked, the queue is swallowed in its nanosecond at once
#: (test_a_dark_link_swallows_its_queue_in_one_nanosecond)
EXPECT_CHAOS_ON_RELIABLE = {'busy_ns': 41560,
 'counters': {'link.bytes': 14080,
              'link.chaos_drops': 7,
              'link.chunks': 16,
              'link.drops': 6,
              'link.retrans_bytes': 5280},
 'delivered': [(2400, 0), (8070, 1), (9040, 2), (15370, 3), (19700, 4),
               (22140, 5), (25390, 6), (36520, 7), (40490, 8), (52760, 9),
               (53640, 17), (54610, 18), (55670, 19), (60710, 20),
               (61590, 21), (67440, 22)],
 'events': 66,
 'link': (16, 14080, 13)}

EXPECT_HEALED = {'busy_ns': 20940,
 'counters': {'link.bytes': 19090,
              'link.chunks': 22,
              'link.drops': 2,
              'link.lost_bytes': 1850},
 'delivered': [(2400, 0), (4250, 2), (5310, 3), (6800, 5), (7680, 6),
               (8650, 7), (9710, 8), (10860, 9), (11560, 10), (12350, 11),
               (13230, 12), (14200, 13), (15260, 14), (15960, 15),
               (16750, 16), (17630, 17), (18600, 18), (19660, 19),
               (20360, 20), (21150, 21), (22030, 22), (23000, 23)],
 'events': 68,
 'link': (22, 19090, 2)}


def test_chaos_armed_mid_burst_on_clean_link():
    env, counters, hop0, hop1, delivered = _two_hop()
    _feed(env, hop0, hop1, [
        (0, 10),                       # > queue depth: burst + backpressure
        (3_000, lambda: hop0.arm_chaos(LinkChaos(bw_scale=0.5))),
        (3_000, 6),
        (14_000, lambda: hop0.arm_chaos(LinkChaos(up=False))),
        (14_000, 3),
        (30_000, lambda: hop0.arm_chaos(None)),
        (30_000, 5),
        # dark again with a committed burst still on the wire: the
        # delivery callback must drop what was already scheduled
        (32_500, lambda: hop0.arm_chaos(LinkChaos(up=False))),
        (40_000, lambda: hop0.arm_chaos(None)),
        (40_000, 2),
    ])
    assert _observed(env, counters, hop0, delivered) == EXPECT_CHAOS_ON_CLEAN


def _chaos_on_drop_rate_link(mode, link_cls=Link):
    env, counters, hop0, hop1, delivered = _two_hop(
        rng=CyclicRng(), drop_rate=0.25, loss_mode=mode, link_cls=link_cls)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.fabric.link.RETRANSMIT_NS", 4_000)
        _feed(env, hop0, hop1, [
            (0, 8),
            (2_500, lambda: hop0.arm_chaos(
                LinkChaos(bw_scale=0.25, latency_add_ns=300))),
            (2_500, 6),
            (20_000, lambda: hop0.arm_chaos(LinkChaos(up=False))),
            (20_000, 3),
            (40_000, lambda: hop0.arm_chaos(None)),
            (40_000, 6),
        ])
        return _observed(env, counters, hop0, delivered)


def test_chaos_armed_on_drop_rate_link():
    for mode, expect in (("lossy", EXPECT_CHAOS_ON_LOSSY),
                         ("reliable", EXPECT_CHAOS_ON_RELIABLE)):
        assert _chaos_on_drop_rate_link(mode) == expect, mode


def test_a_dark_link_swallows_its_queue_in_one_nanosecond():
    """The named tie against the two-timer machine: identical up to the
    nanosecond the parked feeder clears chaos, after the old machine's
    third zero-delay turn."""
    got = _chaos_on_drop_rate_link("reliable")
    want = _chaos_on_drop_rate_link("reliable", ServedLink)
    assert got["delivered"][:10] == want["delivered"][:10]
    assert [tag for _, tag in want["delivered"][10:14]] == [13, 14, 15, 16]
    assert all(tag >= 17 for _, tag in got["delivered"][10:])
    assert got["counters"]["link.chaos_drops"] == 7
    assert want["counters"]["link.chaos_drops"] == 3


class _Wires(Topology):
    """The fabric of a test's hand-built links."""

    def __init__(self, env, links):
        super().__init__(env, 1, links[0].params, Counters())
        self.links = links

    def iter_links(self):
        return self.links


def test_drop_rate_link_healed_mid_run():
    env, counters, hop0, hop1, delivered = _two_hop(
        rng=CyclicRng(), drop_rate=0.25, loss_mode="lossy")
    _feed(env, hop0, hop1, [
        (0, 12),
        (6_000, lambda: _Wires(env, [hop0, hop1]).set_drop_rate(0.0)),
        (6_000, 12),
    ])
    # healed: no draws, no drops after 6 us — but still one chunk per
    # serialisation event (the RNG-armed link never burst-drains)
    assert _observed(env, counters, hop0, delivered) == EXPECT_HEALED


# ---------------------------------------------------------------------------
# the scheduled state against its executable reference: a clean link
# computes what tests/link_oracle.OracleLink (bounded Store, one chunk per
# serialisation sleep) runs.  Two producers share hop 0 — one blocks on
# every put, one fires and forgets — over two hops.
# ---------------------------------------------------------------------------

SIZES = (64, 700, 1000, 4126)        # wire bytes; 1000 B = exactly 1000 ns
SER = serialization_ns(1000, 8.0)
# gaps: none, sub-serialisation, exact multiples of one serialisation (an
# arrival on the nanosecond a slot frees), and long enough to go idle
GAPS = st.one_of(st.sampled_from((0, 0, 1, SER - 1, SER, SER + 1, 2 * SER,
                                  3 * SER, 16 * SER)),
                 st.integers(min_value=0, max_value=6_000))
ARRIVALS = st.lists(st.tuples(GAPS, st.sampled_from(SIZES)), max_size=40)


def _drive_pair(link_cls, depth, blocking, forgetting):
    env = Environment()
    counters = Counters()
    params = LinkParams(bandwidth_gbps=8.0, latency_ns=500, mtu=4096)
    hops = [link_cls(env, params, f"hop{i}", counters=counters,
                     queue_depth=depth) for i in range(2)]
    delivered, admitted = [], []
    hops[1].sink = lambda chunk: delivered.append((env.now, chunk.offset))

    def chunk(tag, wire):
        return Chunk(msg=None, offset=tag, size=wire - 30, wire_bytes=wire,
                     is_first=True, is_last=True, path=hops)

    def blocker():
        for i, (gap, wire) in enumerate(blocking):
            yield env.timeout(gap)
            yield hops[0].inbox.put(chunk(2 * i, wire))
            admitted.append((env.now, 2 * i))

    def forgetter():
        for i, (gap, wire) in enumerate(forgetting):
            yield env.timeout(gap)
            hops[0].inbox.put_discard(chunk(2 * i + 1, wire))

    env.process(blocker(), name="blocker")
    env.process(forgetter(), name="forgetter")
    env.run()
    snap = dict(counters.values)
    return {"delivered": delivered, "admitted": admitted,
            "tallies": [(h._busy_ns, h._chunks, h._bytes) for h in hops],
            "counters": {k: v for k, v in snap.items()
                         if k.startswith("link.")}}


@settings(max_examples=120, deadline=None)
@given(depth=st.integers(min_value=1, max_value=16),
       blocking=ARRIVALS, forgetting=ARRIVALS)
# a forgotten chunk parks on the nanosecond a slot frees, ahead of the wake
# timer: the parked head must still wait for the timer, or the blocking
# producer re-queues one place early
@example(depth=1, blocking=[(0, 64)] * 13,
         forgetting=[(0, 64)] * 5 + [(0, 700)] * 6 + [
             (0, 1000), (999, 4126), (1001, 64), (1001, 1000), (2000, 64),
             (2000, 700), (2000, 4126), (666, 4126), (4763, 64), (6000, 64),
             (0, 64), (0, 64)])
def test_scheduled_link_matches_one_at_a_time_server(depth, blocking,
                                                     forgetting):
    got = _drive_pair(Link, depth, blocking, forgetting)
    assert got == _drive_pair(OracleLink, depth, blocking, forgetting)
    assert len(got["delivered"]) == len(blocking) + len(forgetting)


def test_scheduled_chunk_costs_one_event():
    env = Environment()
    link, delivered = _mk_link(env, Counters(), rng=None, drop_rate=0.0)
    link.inbox.put_discard(_chunk(link))
    env.run()
    assert env.events_processed == 1     # the delivery timer, nothing else
    assert len(delivered) == 1


def test_occupancy_counts_no_future_serialisation():
    env = Environment()
    link, delivered = _mk_link(env, Counters(), rng=None, drop_rate=0.0)
    ser = serialization_ns(1000, 8.0)
    for _ in range(16):
        link.inbox.put_discard(_chunk(link))
    env.run(until=8 * ser)               # the midpoint of the burst
    assert link.occupancy_ns() == link.stats()["busy_ns"] == 8 * ser
    assert link.occupancy_ns() <= env.now
    env.run(until=8 * ser + ser // 2)    # ... and mid-chunk
    assert link.occupancy_ns() == env.now
    env.run()
    assert link.occupancy_ns() == link.stats()["busy_ns"] == 16 * ser
    assert len(delivered) == 16


def test_occupancy_counts_no_booking_ahead_of_the_clock():
    env = Environment()
    params = LinkParams(bandwidth_gbps=8.0, latency_ns=500, mtu=4096)
    hops = [Link(env, params, f"hop{i}") for i in range(2)]
    hops[1].sink = lambda chunk: None
    hops[0].inbox.put_discard(Chunk(None, 0, 970, 1000, True, True, hops))
    env.run(until=1_200)    # booked on hop1 for 1 500, not there yet
    assert hops[1].stats()["chunks"] == 0
    assert hops[1].occupancy_ns() == 0
    env.run(until=2_000)    # mid-serialisation on hop1
    assert hops[1].occupancy_ns() == 500
    env.run()
    assert hops[1].stats()["chunks"] == 1 and hops[1].occupancy_ns() == 1_000


def test_served_occupancy_counts_no_future_serialisation():
    env = Environment()
    link, _ = _mk_link(env, Counters(), ScriptedRng([]), loss_mode="lossy")
    ser = serialization_ns(1000, 8.0)
    for _ in range(4):
        link.inbox.put_discard(_chunk(link))
    env.run(until=2 * ser + ser // 2)
    assert link.occupancy_ns() == env.now
    env.run()
    assert link.occupancy_ns() == 4 * ser


# ---------------------------------------------------------------------------
# the two state changes
# ---------------------------------------------------------------------------

def _clean_link():
    env = Environment()
    counters = Counters()
    link, delivered = _mk_link(env, counters, rng=None, drop_rate=0.0)
    return env, counters, link, delivered


def _at(env, instant, action):
    env.timeout(instant - env.now).callbacks.append(lambda _ev: action())


def test_chaos_armed_over_scheduled_chunks_does_not_reserve_them():
    env, counters, link, delivered = _clean_link()
    ser = serialization_ns(1000, 8.0)
    early = [_chunk(link) for _ in range(4)]
    late = _chunk(link)
    for c in early:
        link.inbox.put_discard(c)        # scheduled: wire owned until 4*ser

    def arm_and_put():
        link.arm_chaos(LinkChaos(bw_scale=0.5))
        link.inbox.put_discard(late)     # under chaos, behind the schedule

    _at(env, ser + ser // 2, arm_and_put)
    env.run()
    # the four keep their scheduled instants; the fifth starts when the
    # wire they own frees up and serialises at half bandwidth
    assert delivered == [(k * ser + 500, c)
                         for k, c in enumerate(early, start=1)] + [
                             (4 * ser + 2 * ser + 500, late)]
    assert (link._chunks, link._busy_ns) == (5, 6 * ser)
    assert counters.get("link.chunks") == 5


def test_dark_link_drops_scheduled_chunks_at_delivery():
    env, counters, link, delivered = _clean_link()
    ser = serialization_ns(1000, 8.0)
    chunks = [_chunk(link) for _ in range(4)]
    for c in chunks:
        link.inbox.put_discard(c)
    _at(env, ser + 600, lambda: link.arm_chaos(LinkChaos(up=False)))
    env.run()
    assert delivered == [(ser + 500, chunks[0])]   # landed before the cut
    assert link._drops == 3 and counters.get("link.chaos_drops") == 3


def test_chaos_cleared_with_backlog_drains_per_chunk_then_schedules():
    env, counters, link, delivered = _clean_link()
    ser = serialization_ns(1000, 8.0)
    link.arm_chaos(LinkChaos(bw_scale=0.5))
    backlog = [_chunk(link) for _ in range(3)]
    for c in backlog:
        link.inbox.put_discard(c)        # booked under chaos, back to back
    joiner = _chunk(link)

    def clear_and_put():
        link.arm_chaos(None)
        link.inbox.put_discard(joiner)   # booked behind the backlog

    _at(env, ser, clear_and_put)         # mid-way through the first (2*ser)
    env.run()
    # chaos is read where service starts: the first pays half bandwidth;
    # the clear books the rest again, one serialisation each at full
    assert delivered == [(2 * ser + 500, backlog[0]),
                         (3 * ser + 500, backlog[1]),
                         (4 * ser + 500, backlog[2]),
                         (5 * ser + 500, joiner)]
    # one event per chunk
    before = env.events_processed
    link.inbox.put_discard(_chunk(link))
    env.run()
    assert env.events_processed - before == 1
    assert link._chunks == 5 and link._busy_ns == 6 * ser


# ---------------------------------------------------------------------------
# bookings against the model without them.  An incast: three uplinks into
# one downlink.  A chunk admitted to a clean uplink is booked on the
# downlink at its exit + latency; rank 0's NIC books each DMA fetch of a
# multi-chunk message on uplink 0 at the fetch's end, while its responder
# streams into the same uplink.  Anything that reaches a link ahead of a
# booking withdraws it.  tests/link_oracle.UnbookedLink refuses every
# booking — each hop arms its own delivery timer, every fetch sleeps — and
# the two must be indistinguishable: the same deliveries and admissions to
# the nanosecond, tallies and counters, with chaos armed and cleared on
# either hop and producers parked.
# ---------------------------------------------------------------------------

class _Incast:
    """``path(r, 3)`` = [up r, down]; the NIC's messages are recorded at
    the downlink, so no receiving NIC is needed."""

    def __init__(self, ups, down):
        self.ups, self.down = ups, down
        self.link_params = NIC_PARAMS.link

    def attach(self, rank, sink):
        pass

    def path(self, src, dst):
        return [self.ups[src], self.down]


NIC_PARAMS = IB_FDR.with_overrides(link__bandwidth_gbps=8.0, link__mtu=1000)
WIRE = st.sampled_from(SIZES)
#: (gap, wire bytes) scripts of raw producers on one uplink
PUTS = st.lists(st.tuples(GAPS, WIRE), max_size=12)
#: (gap, nbytes, responder?) script of rank 0's NIC: 1 to 5 chunks
SENDS = st.lists(st.tuples(GAPS, st.integers(min_value=1, max_value=5000),
                           st.booleans()), max_size=6)
#: (instant, hop: 0-2 an uplink / 3 the downlink, state[, armed at]): the
#: controller's timer is armed at 0 unless an instant to arm it is given
CHAOS = st.lists(st.tuples(st.integers(min_value=0, max_value=30_000),
                           st.integers(min_value=0, max_value=3),
                           st.sampled_from(("dark", "slow", "clear"))),
                 max_size=4)
_STATES = {"dark": lambda: LinkChaos(up=False),
           "slow": lambda: LinkChaos(bw_scale=0.5, latency_add_ns=30),
           "clear": lambda: None}


def _drive_incast(link_cls, depth, latencies, puts, sends, chaos):
    env = Environment()
    counters = Counters()
    ups = [link_cls(env, LinkParams(bandwidth_gbps=8.0, latency_ns=lat,
                                    mtu=4096),
                    f"up{i}", counters=counters, queue_depth=depth)
           for i, lat in enumerate(latencies)]
    down = link_cls(env, LinkParams(bandwidth_gbps=8.0, latency_ns=150,
                                    mtu=4096),
                    "down", counters=counters, queue_depth=depth)
    links = ups + [down]
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

    # raw producers on the last len(puts) uplinks, rank 0's NIC on up0
    for up, (blocking, forgetting) in enumerate(puts, start=3 - len(puts)):
        env.process(producer(up, blocking, 10_000 * up, True))
        env.process(producer(up, forgetting, 10_000 * up + 1, False))
    #: instant -> which of rank 0's loops offered up0 a chunk then
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
    for at, hop, state, *armed in chaos:
        def arm(hop=hop, state=state):
            links[hop].arm_chaos(_STATES[state]())

        if armed:
            _at(env, armed[0], lambda at=at, arm=arm: _at(env, at, arm))
        else:
            _at(env, at, arm)
    env.run()
    snap = dict(counters.values)
    contended = any(len(loops) > 1 for loops in offers.values())
    return env.events_processed, contended, {
        "delivered": delivered, "admitted": sorted(admitted),
        "tallies": [(lk._busy_ns, lk._chunks, lk._bytes, lk._drops)
                    for lk in links],
        # a withdrawn count leaves its key at 0
        "counters": {k: v for k, v in sorted(snap.items())
                     if k.startswith(("link.", "nic.")) and v}}


EVEN = (500, 500, 500)


@settings(max_examples=300, deadline=None)
@given(depth=st.integers(min_value=1, max_value=6),
       latencies=st.sampled_from((EVEN, (500, 503, 506))),
       puts=st.tuples(st.tuples(PUTS, PUTS), st.tuples(PUTS, PUTS)),
       sends=SENDS, chaos=CHAOS)
# the responder reaches uplink 0 ahead of the engine's next train: the
# cut withdraws the rest of the train and its downlink bookings
@example(depth=1, latencies=EVEN, puts=(([], []), ([], [(0, 1000)])),
         sends=[(1, 1001, False), (1, 1587, False), (1, 1001, True)],
         chaos=[])
# a train's uplink booking the clock has passed still takes its chunk back
# when its downlink booking is withdrawn (uplink 2's chunk got there first)
@example(depth=1, latencies=EVEN, puts=(([], []), ([], [(999, 64)])),
         sends=[(0, 1001, True), (0, 1001, True)], chaos=[])
# a train chunk the downlink will not book is not booked at all: an uplink
# timer armed at the train's build would go ahead of uplink 1's, due in the
# same nanosecond but armed before that chunk's fetch ended
@example(depth=1, latencies=EVEN,
         puts=(([(1, 64)], [(0, 1000), (0, 700), (100, 64), (0, 1000)]),
               ([], [])),
         sends=[(1487, 1001, False)], chaos=[])
# while a chunk the full downlink would not book is on its way there, the
# downlink books nothing: a chunk booked in that window would go ahead of
# it on their common nanosecond
@example(depth=1, latencies=EVEN, puts=(([(0, 1000)], [(0, 1000)]),
                                        ([], [(0, 1000), (1000, 1000)])),
         sends=[], chaos=[])
# an unbooked chunk due at the downlink on the nanosecond of a booking
# there withdraws it (<=, not <): the booking's timer would go first
@example(depth=1, latencies=EVEN,
         puts=(([], [(100, 64), (0, 4126)]), ([], [(100, 4126), (100, 64)])),
         sends=[(2336, 2000, False)], chaos=[])
# a withdrawn downlink booking whose uplink admission is itself a booking
# ahead of the clock cuts the train there instead of arming the uplink's
# timer early
@example(depth=1, latencies=EVEN, puts=(([(446, 64), (0, 1000)], []),
                                        ([], [])),
         sends=[(200, 5000, False)], chaos=[])
# chaos armed on the instant of a booking, armed first: the chunk meets the
# chaos-armed downlink; the train chunk whose fetch ends then meets the
# chaos-armed first hop; a chunk booked on the downlink from an uplink going dark then
# is dropped by the uplink's own delivery
@example(depth=1, latencies=EVEN, puts=(([], [(0, 1000)]), ([], [])),
         sends=[], chaos=[(1500, 3, "slow")])
@example(depth=1, latencies=EVEN, puts=(([], []), ([], [])),
         sends=[(0, 1001, False)], chaos=[(281, 0, "slow")])
@example(depth=1, latencies=EVEN, puts=(([], [(0, 1000)]), ([], [])),
         sends=[], chaos=[(1500, 1, "dark")])
# ... and armed after the train's wake, on its last fetch end: the wake
# has fired, so the chunk booked then goes in behind the chaos
@example(depth=1, latencies=EVEN, puts=(([], []), ([], [])),
         sends=[(0, 1001, False)], chaos=[(281, 0, "slow", 250)])
def test_bookings_match_the_links_without_them(depth, latencies, puts,
                                                 sends, chaos):
    events, _, got = _drive_incast(Link, depth, latencies, puts, sends,
                                   chaos)
    old_events, contended, want = _drive_incast(
        UnbookedLink, depth, latencies, puts, sends, chaos)
    # the named tie: rank 0's engine and responder offer up0 a chunk in one
    # nanosecond.  Streamed a fetch at a time, the loop whose *earlier*
    # timers were armed first goes first; a train booked ahead of its
    # fetches cannot know that order, and keeps its booking first
    assume(not contended)
    assert got == want
    assert events <= old_events


#: every serialisation and gap a multiple of 10 ns and uplink latencies
#: 500 / 503 / 506: no two uplinks deliver in one nanosecond.  The literal
#: server orders such a tie by wire exit (it arms the propagation timer
#: there), the link by admission — a difference of the oracle, not of
#: bookings, which match the link without them on ties above.
TENS = st.integers(min_value=0, max_value=600).map(lambda n: 10 * n)
PUTS_10 = st.lists(st.tuples(TENS, st.sampled_from((60, 700, 1000, 4120))),
                   max_size=12)


@settings(max_examples=100, deadline=None)
@given(depth=st.integers(min_value=1, max_value=6),
       puts=st.tuples(st.tuples(PUTS_10, PUTS_10), st.tuples(PUTS_10, PUTS_10),
                      st.tuples(PUTS_10, PUTS_10)))
def test_booked_incast_matches_one_at_a_time_servers(depth, puts):
    runs = [_drive_incast(cls, depth, (500, 503, 506), puts, [], [])[2]
            for cls in (Link, OracleLink)]
    assert runs[0] == runs[1]
