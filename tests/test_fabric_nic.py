"""Integration tests for the NIC + link + topology pipeline."""

import pytest

from repro.fabric import IB_FDR, Memory, Nic, Star, WireMsg
from repro.sim import Counters, Environment
from repro.util import MiB, serialization_ns, to_gbps


def build(n=2, params=IB_FDR, mem_size=8 * MiB):
    env = Environment()
    counters = Counters()
    topo = Star(env, n, params.link, counters)
    mems = [Memory(mem_size, params.host, rank=r) for r in range(n)]
    nics = [Nic(env, r, params, mems[r], topo, counters) for r in range(n)]
    return env, topo, mems, nics, counters


def put_msg(mems, src, dst, data, dst_addr, on_delivered=None,
            on_acked=None, ack=False):
    """Build an RDMA-write-style message placing bytes at dst_addr."""
    return WireMsg(
        src=src, dst=dst, nbytes=len(data), kind="write",
        fetch=lambda off, size, d=data: d[off:off + size],
        place=lambda off, chunk, m=mems[dst], a=dst_addr: m.write(a + off, chunk),
        on_delivered=on_delivered, on_acked=on_acked, ack=ack)


def test_write_places_bytes_at_destination():
    env, topo, mems, nics, _ = build()
    dst_addr = mems[1].alloc(64)
    payload = bytes(range(64))
    done = []
    msg = put_msg(mems, 0, 1, payload, dst_addr,
                  on_delivered=lambda nic, m: done.append(env.now))
    nics[0].transmit(msg)
    env.run()
    assert mems[1].read(dst_addr, 64) == payload
    assert len(done) == 1


def test_small_write_latency_in_realistic_band():
    """A 64B write on IB-FDR should land in roughly 0.5-2.5 us."""
    env, topo, mems, nics, _ = build()
    dst_addr = mems[1].alloc(64)
    done = []
    msg = put_msg(mems, 0, 1, b"x" * 64, dst_addr,
                  on_delivered=lambda nic, m: done.append(env.now))
    nics[0].transmit(msg)
    env.run()
    assert 500 <= done[0] <= 2500


def test_ack_fires_after_delivery():
    env, topo, mems, nics, _ = build()
    dst_addr = mems[1].alloc(8)
    times = {}
    msg = put_msg(mems, 0, 1, b"12345678", dst_addr,
                  on_delivered=lambda nic, m: times.setdefault("del", env.now),
                  on_acked=lambda: times.setdefault("ack", env.now),
                  ack=True)
    nics[0].transmit(msg)
    env.run()
    assert times["ack"] > times["del"]
    # ack delay = return path latency + ack overhead
    expected = (topo.path_latency_ns(1, 0) + IB_FDR.nic.ack_overhead_ns)
    assert times["ack"] - times["del"] == expected


def test_large_transfer_achieves_near_link_bandwidth():
    env, topo, mems, nics, _ = build()
    size = 4 * MiB
    dst_addr = mems[1].alloc(size)
    payload = bytes(size)
    done = []
    msg = put_msg(mems, 0, 1, payload, dst_addr,
                  on_delivered=lambda nic, m: done.append(env.now))
    nics[0].transmit(msg)
    env.run()
    gbps = to_gbps(size, done[0])
    # within 70%..101% of the nominal 54 Gbit/s link
    assert 0.70 * IB_FDR.link.bandwidth_gbps <= gbps <= 1.01 * IB_FDR.link.bandwidth_gbps


def test_zero_byte_message_delivers():
    env, topo, mems, nics, _ = build()
    seen = []
    msg = WireMsg(src=0, dst=1, nbytes=0, kind="ctrl",
                  on_delivered=lambda nic, m: seen.append(m.kind))
    nics[0].transmit(msg)
    env.run()
    assert seen == ["ctrl"]


def test_send_style_message_buffers_payload():
    env, topo, mems, nics, _ = build()
    payload = b"two-sided payload bytes!" * 10
    got = []
    msg = WireMsg(src=0, dst=1, nbytes=len(payload), kind="send",
                  inline_data=payload,
                  on_delivered=lambda nic, m: got.append(m.collect_rx()))
    nics[0].transmit(msg)
    env.run()
    assert got == [payload]


def test_messages_delivered_in_fifo_order():
    env, topo, mems, nics, _ = build()
    order = []
    for i in range(8):
        dst_addr = mems[1].alloc(16)
        msg = put_msg(mems, 0, 1, bytes([i]) * 16, dst_addr,
                      on_delivered=lambda nic, m, i=i: order.append(i))
        nics[0].transmit(msg)
    env.run()
    assert order == list(range(8))


def test_responder_path_does_not_use_requester_queue():
    """Responder messages are transmitted even when queued from ingress
    context (READ responses)."""
    env, topo, mems, nics, _ = build()
    # rank 0 asks rank 1 for data via a ctrl msg; rank 1's NIC responds.
    src_data = mems[1].alloc(128)
    mems[1].write(src_data, b"R" * 128)
    landing = mems[0].alloc(128)
    got = []

    def on_request(nic, m):
        resp = WireMsg(
            src=1, dst=0, nbytes=128, kind="read_resp",
            fetch=lambda off, size: mems[1].read(src_data + off, size),
            place=lambda off, chunk: mems[0].write(landing + off, chunk),
            on_delivered=lambda n2, m2: got.append(env.now))
        nic.respond(resp)

    req = WireMsg(src=0, dst=1, nbytes=0, kind="read_req",
                  on_delivered=on_request)
    nics[0].transmit(req)
    env.run()
    assert mems[0].read(landing, 128) == b"R" * 128
    assert len(got) == 1


def test_incast_contention_slows_delivery():
    """Two senders to one receiver share the victim downlink."""
    size = 256 * 1024
    # solo run
    env, topo, mems, nics, _ = build(n=3)
    addr = mems[2].alloc(2 * size)
    solo_done = []
    nics[0].transmit(put_msg(mems, 0, 2, bytes(size), addr,
                             on_delivered=lambda n, m: solo_done.append(env.now)))
    env.run()
    solo = solo_done[0]

    # incast run
    env, topo, mems, nics, _ = build(n=3)
    addr = mems[2].alloc(2 * size)
    done = []
    nics[0].transmit(put_msg(mems, 0, 2, bytes(size), addr,
                             on_delivered=lambda n, m: done.append(env.now)))
    nics[1].transmit(put_msg(mems, 1, 2, bytes(size), addr + size,
                             on_delivered=lambda n, m: done.append(env.now)))
    env.run()
    # the later finisher should be markedly slower than the solo transfer
    assert max(done) > 1.5 * solo


def test_counters_track_traffic():
    env, topo, mems, nics, counters = build()
    dst_addr = mems[1].alloc(1024)
    nics[0].transmit(put_msg(mems, 0, 1, bytes(1024), dst_addr))
    env.run()
    assert counters.get("nic.tx_msgs") == 1
    assert counters.get("nic.tx_bytes") == 1024
    assert counters.get("nic.rx_msgs") == 1


def test_a_post_to_a_parked_engine_and_a_plain_write_cost_no_stage_event():
    """A doorbell that rings a parked engine is a hand-off dated at the
    post, and a write with no ``on_delivered`` hook has no event at its
    delivery instant: the post costs what a direct transmit costs, and the
    plain write one event less than a hooked one."""
    def run(doorbell_ns, hooked):
        env, topo, mems, nics, counters = build()
        msg = put_msg(mems, 0, 1, b"x" * 64, mems[1].alloc(64),
                      on_delivered=(lambda nic, m: None) if hooked else None,
                      on_acked=lambda: None, ack=True)
        env.run(until=1_000)  # the loops start and park
        before = env.events_processed
        nics[0].transmit(msg, doorbell_ns)
        env.run()
        return env.events_processed - before, msg

    direct, _ = run(0, True)
    posted, msg = run(IB_FDR.nic.doorbell_ns, True)
    plain, plain_msg = run(IB_FDR.nic.doorbell_ns, False)
    assert posted == direct and plain == posted - 1
    assert msg.t_injected == 1_000 + IB_FDR.nic.doorbell_ns + WQE
    assert plain_msg.t_delivered == msg.t_delivered


# ---------------------------------------------------------------------------
# crash timing across the stage hand-off.  An idle engine / responder /
# delivery stage is handed its message with the fixed stage cost
# (wqe_process_ns / delivery_ns) pre-charged; a busy one dequeues it and
# charges the stage itself.  ``down`` is looked at once per message: at the
# hand-off for an idle stage, at the dequeue for a busy one.  Every outcome
# below is what woken-then-sleeping loops produce (this file passes
# unchanged on such a tree; tests/nic_oracle.py is one).
# ---------------------------------------------------------------------------

WQE = IB_FDR.nic.wqe_process_ns
DELIVERY = IB_FDR.nic.delivery_ns


def _crash_run(script, until=400_000):
    """Run ``script`` = [(instant, action(nics, msg))]; ``msg(tag, size)``
    builds a 0->1 write whose delivery is logged as (instant, tag)."""
    env, topo, mems, nics, counters = build()
    delivered, msgs = [], {}

    def msg(tag, size=64):
        msgs[tag] = put_msg(
            mems, 0, 1, bytes([tag]) * size, mems[1].alloc(size),
            on_delivered=lambda nic, m: delivered.append((env.now, tag)))
        return msgs[tag]

    def driver():
        for at, action in script:
            if at > env.now:
                yield env.timeout(at - env.now)
            action(nics, msg)

    env.process(driver(), name="driver")
    env.run(until=until)
    return {"delivered": delivered, "msgs": msgs,
            "tx_bytes": counters.get("nic.tx_bytes"),
            "rx_msgs": counters.get("nic.rx_msgs"),
            "down_drops": counters.get("nic.down_drops")}


def _inject(path):
    """Requester (``transmit``) or responder (``respond``) hand-off."""
    return lambda tag, size=64: (
        lambda nics, msg: getattr(nics[0], path)(msg(tag, size)))


def _power(rank, state):
    return lambda nics, msg: getattr(nics[rank], f"power_{state}")()


#: hand-off instant of a 64 B write transmitted at t=1000 at the receiver's
#: delivery loop (its last chunk's ingress), measured once on a quiet run
def _ingress_instant():
    quiet = _crash_run([(1_000, _inject("transmit")(1))])
    (t_delivered, _tag), = quiet["delivered"]
    return t_delivered - DELIVERY


@pytest.mark.parametrize("path", ["transmit", "respond"])
def test_send_stage_power_off_before_hand_off(path):
    tx = _inject(path)
    got = _crash_run([(1_000, _power(0, "off")), (1_100, tx(1)),
                      (2_000, _power(0, "on")), (3_000, tx(2))])
    # a dark NIC's idle loop discards the message at the hand-off; the
    # next one, after power_on, goes through
    assert [tag for _, tag in got["delivered"]] == [2]
    assert got["tx_bytes"] == 64 and got["rx_msgs"] == 1
    assert got["msgs"][1].t_injected == -1
    assert got["msgs"][2].t_injected == 3_000 + WQE


@pytest.mark.parametrize("path", ["transmit", "respond"])
def test_send_stage_power_off_mid_stage_finishes_the_message(path):
    """The known fidelity gap, pinned (not fixed): a NIC powered off
    between the hand-off and the end of the per-WQE stage finishes the
    message it was processing — ``down`` was looked at when the message
    was handed over, and the stream is not interrupted."""
    got = _crash_run([(1_000, _inject(path)(1)),
                      (1_000 + WQE // 2, _power(0, "off")),
                      (50_000, _power(0, "on"))])
    assert [tag for _, tag in got["delivered"]] == [1]
    assert got["tx_bytes"] == 64 and got["rx_msgs"] == 1
    assert got["msgs"][1].t_injected == 1_000 + WQE


@pytest.mark.parametrize("path", ["transmit", "respond"])
def test_send_stage_power_off_with_message_queued_behind_busy_loop(path):
    tx = _inject(path)
    big = 64 * 1024  # 16 chunks: the loop streams for several us
    got = _crash_run([(1_000, tx(1, big)), (1_300, tx(2)),
                      (2_000, _power(0, "off")),   # clears the queue: 2 gone
                      (2_500, tx(3)),              # queued dark, loop busy
                      (3_000, _power(0, "on"))])   # ... and dequeued lit
    assert [tag for _, tag in got["delivered"]] == [1, 3]
    assert got["tx_bytes"] == big + 64 and got["rx_msgs"] == 2
    assert got["msgs"][2].t_injected == -1
    # the busy loop charged message 3's stage itself, once, after message
    # 1's last chunk went out
    m1_end = got["msgs"][3].t_injected - WQE
    assert 3_000 < m1_end < got["delivered"][0][0]


def test_delivery_stage_power_off_before_hand_off():
    t_in = _ingress_instant()
    got = _crash_run([(1_000, _inject("transmit")(1)),
                      (t_in - 50, _power(1, "off")),
                      (t_in + 5_000, _power(1, "on"))])
    assert got["delivered"] == [] and got["rx_msgs"] == 0
    assert got["down_drops"] == 1 and got["tx_bytes"] == 64


def test_delivery_stage_power_off_mid_stage_finishes_the_message():
    """Same gap on the receive side: powered off between the last chunk's
    ingress and the end of ``delivery_ns``, the NIC still delivers."""
    t_in = _ingress_instant()
    got = _crash_run([(1_000, _inject("transmit")(1)),
                      (t_in + DELIVERY // 2, _power(1, "off")),
                      (t_in + 5_000, _power(1, "on"))])
    assert got["delivered"] == [(t_in + DELIVERY, 1)]
    assert got["rx_msgs"] == 1 and got["down_drops"] == 0


def test_delivery_stage_power_off_with_message_queued_behind_busy_loop():
    # requester and responder inject at the same instant, so the second
    # message's last chunk lands while the first is in its delivery stage
    t_in = _ingress_instant()
    both = [(1_000, _inject("transmit")(1)), (1_000, _inject("respond")(2))]
    quiet = _crash_run(both)
    assert quiet["delivered"] == [(t_in + DELIVERY, 1),
                                  (t_in + 2 * DELIVERY, 2)]
    got = _crash_run(both + [(t_in + DELIVERY // 2, _power(1, "off")),
                             (t_in + DELIVERY // 2 + 10, _power(1, "on"))])
    # the queue was cleared; the message in its stage is finished
    assert got["delivered"] == [(t_in + DELIVERY, 1)]
    assert got["rx_msgs"] == 1 and got["down_drops"] == 0


@pytest.mark.parametrize("path", ["transmit", "respond"])
def test_stage_cost_charged_once_idle_busy_idle(path):
    tx = _inject(path)
    got = _crash_run([(1_000, tx(1)), (1_100, tx(2)), (50_000, tx(3))])
    dma = serialization_ns(64, IB_FDR.nic.dma_gbps)
    m = got["msgs"]
    assert m[1].t_injected == 1_000 + WQE               # pre-charged
    assert m[2].t_injected == 1_000 + WQE + dma + WQE   # charged by the loop
    assert m[3].t_injected == 50_000 + WQE              # idle again
    # ... and the delivery loop at the far end: idle, busy?, idle — each
    # message is delivered exactly one delivery_ns after it could be
    t = [at for at, _ in got["delivered"]]
    assert [tag for _, tag in got["delivered"]] == [1, 2, 3]
    assert t[1] - t[0] == m[2].t_injected - m[1].t_injected
    assert t[2] - m[3].t_injected == t[0] - m[1].t_injected
    assert got["rx_msgs"] == 3
