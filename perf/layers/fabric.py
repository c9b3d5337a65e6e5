"""fabric: link servers and NIC segmentation/reassembly."""

from __future__ import annotations

import time

import numpy as np

from repro.cluster import build_cluster
from repro.fabric.link import Chunk, Link
from repro.fabric.nic import WireMsg
from repro.fabric.params import LinkParams
from repro.sim.core import Environment

BURSTS = 30
BURST_LEN = 64
NIC_MSGS = 150
NIC_MSG_BYTES = 16 * 1024


def _link_bursts(lossy: bool):
    """Back-to-back chunk bursts through a two-hop path.  Clean links run
    ``_server_clean`` (batched drain); a non-zero drop rate arms the RNG
    and sends the same bursts through ``_server_faulty``."""
    env = Environment()
    if lossy:
        params = LinkParams(bandwidth_gbps=16.0, latency_ns=500, mtu=4096,
                            drop_rate=0.01, loss_mode="lossy")
        rngs = [np.random.default_rng(s) for s in (1, 2)]
    else:
        params = LinkParams(bandwidth_gbps=16.0, latency_ns=500, mtu=4096)
        rngs = [None, None]
    first = Link(env, params, "hop0", rng=rngs[0])
    second = Link(env, params, "hop1", rng=rngs[1])
    second.sink = lambda chunk: None

    def producer():
        for _ in range(BURSTS):
            for _ in range(BURST_LEN):
                chunk = Chunk(msg=None, offset=0, size=1024,
                              wire_bytes=1024 + 30, is_first=True,
                              is_last=True, path=[first, second])
                first.inbox.put_discard(chunk)
            yield env.timeout(200_000)

    env.process(producer())
    t0 = time.perf_counter()
    env.run()
    return BURSTS * BURST_LEN, time.perf_counter() - t0


def link_clean():
    return _link_bursts(lossy=False)


def link_lossy():
    return _link_bursts(lossy=True)


def nic_segment_reassemble():
    """16 KiB SEND-style messages NIC to NIC: segmentation into MTU
    chunks, DMA fetch, link transit, buffered reassembly at delivery."""
    cl = build_cluster(2, "ib-fdr", seed=1)
    env = cl.env
    payload = memoryview(bytes(range(256)) * (NIC_MSG_BYTES // 256))
    got = []

    def delivered(_nic, msg):
        got.append(len(msg.collect_rx()))

    def fetch(offset, size):
        return payload[offset:offset + size]

    def producer():
        for _ in range(NIC_MSGS):
            cl[0].nic.transmit(WireMsg(0, 1, NIC_MSG_BYTES, "send",
                                       fetch=fetch, on_delivered=delivered))
            yield env.timeout(4_000)
        while len(got) < NIC_MSGS:
            yield env.timeout(1_000)

    done = env.process(producer())
    t0 = time.perf_counter()
    env.run(until=done)
    dt = time.perf_counter() - t0
    if got != [NIC_MSG_BYTES] * NIC_MSGS:
        raise RuntimeError("NIC reassembly delivered the wrong bytes")
    return NIC_MSGS, dt


BENCHES = {
    "fabric.link_clean_chunks_per_s": link_clean,
    "fabric.link_lossy_chunks_per_s": link_lossy,
    "fabric.nic_segment_reassemble_msgs_per_s": nic_segment_reassemble,
}
