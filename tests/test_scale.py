"""Scale tests: the stack at 16 ranks (largest configuration exercised).

Checks that nothing in the bootstrap (O(n²) QP mesh + ledgers) or the
protocols degrades into error at the rank counts the full experiments
use, and that collective latency scales sub-linearly.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.util import KiB, MiB
from tests.measure import bootstrap

TIMEOUT = 10 ** 12
#: GC-tracked objects ``photon_init`` may leave per directed peer pairing:
#: bootstrap state is O(1) objects per peer, not one per posted receive,
#: ring slot or page
MAX_OBJECTS_PER_PAIRING = 16


def test_sixteen_rank_bootstrap_and_barrier():
    cl = build_cluster(16, mem_size=96 * MiB)
    ph = photon_init(cl)
    times = []

    def body(rank):
        yield from ph[rank].barrier()
        times.append(cl.env.now)

    procs = [cl.env.process(body(r)) for r in range(16)]
    cl.env.run(until=cl.env.all_of(procs))
    assert len(times) == 16
    # dissemination: 4 rounds; must be far cheaper than 15 sequential RTTs
    assert max(times) < 15 * 3_000


def test_sixteen_rank_allreduce_correct():
    cl = build_cluster(16, mem_size=96 * MiB)
    ph = photon_init(cl)
    results = []

    def body(rank):
        out = yield from ph[rank].allreduce(
            np.array([rank * 1.0, 1.0]), "sum")
        results.append(out)

    procs = [cl.env.process(body(r)) for r in range(16)]
    cl.env.run(until=cl.env.all_of(procs))
    for out in results:
        np.testing.assert_allclose(out, [sum(range(16)), 16.0])


def test_bootstrap_state_is_constant_per_peer_pairing():
    """``photon_init`` on 32 ranks leaves O(1) Python objects per directed
    peer pairing: a receive window is one run however deep it is, a ring
    keeps its head as one int, and pins are counted per interval.  The
    objects are counted as the GC sees them, and the bytes by the Python
    allocator (a tuple of ints is no GC object, but it has a size)."""
    n = 32
    assert bootstrap(n)["objects/pairing"] <= MAX_OBJECTS_PER_PAIRING
    cl = build_cluster(n)
    gc.collect()
    tracemalloc.start()
    try:
        ph = photon_init(cl)
        gc.collect()
        per_pairing = tracemalloc.get_traced_memory()[0] / (n * (n - 1))
    finally:
        tracemalloc.stop()
    assert len(ph) == n
    assert per_pairing <= 12 * KiB


def test_barrier_scales_sublinearly():
    def barrier_time(n):
        cl = build_cluster(n, mem_size=96 * MiB)
        ph = photon_init(cl)
        out = {}

        def body(rank):
            yield from ph[rank].barrier()  # warm
            t0 = cl.env.now
            yield from ph[rank].barrier()
            if rank == 0:
                out["t"] = cl.env.now - t0

        procs = [cl.env.process(body(r)) for r in range(n)]
        cl.env.run(until=cl.env.all_of(procs))
        return out["t"]

    t4 = barrier_time(4)
    t16 = barrier_time(16)
    # 4x the ranks -> ~2x the rounds (log2), allow queueing slack
    assert t16 < 3.2 * t4


def test_all_to_all_pwc_on_sixteen_ranks():
    """Every rank puts 64B to every other; 240 transfers all land."""
    cl = build_cluster(16, mem_size=96 * MiB)
    ph = photon_init(cl)
    srcs = [ep.buffer(64) for ep in ph]
    dsts = [ep.buffer(64 * 16) for ep in ph]
    for r in range(16):
        cl.ranks[r].memory.write(srcs[r].addr, bytes([r]) * 64)

    def body(rank):
        ep = ph[rank]
        for dst in range(16):
            if dst == rank:
                continue
            yield from ep.put_pwc(dst, srcs[rank].addr, 64,
                                  dsts[dst].addr + 64 * rank,
                                  dsts[dst].rkey, remote_cid=rank)
        got = 0
        while got < 15:
            c = yield from ep.wait_completion("remote", timeout_ns=TIMEOUT)
            assert c is not None
            got += 1

    procs = [cl.env.process(body(r)) for r in range(16)]
    cl.env.run(until=cl.env.all_of(procs))
    for dst in range(16):
        for src in range(16):
            if src == dst:
                continue
            got = cl.ranks[dst].memory.read(dsts[dst].addr + 64 * src, 64)
            assert got == bytes([src]) * 64
    assert cl.counters.get("verbs.rnr_stalls") == 0
