"""Integration tests for Photon collectives (SPMD over simulated ranks)."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.photon import PhotonConfig, photon_init
from repro.sim import SimulationError


def spmd(n, body, config=None, **kw):
    """Run ``body(ph, rank)`` as an SPMD program; returns per-rank results."""
    cl = build_cluster(n, **kw)
    ph = photon_init(cl, config)
    procs = [cl.env.process(body(ph[r], r)) for r in range(n)]
    cl.env.run(until=cl.env.all_of(procs))
    return cl, [p.value for p in procs]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_barrier_completes_all_sizes(n):
    def body(ph, rank):
        yield from ph.barrier()
        return ph.env.now

    cl, times = spmd(n, body)
    assert len(times) == n


def test_barrier_actually_synchronises():
    """A late rank holds everyone: nobody exits before the last entry."""
    enter = {}
    exit_ = {}

    def body(ph, rank):
        yield ph.env.timeout(rank * 100_000)  # staggered arrival
        enter[rank] = ph.env.now
        yield from ph.barrier()
        exit_[rank] = ph.env.now

    cl, _ = spmd(4, body)
    assert max(enter.values()) == enter[3]
    for r in range(4):
        assert exit_[r] >= enter[3]


def test_barrier_epochs_do_not_cross():
    """Two consecutive barriers stay separate."""

    def body(ph, rank):
        yield from ph.barrier()
        t1 = ph.env.now
        yield from ph.barrier()
        return t1, ph.env.now

    cl, res = spmd(4, body)
    for t1, t2 in res:
        assert t2 > t1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_allreduce_sum_small(n):
    def body(ph, rank):
        arr = np.full(16, rank + 1, dtype=np.int64)
        out = yield from ph.allreduce(arr, "sum")
        return out

    cl, res = spmd(n, body)
    expected = sum(range(1, n + 1))
    for out in res:
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, np.full(16, expected))


@pytest.mark.parametrize("op,func", [("min", min), ("max", max)])
def test_allreduce_min_max(op, func):
    def body(ph, rank):
        arr = np.array([rank * 10.0, -rank * 2.0], dtype=np.float64)
        out = yield from ph.allreduce(arr, op)
        return out

    cl, res = spmd(4, body)
    col0 = func(r * 10.0 for r in range(4))
    col1 = func(-r * 2.0 for r in range(4))
    for out in res:
        np.testing.assert_allclose(out, [col0, col1])


def test_allreduce_above_eager_limit():
    """An array above the eager limit is chunked through recursive
    doubling, folded ranks included."""
    n = 5
    elems = 8192  # 64 KiB of float64 > 8 KiB eager limit

    def body(ph, rank):
        arr = np.arange(elems, dtype=np.float64) * (rank + 1)
        out = yield from ph.allreduce(arr, "sum")
        return out

    cl, res = spmd(n, body)
    expected = np.arange(elems, dtype=np.float64) * sum(range(1, n + 1))
    for out in res:
        np.testing.assert_allclose(out, expected)


def test_allreduce_single_rank_identity():
    def body(ph, rank):
        arr = np.array([1.5, 2.5])
        out = yield from ph.allreduce(arr, "sum")
        return out

    cl, res = spmd(1, body)
    np.testing.assert_allclose(res[0], [1.5, 2.5])


def test_allreduce_unknown_op_rejected():
    cl = build_cluster(2)
    ph = photon_init(cl)
    with pytest.raises(SimulationError):
        list(ph[0].allreduce(np.zeros(4), "xor"))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_allgather_roundtrip(n):
    def body(ph, rank):
        blob = bytes([rank]) * 32
        out = yield from ph.allgather(blob)
        return out

    cl, res = spmd(n, body)
    for out in res:
        assert out == [bytes([r]) * 32 for r in range(n)]


def test_exchange_publishes_buffer_metadata():
    """The bootstrap pattern: every rank learns every buffer's (addr, rkey)."""
    import struct

    def body(ph, rank):
        buf = ph.buffer(4096)
        blob = struct.pack("<QQ", buf.addr, buf.rkey)
        infos = yield from ph.allgather(blob)
        return [struct.unpack("<QQ", b) for b in infos]

    cl, res = spmd(3, body)
    assert res[0] == res[1] == res[2]
    assert len(res[0]) == 3


def test_allreduce_preserves_shape():
    def body(ph, rank):
        arr = np.ones((4, 4), dtype=np.float32)
        out = yield from ph.allreduce(arr, "sum")
        return out

    cl, res = spmd(2, body)
    assert res[0].shape == (4, 4)
    np.testing.assert_allclose(res[0], np.full((4, 4), 2.0))


def test_collectives_mixed_sequence():
    """Barrier / allreduce / allgather interleave without cross-talk."""

    def body(ph, rank):
        yield from ph.barrier()
        s = yield from ph.allreduce(np.array([rank], dtype=np.int64), "sum")
        g = yield from ph.allgather(bytes([rank]))
        yield from ph.barrier()
        return int(s[0]), g

    cl, res = spmd(4, body)
    for s, g in res:
        assert s == 6
        assert g == [b"\x00", b"\x01", b"\x02", b"\x03"]
