"""Integration tests for minimpi collectives and RMA windows."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.minimpi import MPIConfig, mpi_init, win_allocate
from repro.sim import SimulationError


def spmd(n, body, config=None, **kw):
    cl = build_cluster(n, **kw)
    comms = mpi_init(cl, config)
    procs = [cl.env.process(body(comms[r], r)) for r in range(n)]
    cl.env.run(until=cl.env.all_of(procs))
    return cl, comms, [p.value for p in procs]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_barrier_all_sizes(n):
    def body(comm, rank):
        yield from comm.barrier()
        return comm.env.now

    spmd(n, body)


def test_barrier_synchronises():
    enter = {}
    exit_ = {}

    def body(comm, rank):
        yield comm.env.timeout(rank * 50_000)
        enter[rank] = comm.env.now
        yield from comm.barrier()
        exit_[rank] = comm.env.now

    spmd(4, body)
    for r in range(4):
        assert exit_[r] >= enter[3]


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_allreduce_sum(n):
    def body(comm, rank):
        arr = np.full(8, float(rank + 1))
        out = yield from comm.allreduce(arr, "sum")
        return out

    cl, comms, res = spmd(n, body)
    for out in res:
        np.testing.assert_allclose(out, np.full(8, sum(range(1, n + 1))))


def test_allreduce_min():
    def body(comm, rank):
        arr = np.array([float(rank), float(-rank)])
        out = yield from comm.allreduce(arr, "min")
        return out

    cl, comms, res = spmd(4, body)
    for out in res:
        np.testing.assert_allclose(out, [0.0, -3.0])


@pytest.mark.parametrize("n", [2, 4, 5])
def test_allgather(n):
    def body(comm, rank):
        out = yield from comm.allgather(bytes([rank]) * 16)
        return out

    cl, comms, res = spmd(n, body)
    for out in res:
        assert out == [bytes([r]) * 16 for r in range(n)]


def test_alltoall_variable_sizes():
    def body(comm, rank):
        blobs = [bytes([rank]) * (dst + 1) for dst in range(comm.size)]
        out = yield from comm.alltoall(blobs)
        return out

    cl, comms, res = spmd(3, body)
    for rank, out in enumerate(res):
        for src in range(3):
            assert out[src] == bytes([src]) * (rank + 1)


def test_unknown_reduce_op_rejected():
    cl = build_cluster(2)
    comms = mpi_init(cl)
    with pytest.raises(SimulationError):
        list(comms[0].allreduce(np.zeros(2), "bogus"))


def test_collective_sequence_no_crosstalk():
    def body(comm, rank):
        yield from comm.barrier()
        a = yield from comm.allreduce(np.array([rank + 1.0]), "sum")
        g = yield from comm.allgather(bytes([rank]))
        yield from comm.barrier()
        return float(a[0]), g

    cl, comms, res = spmd(4, body)
    for a, g in res:
        assert a == 10.0
        assert g == [b"\x00", b"\x01", b"\x02", b"\x03"]


# ---------------------------------------------------------------- RMA


def test_win_put_fence():
    cl = build_cluster(2)
    comms = mpi_init(cl)
    wins = win_allocate(comms, 4096)
    src = cl[0].memory.alloc(256)
    cl[0].memory.write(src, b"rma put" * 8)

    def origin(env):
        yield from wins[0].put(src, 56, rank=1, offset=128)
        yield from wins[0].fence()

    def target(env):
        yield from wins[1].fence()

    p0 = cl.env.process(origin(cl.env))
    p1 = cl.env.process(target(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert cl[1].memory.read(wins[1].addr + 128, 56) == b"rma put" * 8


def test_win_get():
    cl = build_cluster(2)
    comms = mpi_init(cl)
    wins = win_allocate(comms, 4096)
    dst = cl[0].memory.alloc(256)
    cl[1].memory.write(wins[1].addr, b"window data!")

    def origin(env):
        yield from wins[0].get(dst, 12, rank=1, offset=0)
        yield from wins[0].flush()

    p0 = cl.env.process(origin(cl.env))
    cl.env.run(until=p0)
    assert cl[0].memory.read(dst, 12) == b"window data!"


def test_win_fetch_add():
    cl = build_cluster(3)
    comms = mpi_init(cl)
    wins = win_allocate(comms, 64)
    cl[0].memory.write_u64(wins[0].addr, 100)

    def origin(env, rank):
        scratch = cl[rank].memory.alloc(8)
        for _ in range(5):
            yield from wins[rank].fetch_add(scratch, rank=0, offset=0,
                                            operand=2)
            yield from wins[rank].flush()

    p1 = cl.env.process(origin(cl.env, 1))
    p2 = cl.env.process(origin(cl.env, 2))
    cl.env.run(until=cl.env.all_of([p1, p2]))
    assert cl[0].memory.read_u64(wins[0].addr) == 100 + 20


def test_win_bounds_checked():
    cl = build_cluster(2)
    comms = mpi_init(cl)
    wins = win_allocate(comms, 64)
    src = cl[0].memory.alloc(256)
    with pytest.raises(SimulationError):
        list(wins[0].put(src, 128, rank=1, offset=0))


def test_win_loopback_rejected():
    cl = build_cluster(2)
    comms = mpi_init(cl)
    wins = win_allocate(comms, 64)
    src = cl[0].memory.alloc(64)
    with pytest.raises(SimulationError):
        list(wins[0].put(src, 8, rank=0))
