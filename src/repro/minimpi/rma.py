"""MPI-3-style one-sided windows (the RMA comparator in R1).

``Win`` exposes a registered region on every rank; ``put`` maps to an
RDMA write, and ``flush`` completes the rank's outstanding operations.
This is the "MPI RMA" baseline the paper compares PWC against: the data
path is the same hardware primitive, but completion is epoch-wide (a
flush) instead of per operation.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.core import SimulationError
from ..verbs.enums import Access, Opcode
from ..verbs.qp import SendWR
from .comm import Comm

__all__ = ["Win", "win_allocate"]


class Win:
    """One rank's handle on a window collectively created over a comm."""

    def __init__(self, comm: Comm, addr: int, size: int):
        self.comm = comm
        self.engine = comm.engine
        self.addr = addr
        self.size = size
        self.env = comm.env
        mr = self.engine.context.reg_mr_sync(self.engine.pd, addr, size,
                                             Access.ALL)
        self.rkey = mr.rkey
        #: (addr, rkey) of every rank's window, filled by win_allocate
        self.remote: Dict[int, tuple] = {comm.rank: (addr, self.rkey)}
        self._pending = 0

    # ------------------------------------------------------------- epochs
    def flush(self):
        """Complete outstanding local operations only (generator)."""
        yield from self.engine._wait_until(lambda: self._pending == 0)

    # ------------------------------------------------------------- data ops
    def _target(self, rank: int, offset: int, size: int) -> tuple:
        if rank not in self.remote:
            raise SimulationError(f"window has no rank {rank}")
        raddr, rkey = self.remote[rank]
        if offset < 0 or offset + size > self.size:
            raise SimulationError(
                f"RMA access [{offset}, {offset + size}) outside "
                f"{self.size}-byte window")
        return raddr + offset, rkey

    def _post(self, rank: int, wr: SendWR, mr=None):
        if rank == self.comm.rank:
            raise SimulationError(
                "loopback window access: use local memory directly")
        self._pending += 1

        def done():
            self._pending -= 1
            if mr is not None:
                self.engine.rcache.release_async(mr)

        def error():
            # a failed WR still settles the epoch accounting and unpins,
            # otherwise flush would wait forever on a lossy fabric
            self.engine.counters.add("mpi.rma_failures")
            done()

        yield from self.engine._post(self.engine._peer(rank), wr, done, error)

    def put(self, local_addr: int, size: int, rank: int, offset: int = 0):
        """One-sided put into ``rank``'s window (generator)."""
        raddr, rkey = self._target(rank, offset, size)
        mr = yield from self.engine.rcache.acquire(local_addr, size)
        wr = SendWR(opcode=Opcode.RDMA_WRITE, local_addr=local_addr,
                    length=size, remote_addr=raddr, rkey=rkey)
        yield from self._post(rank, wr, mr)
        self.engine.counters.add("mpi.rma_puts")


def win_allocate(comms: List[Comm], size: int) -> List[Win]:
    """Collectively create a window of ``size`` bytes on every rank.

    Runs at t=0 (window creation cost is not part of measured loops); the
    (addr, rkey) exchange models MPI_Win_allocate's internal allgather.
    """
    wins = []
    for comm in comms:
        addr = comm.memory.alloc(size, align=64)
        wins.append(Win(comm, addr, size))
    for w in wins:
        for other in wins:
            w.remote[other.comm.rank] = (other.addr, other.rkey)
    return wins
