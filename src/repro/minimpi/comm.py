"""Communicator: the user-facing minimpi API and collectives.

Address-based point-to-point (buffers live in simulated memory, as with
the verbs layer underneath) plus numpy-typed collectives.  ``barrier``,
``allreduce`` and ``allgather`` are the schedules of
:mod:`repro.photon.collectives`, run over this communicator's wire: it
stages payloads through a per-rank scratch heap and matches them on a
reserved tag space keyed by an epoch counter, so SPMD programs must call
collectives in the same order on every rank.  ``alltoall`` is minimpi's
own.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..cluster import Cluster
from ..photon.collectives import (MemberDeadError, allgather, allreduce,
                                  barrier, dead_member)
from ..sim.core import SimulationError
from .protocol import EAGER_CREDITS, PREPOST, Engine, MPIRequest
from .status import ANY_SOURCE, ANY_TAG, DEFAULT_MPI_CONFIG, MPIConfig

__all__ = ["Comm", "mpi_init"]

_COLL_TAG_BASE = 1 << 40
#: collective scratch heap per rank (bytes)
COLL_SCRATCH = 8 * 1024 * 1024


class _Scratch:
    """Ring allocator for collective staging buffers."""

    def __init__(self, memory, size: int):
        self.base = memory.alloc(size, align=64)
        self.size = size
        self.cursor = 0

    def take(self, nbytes: int) -> int:
        if nbytes > self.size // 2:
            raise SimulationError(
                f"collective payload {nbytes}B exceeds scratch capacity "
                f"{self.size // 2}B; raise minimpi.comm.COLL_SCRATCH")
        if self.cursor + nbytes > self.size:
            self.cursor = 0
        addr = self.base + self.cursor
        self.cursor += (nbytes + 63) & ~63
        return addr


class Comm:
    """MPI_COMM_WORLD-like communicator for one rank."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.rank = engine.rank
        self.size = engine.cluster.n
        self.env = engine.env
        self.memory = engine.memory
        self._scratch = _Scratch(engine.memory, COLL_SCRATCH)
        self._epoch = 0

    # ------------------------------------------------------------- p2p
    def isend(self, addr: int, size: int, dst: int, tag: int = 0):
        """Non-blocking send (generator → MPIRequest)."""
        req = yield from self.engine.isend(addr, size, dst, tag)
        return req

    def irecv(self, addr: int, length: int, src: int = ANY_SOURCE,
              tag: int = ANY_TAG):
        """Non-blocking receive (generator → MPIRequest)."""
        req = yield from self.engine.irecv(addr, length, src, tag)
        return req

    def send(self, addr: int, size: int, dst: int, tag: int = 0):
        """Blocking send (generator)."""
        req = yield from self.engine.isend(addr, size, dst, tag)
        yield from self.engine.wait(req)

    def recv(self, addr: int, length: int, src: int = ANY_SOURCE,
             tag: int = ANY_TAG):
        """Blocking receive (generator → Status)."""
        req = yield from self.engine.irecv(addr, length, src, tag)
        yield from self.engine.wait(req)
        return req.status

    def wait(self, req: MPIRequest, timeout_ns: Optional[int] = None):
        ok = yield from self.engine.wait(req, timeout_ns)
        return ok

    def waitall(self, reqs: List[MPIRequest],
                timeout_ns: Optional[int] = None):
        ok = yield from self.engine.waitall(reqs, timeout_ns)
        return ok

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        st = yield from self.engine.iprobe(src, tag)
        return st

    def stats(self):
        """JSON-serializable engine snapshot for this rank."""
        return self.engine.stats()

    # ------------------------------------------------------------- wire
    def _coll_begin(self) -> int:
        self._epoch += 1
        return self.size

    def _coll_tag(self, step: int) -> int:
        return _COLL_TAG_BASE + self._epoch * 4096 + step

    def _coll_isend(self, dst: int, data: bytes, step: int):
        """Stage a payload in scratch and isend it (generator → request)."""
        addr = self._scratch.take(max(len(data), 1))
        self.memory.write(addr, data)
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(data)))
        req = yield from self.engine.isend(addr, len(data), dst,
                                           self._coll_tag(step))
        return req

    def _coll_send(self, dst: int, data: bytes, step: int):
        """Stage + blocking-send a payload (generator)."""
        req = yield from self._coll_isend(dst, data, step)
        yield from self.engine.wait(req)

    def _coll_recv(self, src: int, nbytes: int, step: int):
        """Blocking receive into scratch; returns the payload (generator).

        Raises :class:`MemberDeadError` once the failure detector declares
        any member dead first; a receive the transport gave up on names
        its source."""
        length = max(nbytes, 1)
        addr = self._scratch.take(length)
        req = yield from self.engine.irecv(addr, length, src,
                                           self._coll_tag(step))
        health, n = self.engine.node.health, self.size
        yield from self.engine._wait_until(
            lambda: req.done or dead_member(health, n) is not None)
        if req.failed or not req.done:
            dead = dead_member(health, n)
            raise MemberDeadError(self.rank, src if dead is None else dead)
        # owned copy: the scratch ring wraps and reuses this region
        return self.memory.read_bytes(addr, req.status.count)

    def _coll_swap(self, dst: int, data: bytes, src: int, nbytes: int,
                   step: int):
        sreq = yield from self._coll_isend(dst, data, step)
        raw = yield from self._coll_recv(src, nbytes, step)
        yield from self.engine.wait(sreq)
        return raw

    # ------------------------------------------------------------- collectives
    def barrier(self):
        """Dissemination barrier (generator)."""
        yield from barrier(self)
        self.engine.counters.add("mpi.barriers")

    def allreduce(self, array: np.ndarray, op: str = "sum"):
        """Recursive-doubling allreduce (generator → reduced array)."""
        out = yield from allreduce(self, array, op)
        self.engine.counters.add("mpi.allreduces")
        return out

    def allgather(self, data: bytes):
        """Ring allgather of equal-size blobs (generator → list by rank)."""
        return (yield from allgather(self, data))

    def alltoall(self, blobs: List[bytes]):
        """Pairwise-exchange alltoallv (generator → list by source rank).

        Blob sizes may differ; an 8-byte count exchange precedes each
        payload exchange, as in alltoallv implementations.
        """
        n = self._coll_begin()
        if len(blobs) != n:
            raise SimulationError("alltoall needs one blob per rank")
        out: List[bytes] = [b""] * n
        out[self.rank] = bytes(blobs[self.rank])
        for step in range(1, n):
            dst = (self.rank + step) % n
            src = (self.rank - step) % n
            hdr = len(blobs[dst]).to_bytes(8, "little")
            raw = yield from self._coll_swap(dst, hdr, src, 8, 2 * step)
            out[src] = yield from self._coll_swap(
                dst, blobs[dst], src, int.from_bytes(raw, "little"),
                2 * step + 1)
        return out


def mpi_init(cluster: Cluster,
             config: Optional[MPIConfig] = None) -> List[Comm]:
    """Create one communicator per rank over a full QP mesh."""
    cfg = config or DEFAULT_MPI_CONFIG
    engines = [Engine(cluster[r], cluster, cfg) for r in range(cluster.n)]
    for e in engines:
        e._alloc_bounce()
    for a in range(cluster.n):
        for b in range(a + 1, cluster.n):
            ea, eb = engines[a], engines[b]
            depth = EAGER_CREDITS + PREPOST + 64
            qp_ab = ea.context.create_qp(ea.pd, ea.send_cq, ea.recv_cq,
                                         max_send_wr=depth,
                                         max_recv_wr=PREPOST + 8)
            qp_ba = eb.context.create_qp(eb.pd, eb.send_cq, eb.recv_cq,
                                         max_send_wr=depth,
                                         max_recv_wr=PREPOST + 8)
            qp_ab.connect(qp_ba)
            ea._wire_peer(b, qp_ab)
            eb._wire_peer(a, qp_ba)
    return [Comm(e) for e in engines]
