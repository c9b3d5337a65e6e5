"""minimpi: two-sided eager send/recv with tag matching."""

from __future__ import annotations

import time

from repro.cluster import build_cluster
from repro.minimpi import mpi_init

ROUNDS = 250
MSG_BYTES = 64


def eager_msgs():
    """64 B send/recv ping-pong (eager protocol, posted receives)."""
    cl = build_cluster(2, "ib-fdr", seed=1)
    comms = mpi_init(cl)
    bufs = [cl[r].memory.alloc(2 * MSG_BYTES) for r in (0, 1)]

    def side(rank):
        comm, other = comms[rank], 1 - rank
        for it in range(ROUNDS):
            if rank == 0:
                yield from comm.send(bufs[0], MSG_BYTES, other, tag=it)
                yield from comm.recv(bufs[0] + MSG_BYTES, MSG_BYTES, other,
                                     tag=it)
            else:
                yield from comm.recv(bufs[1] + MSG_BYTES, MSG_BYTES, other,
                                     tag=it)
                yield from comm.send(bufs[1], MSG_BYTES, other, tag=it)

    procs = [cl.env.process(side(r)) for r in (0, 1)]
    t0 = time.perf_counter()
    cl.env.run(until=cl.env.all_of(procs))
    return 2 * ROUNDS, time.perf_counter() - t0


BENCHES = {"minimpi.eager_msgs_per_s": eager_msgs}
