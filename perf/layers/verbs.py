"""verbs: QueuePair.post_send -> CompletionQueue.poll."""

from __future__ import annotations

import time

from repro.cluster import build_cluster
from repro.verbs import Access, Opcode, SendWR

WRS = 600
WR_BYTES = 64


def post_poll():
    """Window-1 signalled RDMA writes on one connected QP pair: post,
    wait for the send CQ to go non-empty, poll the completion."""
    cl = build_cluster(2, "ib-fdr", seed=1)
    env = cl.env
    sides = []
    for r in (0, 1):
        ctx = cl[r].context
        pd = ctx.alloc_pd()
        heap = cl[r].memory.alloc(1 << 16)
        mr = ctx.reg_mr_sync(pd, heap, 1 << 16, Access.ALL)
        sides.append((pd, heap, mr, ctx.create_cq(), ctx.create_cq()))
    qps = [cl[r].context.create_qp(pd, cq, rcq)
           for r, (pd, _heap, _mr, cq, rcq) in enumerate(sides)]
    qps[0].connect(qps[1])
    (_pd0, heap0, _mr0, cq0, _), (_pd1, heap1, mr1, _cq1, _) = sides
    reaped = [0]

    def proc():
        for i in range(WRS):
            yield from qps[0].post_send_timed(SendWR(
                opcode=Opcode.RDMA_WRITE, wr_id=i, local_addr=heap0,
                length=WR_BYTES, remote_addr=heap1, rkey=mr1.rkey))
            yield cq0.wait_nonempty()
            reaped[0] += sum(wc.ok for wc in cq0.poll())

    done = env.process(proc())
    t0 = time.perf_counter()
    env.run(until=done)
    dt = time.perf_counter() - t0
    if reaped[0] != WRS:
        raise RuntimeError(f"reaped {reaped[0]} of {WRS} completions")
    return WRS, dt


BENCHES = {"verbs.post_poll_wr_per_s": post_poll}
