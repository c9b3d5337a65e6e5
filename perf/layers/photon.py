"""photon: PWC eager, rendezvous and get-with-completion round trips."""

from __future__ import annotations

import time

from repro.cluster import build_cluster
from repro.photon import photon_init

WAIT_NS = 10 ** 12
EAGER_ROUNDS = 250
EAGER_BYTES = 64
RNDV_MSGS = 60
RNDV_BYTES = 64 * 1024
GWC_OPS = 250
GWC_BYTES = 4096


def _timed(cl, programs):
    procs = [cl.env.process(p) for p in programs]
    t0 = time.perf_counter()
    cl.env.run(until=cl.env.all_of(procs))
    return time.perf_counter() - t0


def pwc_eager():
    """send_pwc ping-pong: eager-ring write, ledger probe, reply."""
    cl = build_cluster(2, "ib-fdr", seed=1)
    ph = photon_init(cl)
    data = b"e" * EAGER_BYTES

    def side(rank):
        ep, other = ph[rank], 1 - rank
        for it in range(EAGER_ROUNDS):
            if rank == 0:
                yield from ep.send_pwc(other, data, remote_cid=it)
            msg = yield from ep.wait_message(timeout_ns=WAIT_NS)
            if msg is None or msg[2] != data:
                raise RuntimeError("eager ping-pong lost a message")
            if rank == 1:
                yield from ep.send_pwc(other, data, remote_cid=it)

    return 2 * EAGER_ROUNDS, _timed(cl, [side(0), side(1)])


def pwc_rndv():
    """64 KiB rendezvous: advertise, fetch with an RDMA read, FIN."""
    cl = build_cluster(2, "ib-fdr", seed=1)
    ph = photon_init(cl)
    src = ph[0].buffer(RNDV_BYTES)
    dst = ph[1].buffer(RNDV_BYTES)

    def sender():
        for it in range(RNDV_MSGS):
            rid = yield from ph[0].send_rdma(1, src.addr, RNDV_BYTES, tag=it)
            ok = yield from ph[0].wait(rid, timeout_ns=WAIT_NS)
            if not ok or ph[0].request_info(rid).failed:
                raise RuntimeError("rendezvous send did not complete")
            ph[0].free_request(rid)

    def receiver():
        for it in range(RNDV_MSGS):
            info = yield from ph[1].wait_recv_info(0, it, timeout_ns=WAIT_NS)
            if info is None:
                raise RuntimeError("rendezvous advertisement never arrived")
            yield from ph[1].recv_rdma(info, dst.addr)

    return RNDV_MSGS, _timed(cl, [sender(), receiver()])


def gwc():
    """Window-1 4 KiB get_pwc: zero CPU on the target."""
    cl = build_cluster(2, "ib-fdr", seed=1)
    ph = photon_init(cl)
    local = ph[0].buffer(GWC_BYTES)
    remote = ph[1].buffer(GWC_BYTES)

    def origin():
        for it in range(GWC_OPS):
            yield from ph[0].get_pwc(1, local.addr, GWC_BYTES, remote.addr,
                                     remote.rkey, local_cid=it)
            comp = yield from ph[0].wait_completion("local",
                                                    timeout_ns=WAIT_NS)
            if comp is None or not comp.ok:
                raise RuntimeError("get_pwc did not complete")

    return GWC_OPS, _timed(cl, [origin()])


BENCHES = {
    "photon.pwc_eager_ops_per_s": pwc_eager,
    "photon.pwc_rndv_ops_per_s": pwc_rndv,
    "photon.gwc_ops_per_s": gwc,
}
