"""The assembled Photon endpoint and cluster-wide initialisation.

Typical use::

    from repro.cluster import build_cluster
    from repro.photon import photon_init

    cl = build_cluster(2, "ib-fdr")
    ph = photon_init(cl)            # one endpoint per rank

    def rank0(env):
        buf = ph[0].buffer(4096)            # registered buffer
        # peers learn each other's buffer keys out of band (or via
        # ph[0].allgather of the packed (addr, rkey)); then:
        yield from ph[0].put_pwc(1, buf.addr, 64, remote.addr, remote.rkey,
                                 local_cid=1, remote_cid=2)
        ...

See DESIGN.md §1 for the API inventory and the mixins for per-call docs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cluster import Cluster
from ..verbs.enums import Access
from .atomics import AtomicsMixin
from .base import IMM_PREPOST, MAX_OUTSTANDING, PhotonBase
from .collectives import CollectivesMixin
from .config import DEFAULT_CONFIG, PhotonConfig
from .messaging import MessagingMixin
from .pwc import PwcMixin
from .rdma import RdmaMixin

__all__ = ["Photon", "PhotonBuffer", "photon_init"]


@dataclass(frozen=True)
class PhotonBuffer:
    """A registered, remotely accessible buffer.

    ``priv`` (addr, rkey) is what a peer needs to target this buffer —
    the analogue of ``photon_buffer_priv_t``.
    """

    addr: int
    size: int
    rkey: int

    @property
    def priv(self):
        return (self.addr, self.rkey)


class Photon(PwcMixin, RdmaMixin, MessagingMixin, CollectivesMixin,
             AtomicsMixin, PhotonBase):
    """Per-rank Photon endpoint (all operation groups mixed in)."""

    # ------------------------------------------------------------------ buffers
    def buffer(self, size: int, align: int = 64) -> PhotonBuffer:
        """Allocate + register a buffer at bootstrap time (zero-cost reg).

        The registration is seeded into the registration cache so later
        operations on any sub-range of it are cache hits.  For steady-state
        registration costs use :meth:`register_buffer`.
        """
        addr = self.memory.alloc(size, align)
        mr = self.context.reg_mr_sync(self.pd, addr, size, Access.ALL)
        # pinned=True: bootstrap buffers (ledgers, user windows) must never
        # be evicted out from under remote rkeys that were exchanged OOB
        self.rcache.insert(mr, pinned=True)
        return PhotonBuffer(addr=addr, size=size, rkey=mr.rkey)

    def register_buffer(self, addr: int, size: int):
        """Register an existing range, charging pin cost (generator).

        Goes through the registration cache and holds one reference until
        :meth:`unregister_buffer`; returns a PhotonBuffer.
        """
        mr = yield from self.rcache.acquire(addr, size)
        self.rcache.hold(mr)
        return PhotonBuffer(addr=addr, size=size, rkey=mr.rkey)

    def unregister_buffer(self, buf: PhotonBuffer):
        """Drop the reference taken by :meth:`register_buffer` (a
        :meth:`buffer` holds none) and retire the registration (generator).

        The entry is evicted from the cache and deregistered immediately
        once no operation holds a reference to it; if in-flight operations
        still do, deregistration is deferred until their last release.
        Either way the buffer's rkey becomes invalid for peers — this is
        teardown, not an unpin-but-keep-warm operation.
        """
        yield from self.rcache.unregister(buf.rkey)


def photon_init(cluster: Cluster,
                config: Optional[PhotonConfig] = None) -> List[Photon]:
    """Create and wire one Photon endpoint per rank.

    Models the library's init: full QP mesh, ledger allocation and the
    out-of-band exchange of ledger bases/rkeys.  Runs at t=0 (setup time is
    not part of any measured experiment, as in the paper's methodology).
    """
    cfg = config or DEFAULT_CONFIG
    endpoints = [Photon(cluster[r], cluster, cfg) for r in range(cluster.n)]
    for ep in endpoints:
        ep._alloc_ledgers()
    # QP mesh + ring wiring
    for a in range(cluster.n):
        for b in range(a + 1, cluster.n):
            ep_a, ep_b = endpoints[a], endpoints[b]
            qp_ab = ep_a.context.create_qp(
                ep_a.pd, ep_a.send_cq, ep_a.recv_cq,
                max_send_wr=2 * MAX_OUTSTANDING + 64,
                max_recv_wr=max(IMM_PREPOST + 16, 64))
            qp_ba = ep_b.context.create_qp(
                ep_b.pd, ep_b.send_cq, ep_b.recv_cq,
                max_send_wr=2 * MAX_OUTSTANDING + 64,
                max_recv_wr=max(IMM_PREPOST + 16, 64))
            qp_ab.connect(qp_ba)
            ep_a._wire_peer(ep_b, qp_ab)
            ep_b._wire_peer(ep_a, qp_ba)
    # the out-of-band directory: rejoin re-reads peer rkeys through this
    # (the crash-recovery analogue of the PMI exchange above)
    mesh = {ep.rank: ep for ep in endpoints}
    for ep in endpoints:
        ep._mesh = mesh
    return endpoints
