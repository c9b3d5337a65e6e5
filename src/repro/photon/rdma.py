"""Request-tracked one-sided operations (photon_post_os_put / os_get).

These are the plain RMA verbs of the API: no completion identifiers, just
a request id observed with ``wait``/``test``.  Used directly by runtimes
for global-address-space reads/writes, and internally by the rendezvous
messaging protocol.
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import SimulationError
from ..verbs.enums import Opcode
from ..verbs.qp import SendWR
from .request import PhotonRequest

__all__ = ["RdmaMixin"]


class RdmaMixin:
    """Adds os_put/os_get/wait/test to the Photon endpoint."""

    def post_os_put(self, dst: int, local_addr: int, size: int,
                    remote_addr: int, rkey: int):
        """Post a one-sided put; returns the request id (generator)."""
        return self._post_os(Opcode.RDMA_WRITE, dst, local_addr, size,
                             remote_addr, rkey)

    def post_os_get(self, dst: int, local_addr: int, size: int,
                    remote_addr: int, rkey: int):
        """Post a one-sided get; returns the request id (generator)."""
        return self._post_os(Opcode.RDMA_READ, dst, local_addr, size,
                             remote_addr, rkey)

    def _post_os(self, opcode: Opcode, dst: int, local_addr: int, size: int,
                 remote_addr: int, rkey: int):
        """Post one request-tracked RDMA write or read (generator → rid).

        The local buffer stays pinned until the request settles: the ack
        completes it, a work-request error fails it.
        """
        put = opcode is Opcode.RDMA_WRITE
        if not put and size <= 0:
            raise SimulationError("get size must be positive")
        req = self.requests.create(dst)
        rid = req.rid
        if dst == self.rank:
            src, to = ((local_addr, remote_addr) if put
                       else (remote_addr, local_addr))
            yield from self._self_copy(src, to, size, None, None)
            self.requests.complete(rid, self.env.now)
            return rid
        if self._dead_at_post(req):
            return rid
        peer = self._peer(dst)
        mr = None
        if size > 0:
            mr = yield from self.rcache.acquire(local_addr, size)

        def on_ack():
            if mr is not None:
                self.rcache.release_async(mr)
            self.requests.complete(rid, self.env.now)

        def on_error():
            if mr is not None:
                self.rcache.release_async(mr)
            self.counters.add("photon.request_failures")
            self.requests.fail(rid, self.env.now)

        wr = SendWR(opcode=opcode, local_addr=local_addr, length=size,
                    remote_addr=remote_addr, rkey=rkey,
                    inline=put and size <= self._inline_max)
        yield from self._post(peer, wr, on_ack, on_error)
        self.counters.add("photon.os_puts" if put else "photon.os_gets")
        return rid

    # ------------------------------------------------------------------ waits
    def test(self, rid: int) -> bool:
        """Non-blocking settlement check (no progress, zero time).

        True once the request is terminal — completed *or* failed; check
        :meth:`request_info` ``.failed`` to distinguish.
        """
        return self.requests.get(rid).settled

    def wait(self, rid: int, timeout_ns: Optional[int] = None):
        """Poll progress until the request settles (generator).

        Returns True once the request is terminal (completed or failed —
        a request whose fabric retries were exhausted settles as failed
        instead of hanging the wait), False on timeout.  The request
        stays live until :meth:`free_request`.
        """
        return (yield from self._wait_until(
            lambda: self.requests.get(rid).settled, timeout_ns))

    def wait_all(self, rids, timeout_ns: Optional[int] = None):
        """Wait for a set of requests to settle (generator → bool)."""
        return (yield from self._wait_until(
            lambda: all(self.requests.get(r).settled for r in rids),
            timeout_ns))

    def wait_any(self, rids, timeout_ns: Optional[int] = None):
        """Wait for at least one of a set of requests (generator).

        Returns the first settled request id (earliest in ``rids``), or
        None on timeout.
        """
        rids = list(rids)
        if not rids:
            raise SimulationError("wait_any of an empty request set")
        ok = yield from self._wait_until(
            lambda: any(self.requests.get(r).settled for r in rids),
            timeout_ns)
        if not ok:
            return None
        for r in rids:
            if self.requests.get(r).settled:
                return r
        raise SimulationError("wait_any postcondition violated")

    def free_request(self, rid: int) -> None:
        self.requests.free(rid)

    def request_info(self, rid: int) -> PhotonRequest:
        return self.requests.get(rid)
