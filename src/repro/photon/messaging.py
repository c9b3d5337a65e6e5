"""Rendezvous messaging over ledgers (Photon's two-sided emulation).

Large transfers whose destination buffer is *not* pre-exposed use the
classic Photon buffer-advertisement protocol:

1. sender: ``send_rdma`` — registers the source buffer (rcache), writes an
   :class:`~repro.photon.wire.InfoEntry` {tag, addr, size, rkey, req} into
   the receiver's info ledger, and returns a request id;
2. receiver: ``wait_recv_info`` — polls its info ledger for a matching
   (src, tag) advertisement;
3. receiver: ``recv_rdma`` — RDMA-READs the payload straight from the
   sender's buffer into the destination buffer (zero intermediate copies),
   then
4. receiver: writes a :class:`~repro.photon.wire.FinEntry` into the
   sender's FIN ledger, completing the sender's request.

Compared with MPI's rendezvous this costs *one* control write in each
direction and no tag-matching engine; compared with MPI's eager protocol
it has no bounce-buffer copy.  ``send_msg``/``recv_msg`` pick between the
eager (PWC send) and rendezvous paths on the eager limit, mirroring how
HPX-5 used the library.
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import SimulationError
from ..verbs.enums import WCStatus
from .ledger import FIN, INFO
from .wire import FinEntry, InfoEntry

__all__ = ["MessagingMixin", "ANY", "RecvInfo"]

#: wildcard for src/tag matching
ANY = -1


class RecvInfo:
    """A matched buffer advertisement, ready to be fetched."""

    __slots__ = ("src", "tag", "addr", "size", "rkey", "req")

    def __init__(self, entry: InfoEntry):
        self.src = entry.src
        self.tag = entry.tag
        self.addr = entry.addr
        self.size = entry.size
        self.rkey = entry.rkey
        self.req = entry.req


class MessagingMixin:
    """Adds the rendezvous protocol to the Photon endpoint."""

    # ------------------------------------------------------------------ sender
    def send_rdma(self, dst: int, local_addr: int, size: int, tag: int = 0):
        """Advertise a send buffer to ``dst``; returns request id (generator).

        The request completes (observe with ``wait``) when the receiver has
        fetched the data and FINed.
        """
        if size <= 0:
            raise SimulationError("send_rdma needs a positive size")
        if tag < 0:
            raise SimulationError("tags must be non-negative")
        req = self.requests.create(dst)
        req.span = self.counters.span("photon.rndv_send", self.env.now,
                                      peer=dst, nbytes=size)
        if dst == self.rank:
            # payload snapshot taken now, so the send completes immediately
            data = self.memory.read_bytes(local_addr, size)
            yield self.env.timeout(self.memory.memcpy_cost_ns(size))
            self._self_rendezvous.append((tag, data, req.rid))
            self.requests.complete(req.rid, self.env.now)
            self.arrivals.fire()
            return req.rid
        if self._dead_at_post(req):
            return req.rid
        peer = self._peer(dst)
        mr = yield from self.rcache.acquire(local_addr, size)
        rid = req.rid
        # the source stays pinned until the receiver has fetched + FINed
        # (or the request failed/was abandoned)
        req.on_settle = lambda: self.rcache.release_async(mr)

        def on_fail():
            # the advertisement never reached the peer: no receiver will
            # ever fetch + FIN, so settle the request as failed
            self.counters.add("photon.request_failures")
            self.requests.fail(rid, self.env.now)

        yield from self._entry_op(
            peer, "info", INFO,
            lambda seq, _op_id: InfoEntry(seq=seq, req=rid, tag=tag,
                                          addr=local_addr, size=size,
                                          rkey=mr.rkey, src=self.rank).pack(),
            on_fail)
        self.counters.add("photon.rendezvous_sends")
        return req.rid

    # ------------------------------------------------------------------ receiver
    def _find_info(self, src: int, tag: int) -> Optional[int]:
        for i, entry in enumerate(self.infos):
            if (src == ANY or entry.src == src) and \
                    (tag == ANY or entry.tag == tag):
                return i
        return None

    def _match_info(self, src: int, tag: int) -> Optional[RecvInfo]:
        i = self._find_info(src, tag)
        if i is None:
            return None
        entry = self.infos[i]
        del self.infos[i]
        return RecvInfo(entry)

    def wait_recv_info(self, src: int = ANY, tag: int = ANY,
                       timeout_ns: Optional[int] = None):
        """Poll for a matching buffer advertisement (generator).

        Returns a :class:`RecvInfo`, or None on timeout.
        """
        ok = yield from self._wait_until(
            lambda: self._find_info(src, tag) is not None, timeout_ns)
        return self._match_info(src, tag) if ok else None

    def recv_rdma(self, info: RecvInfo, local_addr: int):
        """Fetch an advertised buffer and FIN the sender (generator).

        Returns the number of bytes received.  The fetch is a
        :meth:`get_pwc`, whose idempotent read the reliability layer
        replays; one that still failed raises.
        """
        span = self.counters.span("photon.rndv_recv", self.env.now,
                                  peer=info.src, nbytes=info.size)
        op = yield from self.get_pwc(info.src, local_addr, info.size,
                                     info.addr, info.rkey)
        yield from self.wait_op(op)
        if op.status is not WCStatus.SUCCESS:
            if span is not None:
                span.end(self.env.now, status="failed")
            raise SimulationError(
                f"rank {self.rank}: rendezvous fetch from {info.src} failed "
                f"({op.status.value}) after {op.attempts} attempts")
        yield from self._post_fin(info)
        if span is not None:
            span.end(self.env.now, retries=op.attempts - 1)
        self.counters.add("photon.rendezvous_recvs")
        return info.size

    def _post_fin(self, info: RecvInfo):
        """FIN the sender of a fetched advertisement, completing its
        request (generator)."""
        yield from self._entry_op(
            self._peer(info.src), "fin", FIN,
            lambda seq, _op_id: FinEntry(seq=seq, req=info.req).pack())

    # ------------------------------------------------------------------ unified
    def send_msg(self, dst: int, data: bytes, tag: int = 0,
                 scratch_addr: Optional[int] = None):
        """Send a message of any size (generator): eager if it fits,
        rendezvous otherwise.

        For the rendezvous path the payload must already live in simulated
        memory; ``scratch_addr`` names a caller-owned staging area it is
        copied into (one send at a time per scratch area).  Returns when
        the payload is deliverable (eager) or fully fetched (rendezvous).
        """
        if len(data) <= self.config.eager_limit:
            yield from self.send_pwc(dst, data, remote_cid=tag)
            return
        if scratch_addr is None:
            raise SimulationError(
                "rendezvous send needs a scratch_addr staging buffer")
        self.memory.write(scratch_addr, data)
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(data)))
        rid = yield from self.send_rdma(dst, scratch_addr, len(data), tag)
        yield from self.wait(rid)
        self.free_request(rid)

    def recv_msg(self, src: int = ANY, tag: int = ANY,
                 scratch_addr: Optional[int] = None,
                 timeout_ns: Optional[int] = None):
        """Receive one message (generator): returns (src, tag, payload).

        Matches either an eager message or a rendezvous advertisement,
        whichever arrives first.
        """
        eager_match = (lambda s, c: (src == ANY or s == src)
                       and (tag == ANY or c == tag))

        def find_self_rdv() -> Optional[int]:
            if src not in (ANY, self.rank):
                return None
            for i, (t, _data, _rid) in enumerate(self._self_rendezvous):
                if tag == ANY or t == tag:
                    return i
            return None

        def present() -> bool:
            return (self._find_message(eager_match) is not None
                    or find_self_rdv() is not None
                    or self._find_info(src, tag) is not None)

        ok = yield from self._wait_until(present, timeout_ns)
        if not ok:
            return None
        m = self._pop_message(eager_match)
        if m is not None:
            s, c, data = m
            return (s, c, data)
        i = find_self_rdv()
        if i is not None:
            t, data, _rid = self._self_rendezvous.pop(i)
            return (self.rank, t, data)
        info = self._match_info(src, tag)
        if scratch_addr is None:
            raise SimulationError(
                "rendezvous receive needs a scratch_addr landing buffer")
        yield from self.recv_rdma(info, scratch_addr)
        # owned copy: the scratch landing area is reused by the next receive
        data = self.memory.read_bytes(scratch_addr, info.size)
        yield self.env.timeout(self.memory.memcpy_cost_ns(info.size))
        return (info.src, info.tag, data)
