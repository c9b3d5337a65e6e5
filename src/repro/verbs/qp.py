"""Reliable-connection queue pairs.

A :class:`QueuePair` is connected point-to-point to a peer QP on another
rank (or the same rank — loopback works).  It supports the work-request
opcodes Photon and minimpi need:

- ``SEND`` / posted receives with tag-free FIFO matching (RC semantics:
  the n-th send on a QP consumes the n-th posted receive),
- ``RDMA_WRITE`` and ``RDMA_WRITE_WITH_IMM`` (the latter consumes a receive
  and raises a completion with 32-bit immediate data at the target),
- ``RDMA_READ``,
- ``ATOMIC_FETCH_ADD`` / ``ATOMIC_CMP_SWAP`` on 8-byte words.

Completion semantics follow the hardware: the sender-side completion for a
write/send fires after the (modelled) transport ack returns; reads and
atomics complete when the response data lands.  Unsignaled work requests
consume a send-queue slot but produce no CQE.  A write, read or atomic the
target refuses (unknown rkey, out of its region, missing permission)
places nothing: its request crosses the wire without payload and the NAK
returns like an ack, completing the WR with ``REM_ACCESS_ERR`` and moving
the QP to ERROR.

Cost accounting: ``post_send``/``post_recv`` are zero-time bookkeeping —
callers charge the host-CPU post overhead via :meth:`post_send_timed` (or
charge ``NicParams.post_overhead_ns`` themselves).  The doorbell delay
(post → NIC sees the WQE) is modelled inside ``post_send``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, Optional, Tuple

from ..fabric.nic import CTRL_BYTES, WireMsg
from .cq import CompletionQueue, WorkCompletion
from .device import Context, ProtectionDomain
from .enums import Access, Opcode, QPState, WCOpcode, WCStatus
from .errors import (
    BadWorkRequest,
    NotConnected,
    ProtectionError,
    QueueFullError,
)

__all__ = ["SendWR", "RecvWR", "QueuePair", "connect_pair"]

_U64_MASK = (1 << 64) - 1

_WC_OPCODES = {
    Opcode.SEND: WCOpcode.SEND,
    Opcode.RDMA_WRITE: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_WRITE_WITH_IMM: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_READ: WCOpcode.RDMA_READ,
    Opcode.ATOMIC_FETCH_ADD: WCOpcode.ATOMIC,
    Opcode.ATOMIC_CMP_SWAP: WCOpcode.ATOMIC,
}


def _wc_opcode(op: Opcode) -> WCOpcode:
    return _WC_OPCODES[op]


@dataclass
class SendWR:
    """A send-queue work request."""

    opcode: Opcode
    wr_id: int = 0
    #: local buffer (source for SEND/WRITE, destination for READ/ATOMIC)
    local_addr: int = 0
    length: int = 0
    #: remote buffer + key (for RDMA/atomic opcodes)
    remote_addr: int = 0
    rkey: int = 0
    #: 32-bit immediate for RDMA_WRITE_WITH_IMM
    imm: Optional[int] = None
    #: request a completion (selective signalling)
    signaled: bool = True
    #: carry the payload in the WQE (no DMA fetch); length must be within
    #: NicParams.max_inline
    inline: bool = False
    #: atomic operands
    compare_add: int = 0
    swap: int = 0


@dataclass
class RecvWR:
    """A receive-queue work request (landing buffer for SEND / IMM)."""

    wr_id: int = 0
    addr: int = 0
    length: int = 0


class QueuePair:
    """One side of a reliable connection (see module docstring)."""

    def __init__(self, context: Context, pd: ProtectionDomain,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue,
                 qp_num: int, max_send_wr: int, max_recv_wr: int):
        self.context = context
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qp_num = qp_num
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.state = QPState.RESET
        self.peer: Optional["QueuePair"] = None
        self._sq_outstanding = 0
        self._rq: Deque[RecvWR] = deque()
        #: messages that arrived before a receive was posted (RNR)
        self._rnr: Deque[WireMsg] = deque()
        #: in-flight send WRs by tracking token — the flush set when the QP
        #: enters ERROR, and the guard that late wire callbacks check
        self._pending: Dict[int, Tuple[SendWR, WCOpcode]] = {}
        self._wr_token = 0

    # -- connection ------------------------------------------------------------
    def connect(self, peer: "QueuePair") -> None:
        if self.state is not QPState.RESET or peer.state is not QPState.RESET:
            raise NotConnected("both QPs must be in RESET to connect")
        self.peer = peer
        peer.peer = self
        self.state = peer.state = QPState.READY

    @property
    def remote_rank(self) -> int:
        if self.peer is None:
            raise NotConnected("QP has no peer")
        return self.peer.context.rank

    @property
    def sq_available(self) -> int:
        return self.max_send_wr - self._sq_outstanding

    @property
    def rq_posted(self) -> int:
        return len(self._rq)

    # -- receive side ----------------------------------------------------------
    def post_recv(self, wr: RecvWR) -> None:
        if self.state is not QPState.READY:
            raise NotConnected("post_recv on unconnected QP")
        if len(self._rq) >= self.max_recv_wr:
            raise QueueFullError(
                f"rank {self.context.rank} qp{self.qp_num}: RQ full "
                f"({self.max_recv_wr})")
        if wr.length:
            self.pd.find_local(wr.addr, wr.length, Access.LOCAL_WRITE)
        self._rq.append(wr)
        if self._rnr:
            msg = self._rnr.popleft()
            self.context.counters.add("verbs.rnr_drains")
            self.context.env.process(self._complete_rnr(msg),
                                     name="qp:rnr-drain")

    def _complete_rnr(self, msg: WireMsg):
        yield self.context.env.timeout(self.context.params.nic.rnr_retry_ns)
        self._deliver_to_rq(msg)

    # -- send side ----------------------------------------------------------------
    def post_send_timed(self, wr: SendWR):
        """Charge the host post overhead, then post (generator)."""
        yield self.context.env.timeout(self.context.params.nic.post_overhead_ns)
        self.post_send(wr)

    def post_send(self, wr: SendWR) -> None:
        """Validate, account and hand the WR to the NIC (zero host time)."""
        if self.state is QPState.ERROR:
            # real RC behaviour: posting to an errored QP immediately
            # flushes the WR (error completions are always signalled)
            self.context.counters.add("qp.flushes")
            self.send_cq.push(WorkCompletion(
                wr_id=wr.wr_id, opcode=_wc_opcode(wr.opcode),
                status=WCStatus.WR_FLUSH_ERR, src_rank=self.remote_rank,
                qp_num=self.qp_num))
            return
        if self.state is not QPState.READY:
            raise NotConnected("post_send on unconnected QP")
        if self._sq_outstanding >= self.max_send_wr:
            raise QueueFullError(
                f"rank {self.context.rank} qp{self.qp_num}: SQ full "
                f"({self.max_send_wr}); drain completions before posting")
        nic_params = self.context.params.nic
        if wr.inline and wr.length > nic_params.max_inline:
            raise BadWorkRequest(
                f"inline length {wr.length} > max_inline "
                f"{nic_params.max_inline}")
        if wr.imm is not None and not (0 <= wr.imm < (1 << 32)):
            raise BadWorkRequest(f"immediate {wr.imm:#x} does not fit 32 bits")
        msg = self._build(wr)
        self._sq_outstanding += 1
        self.context.counters.add("verbs.post_send")
        # doorbell as a raw timer callback: same transmit instant as the
        # old per-post process, without the Process/Initialize machinery
        dt = self.context.env.timeout(nic_params.doorbell_ns)
        dt.callbacks.append(partial(self._doorbell_fire, msg))

    def _doorbell_fire(self, msg: WireMsg, _ev) -> None:
        self.context.nic.transmit(msg)

    # -- WR -> WireMsg translation ---------------------------------------------
    def _build(self, wr: SendWR) -> WireMsg:
        op = wr.opcode
        if op is Opcode.SEND:
            return self._build_send(wr)
        if op in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM):
            return self._build_write(wr)
        if op is Opcode.RDMA_READ:
            return self._build_read(wr)
        if op in (Opcode.ATOMIC_FETCH_ADD, Opcode.ATOMIC_CMP_SWAP):
            return self._build_atomic(wr)
        raise BadWorkRequest(f"unsupported opcode {op}")

    def _local_fetch(self, wr: SendWR):
        mr = self.pd.find_local(wr.local_addr, wr.length)
        mem = self.context.memory
        base = wr.local_addr
        return lambda off, size: mem.read(base + off, size)

    def _source_callbacks(self, wr: SendWR, wc_opcode: WCOpcode):
        """(done, fail) callback pair for one tracked send WR.

        Exactly one of the two takes effect; whichever fires second (a late
        wire event after a flush, say) finds the token gone and is ignored.
        """
        self._wr_token += 1
        token = self._wr_token
        self._pending[token] = (wr, wc_opcode)

        def done():
            if self._pending.pop(token, None) is None:
                return
            self._sq_outstanding -= 1
            if wr.signaled:
                self.send_cq.push(WorkCompletion(
                    wr_id=wr.wr_id, opcode=wc_opcode, byte_len=wr.length,
                    src_rank=self.remote_rank, qp_num=self.qp_num))

        def fail(status: WCStatus = WCStatus.RETRY_EXC_ERR):
            if self._pending.pop(token, None) is None:
                return
            self._sq_outstanding -= 1
            self.context.counters.add("qp.wr_errors")
            self.send_cq.push(WorkCompletion(
                wr_id=wr.wr_id, opcode=wc_opcode, status=status,
                src_rank=self.remote_rank, qp_num=self.qp_num))
            self._enter_error()

        return done, fail

    def _refused(self, wr: SendWR, wc_opcode: WCOpcode,
                 kind: str) -> WireMsg:
        """The request of a WR the target's NIC refuses: no payload, and a
        NAK one ack's return trip after it lands."""
        _done, fail = self._source_callbacks(wr, wc_opcode)
        return WireMsg(
            src=self.context.rank, dst=self.remote_rank, nbytes=0, kind=kind,
            on_acked=lambda: fail(WCStatus.REM_ACCESS_ERR), on_error=fail,
            ack=True)

    # -- error state -----------------------------------------------------------
    def teardown(self) -> None:
        """Administrative teardown (crash injection / dead-peer cleanup).

        Forces the QP into ERROR so every pending send WR and posted
        receive flushes with ``WR_FLUSH_ERR`` through the normal CQ
        paths — the hook chaos and the health layer use to reclaim SQ
        slots that would otherwise leak against an unresponsive peer.
        """
        self._enter_error()

    def _enter_error(self) -> None:
        """Transition to ERROR and flush everything outstanding.

        All pending send WRs and posted receives complete with
        ``WR_FLUSH_ERR``; RNR-parked messages are dropped (the connection
        is considered torn down).
        """
        if self.state is QPState.ERROR:
            return
        self.state = QPState.ERROR
        self.context.counters.add("qp.errors")
        for wr, wc_opcode in self._pending.values():
            self._sq_outstanding -= 1
            self.context.counters.add("qp.flushes")
            self.send_cq.push(WorkCompletion(
                wr_id=wr.wr_id, opcode=wc_opcode,
                status=WCStatus.WR_FLUSH_ERR, src_rank=self.remote_rank,
                qp_num=self.qp_num))
        self._pending.clear()
        for rwr in self._rq:
            self.context.counters.add("qp.flushes")
            self.recv_cq.push(WorkCompletion(
                wr_id=rwr.wr_id, opcode=WCOpcode.RECV,
                status=WCStatus.WR_FLUSH_ERR, src_rank=self.remote_rank,
                qp_num=self.qp_num))
        self._rq.clear()
        self._rnr.clear()

    def reset_and_reconnect(self) -> None:
        """Re-arm an errored connection (both ends back to READY).

        The errored side has already flushed its queues in
        :meth:`_enter_error`; a healthy peer keeps its in-flight state (in
        this model the wire is connectionless — QP state only gates
        posting and delivery).  Receives must be re-posted by the user.
        """
        if self.peer is None:
            raise NotConnected("reset_and_reconnect needs a connected pair")
        for qp in (self, self.peer):
            if qp.state is QPState.ERROR:
                qp._pending.clear()
                qp._rnr.clear()
            qp.state = QPState.READY
        self.context.counters.add("qp.reconnects")

    def _build_send(self, wr: SendWR) -> WireMsg:
        inline_data = None
        fetch = None
        if wr.length:
            if wr.inline:
                mr = self.pd.find_local(wr.local_addr, wr.length)
                # inline payloads are captured at post time (they travel in
                # the WQE), so this must be an owned snapshot, not a view
                inline_data = self.context.memory.read_bytes(
                    wr.local_addr, wr.length)
            else:
                fetch = self._local_fetch(wr)
        peer = self.peer
        done, fail = self._source_callbacks(wr, WCOpcode.SEND)
        msg = WireMsg(
            src=self.context.rank, dst=self.remote_rank, nbytes=wr.length,
            kind="send", fetch=fetch, inline_data=inline_data,
            on_delivered=lambda nic, m: peer._on_send_arrival(m),
            on_acked=done, on_error=fail,
            ack=True, meta={"imm": wr.imm})
        return msg

    def _build_write(self, wr: SendWR) -> WireMsg:
        target = self.peer.context
        with_imm = wr.opcode is Opcode.RDMA_WRITE_WITH_IMM
        kind = "write_imm" if with_imm else "write"
        try:
            target.check_remote(wr.rkey, wr.remote_addr, wr.length,
                                Access.REMOTE_WRITE)
        except ProtectionError:
            return self._refused(wr, WCOpcode.RDMA_WRITE, kind)
        inline_data = None
        fetch = None
        if wr.length:
            if wr.inline:
                self.pd.find_local(wr.local_addr, wr.length)
                # capture-at-post semantics: snapshot, not a live view
                inline_data = self.context.memory.read_bytes(
                    wr.local_addr, wr.length)
            else:
                fetch = self._local_fetch(wr)
        tmem = target.memory
        base = wr.remote_addr
        peer = self.peer
        done, fail = self._source_callbacks(wr, WCOpcode.RDMA_WRITE)
        msg = WireMsg(
            src=self.context.rank, dst=self.remote_rank, nbytes=wr.length,
            kind=kind,
            fetch=fetch, inline_data=inline_data,
            place=lambda off, data: tmem.write(base + off, data),
            on_delivered=(lambda nic, m: peer._on_imm_arrival(m))
            if with_imm else None,
            on_acked=done, on_error=fail,
            ack=True, meta={"imm": wr.imm})
        return msg

    def _build_read(self, wr: SendWR) -> WireMsg:
        target = self.peer.context
        try:
            target.check_remote(wr.rkey, wr.remote_addr, wr.length,
                                Access.REMOTE_READ)
        except ProtectionError:
            return self._refused(wr, WCOpcode.RDMA_READ, "read_req")
        self.pd.find_local(wr.local_addr, wr.length, Access.LOCAL_WRITE)
        lmem = self.context.memory
        tmem = target.memory
        lbase, rbase, length = wr.local_addr, wr.remote_addr, wr.length
        complete, fail = self._source_callbacks(wr, WCOpcode.RDMA_READ)
        me = self.context.rank
        remote = self.remote_rank

        def on_request(target_nic, m):
            # a lost response fails the requester's WR, like a lost request
            resp = WireMsg(
                src=remote, dst=me, nbytes=length, kind="read_resp",
                fetch=lambda off, size: tmem.read(rbase + off, size),
                place=lambda off, data: lmem.write(lbase + off, data),
                on_delivered=lambda nic, m2: complete(),
                on_error=fail)
            target_nic.respond(resp)

        return WireMsg(src=me, dst=remote, nbytes=0, kind="read_req",
                       on_delivered=on_request, on_error=fail)

    def _build_atomic(self, wr: SendWR) -> WireMsg:
        if wr.length not in (0, 8):
            raise BadWorkRequest("atomics operate on 8-byte words")
        wr.length = 8
        target = self.peer.context
        try:
            target.check_remote(wr.rkey, wr.remote_addr, 8,
                                Access.REMOTE_ATOMIC)
        except ProtectionError:
            return self._refused(wr, WCOpcode.ATOMIC, "atomic_req")
        self.pd.find_local(wr.local_addr, 8, Access.LOCAL_WRITE)
        lmem = self.context.memory
        tmem = target.memory
        lbase, rbase = wr.local_addr, wr.remote_addr
        op = wr.opcode
        compare_add, swap = wr.compare_add, wr.swap
        complete, fail = self._source_callbacks(wr, WCOpcode.ATOMIC)
        me = self.context.rank
        remote = self.remote_rank
        atomic_ns = target.params.nic.atomic_ns
        env = self.context.env

        def on_request(target_nic, m):
            def respond():
                yield env.timeout(atomic_ns)
                old = tmem.read_u64(rbase)
                if op is Opcode.ATOMIC_FETCH_ADD:
                    tmem.write_u64(rbase, (old + compare_add) & _U64_MASK)
                else:  # CMP_SWAP
                    if old == compare_add:
                        tmem.write_u64(rbase, swap)
                resp = WireMsg(
                    src=remote, dst=me, nbytes=8, kind="atomic_resp",
                    inline_data=old.to_bytes(8, "little"),
                    place=lambda off, data: lmem.write(lbase + off, data),
                    on_delivered=lambda nic, m2: complete(),
                    on_error=fail)
                target_nic.respond(resp)

            env.process(respond(), name="qp:atomic")

        # the atomic request carries its operands (16 bytes on the wire is
        # folded into CTRL_BYTES)
        return WireMsg(src=me, dst=remote, nbytes=0, kind="atomic_req",
                       on_delivered=on_request, on_error=fail)

    # -- target-side arrivals ------------------------------------------------------
    def _on_send_arrival(self, msg: WireMsg) -> None:
        if self._rnr or not self._rq:
            self.context.counters.add("verbs.rnr_stalls")
            self._rnr.append(msg)
            return
        self._deliver_to_rq(msg)

    def _on_imm_arrival(self, msg: WireMsg) -> None:
        # WRITE_WITH_IMM: data already placed; consumes a receive for the
        # notification only.
        if self._rnr or not self._rq:
            self.context.counters.add("verbs.rnr_stalls")
            self._rnr.append(msg)
            return
        self._deliver_to_rq(msg)

    def _deliver_to_rq(self, msg: WireMsg) -> None:
        if self.state is not QPState.READY:
            # flushed while an RNR drain was in flight — drop on the floor
            self.context.counters.add("verbs.dropped_arrivals")
            return
        if not self._rq:
            self._rnr.append(msg)
            return
        wr = self._rq.popleft()
        status = WCStatus.SUCCESS
        byte_len = msg.nbytes
        if msg.kind == "send":
            if msg.nbytes > wr.length:
                status = WCStatus.LOC_LEN_ERR
                byte_len = 0
            elif msg.nbytes:
                self.context.memory.write(wr.addr, msg.collect_rx())
            opcode = WCOpcode.RECV
        else:  # write_imm — payload already placed at the WR's target addr
            opcode = WCOpcode.RECV_RDMA_WITH_IMM
        self.recv_cq.push(WorkCompletion(
            wr_id=wr.wr_id, opcode=opcode, status=status, byte_len=byte_len,
            imm=msg.meta.get("imm"), src_rank=msg.src, qp_num=self.qp_num))


def connect_pair(a: QueuePair, b: QueuePair) -> None:
    """Convenience: connect two queue pairs."""
    a.connect(b)
