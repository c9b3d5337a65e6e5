"""Put/Get-With-Completion — Photon's signature interface.

``put_pwc`` writes local bytes into a pre-exposed remote buffer and carries
two completion identifiers: *local_cid* surfaces at the initiator when the
source buffer is reusable, *remote_cid* surfaces at the target (via a
completion-ledger write or, optionally, RDMA-write-with-immediate) once the
payload is visible there.  The target never posts a matching receive: it
discovers completions with ``probe_completion`` — active-message semantics
with no rendezvous and no tag matching.

``send_pwc`` is the buffer-less variant for small payloads: header+payload
land in the target's eager ring and surface through ``probe_message``.
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import SimulationError
from ..verbs.enums import Opcode, WCStatus
from ..verbs.qp import SendWR
from .base import Completion
from .wire import CompletionEntry, EagerHeader

__all__ = ["PwcMixin"]

_U32 = 1 << 32


class PwcMixin:
    """Adds the PWC operations to :class:`~repro.photon.base.PhotonBase`."""

    # ------------------------------------------------------------------ put
    def put_pwc(self, dst: int, local_addr: int, size: int, remote_addr: int,
                rkey: int, local_cid: Optional[int] = None,
                remote_cid: Optional[int] = None):
        """One-sided put with completion identifiers (generator).

        The local buffer is registered through the registration cache if
        not already covered.  Returns once the first attempt is *posted*;
        completions surface via :meth:`probe_completion`.  On a lossy
        fabric the operation is tracked by the reliability layer: failed
        or expired attempts are replayed (the data write is idempotent,
        the completion entry goes back into the slot it claimed) until
        success or ``max_op_retries`` is exhausted, at which point the
        local completion surfaces with ``WCStatus.RETRY_EXC_ERR``.
        Returns the op handle (:class:`~repro.photon.base.ReliableOp`;
        None for self-puts): ``op.status`` is None until the op settles.
        """
        if size < 0:
            raise SimulationError("negative put size")
        if dst == self.rank:
            yield from self._self_put(local_addr, size, remote_addr,
                                      local_cid, remote_cid)
            return None
        peer = self._peer(dst)
        mr = None
        if size > 0:
            mr = yield from self.rcache.acquire(local_addr, size)
        use_imm = self.config.use_imm and remote_cid is not None
        if use_imm and not 0 <= remote_cid < _U32:
            if mr is not None:
                yield from self.rcache.release(mr)
            raise SimulationError(
                f"immediate-mode remote cid {remote_cid} must fit 32 bits")
        op = self._new_reliable_op(peer, "put", local_cid)
        op.span = self.counters.span("photon.pwc_put", self.env.now,
                                     peer=dst, nbytes=size)
        if mr is not None:
            op.mrs.append(mr)

        def replay(op):
            on_ack, on_error = self._op_cbs(op, op.attempts)
            if use_imm:
                op.acks_pending = 1
                wr = SendWR(opcode=Opcode.RDMA_WRITE_WITH_IMM,
                            local_addr=local_addr, length=size,
                            remote_addr=remote_addr, rkey=rkey,
                            imm=remote_cid, inline=self._inline_ok(size))
                yield from self._post(peer, wr, on_ack, on_error)
                return
            op.acks_pending = ((1 if size > 0 else 0)
                               + (1 if remote_cid is not None else 0))
            if op.acks_pending == 0:
                # degenerate: nothing on the wire — complete locally now
                self._op_done(op)
                return
            if size > 0:
                wr = SendWR(opcode=Opcode.RDMA_WRITE, local_addr=local_addr,
                            length=size, remote_addr=remote_addr, rkey=rkey,
                            inline=self._inline_ok(size))
                yield from self._post(peer, wr, on_ack, on_error)
            if remote_cid is not None:
                yield from self._post_ring_entry(
                    peer, "cmp",
                    lambda seq: CompletionEntry(
                        seq=seq, cid=remote_cid, src=self.rank,
                        op=op.op_id).pack(),
                    on_ack=on_ack, on_error=on_error, op=op)

        op.replay = replay
        yield from self._start_attempt(op)
        self.counters.add("photon.pwc_puts")
        return op

    # ------------------------------------------------------------------ get
    def get_pwc(self, dst: int, local_addr: int, size: int, remote_addr: int,
                rkey: int, local_cid: Optional[int] = None,
                remote_cid: Optional[int] = None):
        """One-sided get with completion identifiers (generator).

        ``local_cid`` surfaces when the data has landed locally;
        ``remote_cid`` (if given) is then delivered to the *target* so it
        can learn its buffer was consumed.  RDMA reads are idempotent, so
        the reliability layer replays a lost read verbatim.  Returns the
        op handle (None for self-gets).
        """
        if size <= 0:
            raise SimulationError("get size must be positive")
        if dst == self.rank:
            yield from self._self_get(local_addr, size, remote_addr,
                                      local_cid, remote_cid)
            return None
        peer = self._peer(dst)
        mr = yield from self.rcache.acquire(local_addr, size)
        op = self._new_reliable_op(peer, "get", local_cid)
        op.span = self.counters.span("photon.pwc_get", self.env.now,
                                     peer=dst, nbytes=size)
        op.mrs.append(mr)
        if remote_cid is not None:
            notify = remote_cid
            op.on_done = lambda: self.env.process(
                self._notify_after_get(dst, notify), name="photon:gwc-notify")

        def replay(op):
            on_ack, on_error = self._op_cbs(op, op.attempts)
            op.acks_pending = 1
            wr = SendWR(opcode=Opcode.RDMA_READ, local_addr=local_addr,
                        length=size, remote_addr=remote_addr, rkey=rkey)
            yield from self._post(peer, wr, on_ack, on_error)

        op.replay = replay
        yield from self._start_attempt(op)
        self.counters.add("photon.pwc_gets")
        return op

    def _notify_after_get(self, dst: int, remote_cid: int):
        peer = self._peer(dst)
        op = self._new_reliable_op(peer, "notify", None)

        def replay(op):
            on_ack, on_error = self._op_cbs(op, op.attempts)
            op.acks_pending = 1
            yield from self._post_ring_entry(
                peer, "cmp",
                lambda seq: CompletionEntry(seq=seq, cid=remote_cid,
                                            src=self.rank, op=op.op_id).pack(),
                on_ack=on_ack, on_error=on_error, op=op)

        op.replay = replay
        yield from self._start_attempt(op)
        return op

    # ------------------------------------------------------------------ send
    def send_pwc(self, dst: int, data: bytes, remote_cid: int,
                 local_cid: Optional[int] = None):
        """Buffer-less eager message (generator).

        Payload must fit the eager limit; larger transfers use the
        rendezvous API (:meth:`send_rdma`).  Surfaces at the target via
        :meth:`probe_message` as ``(src, remote_cid, payload)``.  Replays
        rewrite the eager slot the first attempt claimed; the target still
        dedups by op id.  Returns the op handle (None for self-sends).
        """
        if len(data) > self.config.eager_limit:
            raise SimulationError(
                f"send_pwc payload {len(data)}B exceeds eager limit "
                f"{self.config.eager_limit}B; use send_rdma")
        if dst == self.rank:
            yield self.env.timeout(self.memory.memcpy_cost_ns(len(data)))
            self.messages.append((self.rank, remote_cid, bytes(data)))
            if local_cid is not None:
                self.local_cids.append((local_cid, WCStatus.SUCCESS))
            self.arrivals.fire()
            self.counters.add("photon.pwc_sends")
            return None
        peer = self._peer(dst)
        payload = bytes(data)
        op = self._new_reliable_op(peer, "send", local_cid)
        op.span = self.counters.span("photon.pwc_send", self.env.now,
                                     peer=dst, nbytes=len(payload))

        def replay(op):
            on_ack, on_error = self._op_cbs(op, op.attempts)
            op.acks_pending = 1

            def build(seq):
                header = EagerHeader(seq=seq, cid=remote_cid, src=self.rank,
                                     size=len(payload), op=op.op_id)
                return header.pack() + payload + seq.to_bytes(8, "little")

            yield from self._post_ring_entry(peer, "eager", build,
                                             on_ack=on_ack, on_error=on_error,
                                             op=op)

        op.replay = replay
        yield from self._start_attempt(op)
        self.counters.add("photon.pwc_sends")
        return op

    def wait_op(self, op, timeout_ns: Optional[int] = None):
        """Block (polling) until the op handle a PWC call returned settles
        (generator → :class:`~repro.photon.base.TimeoutStatus`); the
        outcome is ``op.status``."""
        return (yield from self._wait_until(
            lambda: op.status is not None, timeout_ns))

    # ------------------------------------------------------------------ probes
    def probe_completion(self, which: str = "any"):
        """One progress pass, then pop a completion if present (generator).

        ``which`` filters: "any", "local", or "remote".  Returns a
        :class:`~repro.photon.base.Completion` or None.
        """
        yield from self._progress_once()
        return self._pop_completion(which)

    def _peek_completion(self, which: str) -> bool:
        if which in ("any", "remote") and self.remote_cids:
            return True
        if which in ("any", "local") and self.local_cids:
            return True
        return False

    def _pop_completion(self, which: str) -> Optional[Completion]:
        if which in ("any", "remote") and self.remote_cids:
            cid, src = self.remote_cids.popleft()
            return Completion("remote", cid, src)
        if which in ("any", "local") and self.local_cids:
            cid, status = self.local_cids.popleft()
            return Completion("local", cid, self.rank, status)
        return None

    def wait_completion(self, which: str = "any",
                        timeout_ns: Optional[int] = None):
        """Block (polling) until a completion arrives (generator).

        Returns the completion, or None if ``timeout_ns`` expired.
        """
        ok = yield from self._wait_until(
            lambda: self._peek_completion(which), timeout_ns)
        return self._pop_completion(which) if ok else None

    def probe_message(self, match=None):
        """One progress pass, then pop an eager message (generator).

        ``match``: optional predicate over ``(src, cid)``.  Returns
        ``(src, cid, payload)`` or None.
        """
        yield from self._progress_once()
        return self._pop_message(match)

    def _find_message(self, match=None) -> Optional[int]:
        if not self.messages:
            return None
        for i, (src, cid, _data) in enumerate(self.messages):
            if match is None or match(src, cid):
                return i
        return None

    def _pop_message(self, match=None):
        i = self._find_message(match)
        if i is None:
            return None
        src, cid, data = self.messages[i]
        del self.messages[i]
        return (src, cid, data)

    def wait_message(self, match=None, timeout_ns: Optional[int] = None):
        """Block (polling) until a matching eager message arrives (generator)."""
        ok = yield from self._wait_until(
            lambda: self._find_message(match) is not None, timeout_ns)
        return self._pop_message(match) if ok else None

    # ------------------------------------------------------------------ self ops
    def _self_put(self, local_addr, size, remote_addr, local_cid, remote_cid):
        # owned snapshot: the source may be overwritten during the copy delay
        data = self.memory.read_bytes(local_addr, size) if size else b""
        yield self.env.timeout(self.memory.memcpy_cost_ns(size))
        if size:
            self.memory.write(remote_addr, data)
        if local_cid is not None:
            self.local_cids.append((local_cid, WCStatus.SUCCESS))
        if remote_cid is not None:
            self.remote_cids.append((remote_cid, self.rank))
        self.arrivals.fire()

    def _self_get(self, local_addr, size, remote_addr, local_cid, remote_cid):
        data = self.memory.read_bytes(remote_addr, size)
        yield self.env.timeout(self.memory.memcpy_cost_ns(size))
        self.memory.write(local_addr, data)
        if local_cid is not None:
            self.local_cids.append((local_cid, WCStatus.SUCCESS))
        if remote_cid is not None:
            self.remote_cids.append((remote_cid, self.rank))
        self.arrivals.fire()

    # ------------------------------------------------------------------ helpers
    def _inline_ok(self, size: int) -> bool:
        return (self.config.use_inline
                and size <= self.cluster.params.nic.max_inline)
