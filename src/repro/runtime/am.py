"""Active messages: typed remote invocation over the parcel machinery.

This is the Seriema/Active Access layer of the reproduction: handler
tables (the existing :class:`~repro.runtime.actions.ActionRegistry`),
invocation coalescing (:class:`~repro.runtime.coalesce.
CoalescingTransport` under the runtime) and credit-based backpressure
turn the raw one-sided parcel transport into an RPC substrate.

``rt.invoke(dst, action, payload)`` ships a **request** parcel carrying
a correlation id (``cid``) in the extended parcel header and returns a
:class:`~repro.runtime.lco.Future`.  The destination runs the action's
handler on arrival — dispatch-on-arrival, Active Access style — and
ships the handler's return value back as a **reply** parcel with the
same cid.  Replies are routed straight from the transport poll loop
(no scheduler dispatch charge): the poll that surfaces a reply settles
the future in the same pass.

Delivery semantics are at-least-once under the transport's retry
machinery, de-duplicated to effectively-once execution at the callee: a
bounded per-source window remembers recently served cids and re-sends
the cached reply for a retransmitted request instead of re-running the
handler.  Stale replies (reply arrives after the window forgot the
request, or a duplicate reply) are dropped and counted.

Backpressure is credit-based per destination: each in-flight invocation
to a rank consumes one credit, returned when its reply (or error)
arrives.  When credits run out the sender either **blocks** (pumping
the runtime until a credit frees — the default) or **sheds** with
:class:`CreditExhaustedError` (``on_exhausted="shed"``).

Handler contract for invoked actions: ``handler(rt, src, payload)``
returning the reply payload (``bytes``; ``None`` means ``b""``).
Generator handlers are driven to completion and their *return value* is
the reply.  A handler raising :class:`~repro.sim.core.SimulationError`
fails the caller's future with :class:`RemoteActionError` carrying the
message — errors are data, not silent drops.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.core import SimulationError
from .lco import Future
from .parcel import Parcel

__all__ = ["ActiveMessageEngine", "AmConfig", "CreditExhaustedError",
           "RemoteActionError", "AM_REQ", "AM_REP", "AM_ERR"]

#: parcel ``flags`` values (0 = plain parcel, never an active message)
AM_REQ = 1
AM_REP = 2
AM_ERR = 3


class CreditExhaustedError(SimulationError):
    """Raised by ``invoke`` in shed mode when a destination's credits
    are exhausted."""

    def __init__(self, rank: int, dst: int):
        super().__init__(f"rank {rank}: no invoke credits for dst {dst}")
        self.dst = dst


class RemoteActionError(SimulationError):
    """The remote handler raised; carries the remote error message."""

    def __init__(self, dst: int, action: str, message: str):
        super().__init__(f"action {action!r} failed on rank {dst}: "
                         f"{message}")
        self.dst = dst
        self.action = action
        self.remote_message = message


@dataclass(frozen=True)
class AmConfig:
    """Knobs for the active-message engine.

    ``credits_per_dest``: max in-flight invocations per destination.
    ``on_exhausted``: ``"block"`` (pump the runtime until a credit
    frees; honours ``credit_wait_ns``) or ``"shed"`` (raise
    :class:`CreditExhaustedError` immediately).
    ``dedup_window``: per-source count of served cids remembered for
    retransmit suppression.
    """

    credits_per_dest: int = 32
    on_exhausted: str = "block"
    credit_wait_ns: Optional[int] = None
    dedup_window: int = 512

    def __post_init__(self):
        if self.credits_per_dest < 1:
            raise SimulationError("credits_per_dest must be >= 1")
        if self.on_exhausted not in ("block", "shed"):
            raise SimulationError(
                f"on_exhausted must be 'block' or 'shed', "
                f"got {self.on_exhausted!r}")
        if self.dedup_window < 1:
            raise SimulationError("dedup_window must be >= 1")


class _Pending:
    """One in-flight invocation on the caller side."""

    __slots__ = ("future", "dst", "action", "t0", "span")

    def __init__(self, future, dst, action, t0, span):
        self.future = future
        self.dst = dst
        self.action = action
        self.t0 = t0
        self.span = span


class ActiveMessageEngine:
    """Per-rank invocation engine attached to a :class:`Runtime`."""

    def __init__(self, rt, config: Optional[AmConfig] = None):
        self.rt = rt
        self.config = config or AmConfig()
        self.counters = rt.counters
        self._next_cid = 1
        #: cid -> _Pending (caller side)
        self._pending: Dict[int, _Pending] = {}
        #: dst -> credits still available
        self._credits: Dict[int, int] = {}
        #: src -> OrderedDict(cid -> cached (flags, reply payload))
        self._served: Dict[int, OrderedDict] = {}

    # ------------------------------------------------------------- invoking
    def _take_credit(self, dst: int):
        """Acquire one invoke credit for ``dst`` (generator)."""
        cfg = self.config
        credits = self._credits.get(dst)
        if credits is None:
            credits = self._credits[dst] = cfg.credits_per_dest
        if credits <= 0:
            if cfg.on_exhausted == "shed":
                self.counters.add("am.credit_sheds")
                raise CreditExhaustedError(self.rt.rank, dst)
            self.counters.add("am.credit_stalls")
            ok = yield from self.rt.process_until(
                lambda: self._credits[dst] > 0, cfg.credit_wait_ns)
            if not ok:
                self.counters.add("am.credit_timeouts")
                raise CreditExhaustedError(self.rt.rank, dst)
        self._credits[dst] -= 1
        self.counters.set_gauge(f"am.credits.{dst}", self._credits[dst])

    def _return_credit(self, dst: int) -> None:
        self._credits[dst] = self._credits.get(
            dst, self.config.credits_per_dest - 1) + 1
        self.counters.set_gauge(f"am.credits.{dst}", self._credits[dst])

    def invoke(self, dst: int, action: str, payload: bytes = b""):
        """Start one remote invocation (generator → Future).

        The returned future settles when the reply arrives (value = the
        reply payload) or fails with :class:`RemoteActionError` /
        transport errors.  Local invocations (``dst == rank``) take the
        local queue, skipping the wire but running the same handler
        path.
        """
        rt = self.rt
        aid = rt.registry.id_of(action)
        now = rt.env.now
        yield from self._take_credit(dst)
        cid = self._next_cid
        self._next_cid += 1
        fut = Future()
        span = self.counters.span("am.invoke", now, peer=dst,
                                  nbytes=len(payload))
        self._pending[cid] = _Pending(fut, dst, action, now, span)
        self.counters.add("am.invokes")
        self.counters.set_gauge("am.pending", len(self._pending))
        parcel = Parcel(action=aid, src=rt.rank, payload=bytes(payload),
                        cid=cid, flags=AM_REQ)
        rt.parcels_sent += 1
        self.counters.add("rt.parcels_sent")
        if dst == rt.rank:
            rt._enqueue_local(parcel)
            return fut
        try:
            yield from rt.transport.send(dst, parcel.encode())
        except SimulationError as exc:
            # the invocation never left this rank: settle the future
            # with the transport error and give the credit back
            del self._pending[cid]
            self._settle_gauges()
            self._return_credit(dst)
            if span is not None:
                span.end(rt.env.now, status="send_failed")
            self.counters.add("am.send_failures")
            fut.fail(exc)
        return fut

    def _settle_gauges(self) -> None:
        self.counters.set_gauge("am.pending", len(self._pending))

    # ------------------------------------------------------------- handling
    def handle(self, parcel: Parcel):
        """Dispatch one active-message parcel (generator).

        Called by :meth:`Runtime.progress` for every parcel whose
        ``flags`` are non-zero — requests are charged like any parcel
        dispatch and run the handler; replies settle the caller's
        future directly from the poll loop.
        """
        if parcel.flags == AM_REQ:
            yield from self._handle_request(parcel)
        elif parcel.flags in (AM_REP, AM_ERR):
            self._handle_reply(parcel)
        else:
            raise SimulationError(
                f"unknown active-message flags {parcel.flags}")

    def _reply(self, parcel: Parcel, flags: int, payload: bytes):
        """Ship (or locally enqueue) the reply for a request (generator)."""
        rt = self.rt
        reply = Parcel(action=parcel.action, src=rt.rank, payload=payload,
                       cid=parcel.cid, flags=flags)
        if parcel.src == rt.rank:
            rt._enqueue_local(reply)
            return
        try:
            yield from rt.transport.send(parcel.src, reply.encode())
        except SimulationError:
            # the caller's retransmit/timeout machinery owns recovery;
            # we only account for the loss
            self.counters.add("am.reply_send_failures")

    def _handle_request(self, parcel: Parcel):
        rt = self.rt
        served = self._served.get(parcel.src)
        if served is None:
            served = self._served[parcel.src] = OrderedDict()
        cached = served.get(parcel.cid)
        if cached is not None:
            # retransmitted request: re-send the cached reply, never
            # re-run the handler (effectively-once execution)
            self.counters.add("am.duplicate_requests")
            yield from self._reply(parcel, cached[0], cached[1])
            return
        yield rt.env.timeout(rt.handler_cost_ns)
        handler = rt.registry.handler(parcel.action)
        try:
            result = handler(rt, parcel.src, parcel.payload)
            if hasattr(result, "send") and hasattr(result, "throw"):
                result = yield from result
            flags = AM_REP
            payload = b"" if result is None else bytes(result)
        except SimulationError as exc:
            self.counters.add("am.handler_errors")
            flags = AM_ERR
            payload = str(exc).encode()
        rt.parcels_run += 1
        self.counters.add("rt.parcels_run")
        self.counters.add("am.requests_served")
        served[parcel.cid] = (flags, payload)
        while len(served) > self.config.dedup_window:
            served.popitem(last=False)
        yield from self._reply(parcel, flags, payload)

    def _handle_reply(self, parcel: Parcel) -> None:
        pending = self._pending.pop(parcel.cid, None)
        if pending is None:
            # reply for a cid we no longer track (duplicate reply, or a
            # response that outlived the caller's interest)
            self.counters.add("am.stale_replies")
            return
        self._settle_gauges()
        self._return_credit(pending.dst)
        now = self.rt.env.now
        self.counters.observe(f"am.{pending.action}.latency_ns",
                              now - pending.t0)
        if parcel.flags == AM_ERR:
            self.counters.add("am.remote_errors")
            if pending.span is not None:
                pending.span.end(now, status="error")
            pending.future.fail(RemoteActionError(
                pending.dst, pending.action, parcel.payload.decode()))
            return
        self.counters.add("am.replies")
        if pending.span is not None:
            pending.span.end(now)
        pending.future.set(parcel.payload)

    # ------------------------------------------------------------- inspection
    def credits(self, dst: int) -> int:
        """Credits currently available for ``dst``."""
        return self._credits.get(dst, self.config.credits_per_dest)

    @property
    def pending(self) -> int:
        """Invocations awaiting a reply."""
        return len(self._pending)

    def stats(self) -> Dict[str, object]:
        """JSON-serializable engine snapshot (obs report section)."""
        return {
            "pending": len(self._pending),
            "credits": {str(d): c for d, c in sorted(self._credits.items())},
            "served_cached": {str(s): len(w)
                              for s, w in sorted(self._served.items())},
        }
