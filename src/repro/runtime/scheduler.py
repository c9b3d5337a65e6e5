"""The per-rank runtime: parcel dispatch loop and local work queue.

One :class:`Runtime` per rank wraps a transport, an action registry and a
local double-ended work queue.  ``send`` ships work to a rank (short-
circuiting locally); ``progress`` pulls one parcel off the wire or the
local queue and runs its handler; ``process_until`` pumps the runtime
while waiting for a condition — handlers run inline, so a handler may
itself send parcels or wait on futures.  Between the passes that can find
something it parks on the transport's doorbell
(:func:`repro.sim.resources.poll_until`).
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Callable, Deque, Optional

from ..sim.core import Environment, SimulationError
from ..sim.resources import poll_until
from ..sim.trace import Counters
from .actions import ActionRegistry
from .parcel import Parcel

__all__ = ["Runtime"]

#: a parked ``process_until`` re-evaluates its predicate at least this often
#: (ns): the predicate may read state another rank's process flips — a
#: driver's "done" flag — which no arrival on this rank announces
RECHECK_NS = 10_000
#: fixed dispatch overhead per parcel (scheduler + action lookup), ns
HANDLER_COST_NS = 150


class Runtime:
    """Per-rank parcel runtime."""

    def __init__(self, rank: int, env: Environment, transport,
                 registry: ActionRegistry, counters=None):
        self.rank = rank
        self.env = env
        self.transport = transport
        self.registry = registry
        self.counters = counters or Counters()
        self._local: Deque[Parcel] = deque()
        transport.node.on_crash.append(self._on_crash)
        #: active-message engine (attach via :meth:`enable_am`); None
        #: keeps the plain-parcel fast path byte-identical
        self.am = None

    def _on_crash(self) -> None:
        """The rank crashed: drop what its incarnation queued for itself."""
        self._local.clear()

    def enable_am(self, config=None):
        """Attach an active-message engine; returns it (idempotent)."""
        if self.am is None:
            from .am import ActiveMessageEngine
            self.am = ActiveMessageEngine(self, config)
        return self.am

    # ------------------------------------------------------------------ send
    def send(self, dst: int, action: str, payload: bytes = b""):
        """Send a parcel (generator).  Local sends skip the wire."""
        parcel = Parcel(action=self.registry.id_of(action), src=self.rank,
                        payload=bytes(payload))
        self.counters.add("rt.parcels_sent")
        if dst == self.rank:
            self._enqueue_local(parcel)
            return
        yield from self.transport.send(dst, parcel.encode())

    def _enqueue_local(self, parcel: Parcel) -> None:
        """Queue a parcel for this rank; the rank's scheduler may be parked."""
        self._local.append(parcel)
        self.transport.arrivals.fire()

    def invoke(self, dst: int, action: str, payload: bytes = b""):
        """Remote invocation (generator → Future) — requires
        :meth:`enable_am`; see :mod:`repro.runtime.am`."""
        if self.am is None:
            raise SimulationError(
                "active messages not enabled on this runtime "
                "(call enable_am() or build_runtime(..., am=True))")
        fut = yield from self.am.invoke(dst, action, payload)
        return fut

    # ------------------------------------------------------------------ run
    def _dispatch(self, parcel: Parcel):
        """Run one parcel's handler inline (generator)."""
        yield self.env.timeout(HANDLER_COST_NS)
        handler = self.registry.handler(parcel.action)
        result = handler(self, parcel.src, parcel.payload)
        if inspect.isgenerator(result):
            yield from result
        self.counters.add("rt.parcels_run")

    def _run_parcel(self, parcel: Parcel):
        """Route one parcel: plain dispatch, or the AM engine for
        flagged parcels (generator)."""
        if parcel.flags:
            if self.am is None:
                raise SimulationError(
                    f"rank {self.rank}: active-message parcel "
                    "(flags set) but no AM engine attached")
            yield from self.am.handle(parcel)
            return
        yield from self._dispatch(parcel)

    def progress(self):
        """Process at most one parcel (generator → bool processed).

        Batches a coalescing transport holds past their latency bound
        ship from every pass — ``poll`` flushes them itself, and so does
        the local-parcel branch, so a rank grinding through local work
        cannot sit on a stale batch until its next ``poll``.
        """
        if self._local:
            yield from self.transport.flush_stale()
            yield from self._run_parcel(self._local.popleft())
            return True
        raw = yield from self.transport.poll()
        if raw is None:
            return False
        yield from self._run_parcel(Parcel.decode(raw))
        return True

    def _next_due(self) -> int:
        due = self.transport.next_deadline()
        recheck = self.env.now + RECHECK_NS
        return recheck if due is None or recheck < due else due

    def process_until(self, predicate: Callable[[], bool],
                      timeout_ns: Optional[int] = None):
        """Pump parcels until ``predicate()`` holds (generator → bool,
        False on timeout)."""
        return (yield from poll_until(self.transport.doorbell, self.progress,
                                      predicate, timeout_ns, self._next_due))

    def process_n(self, count: int, timeout_ns: Optional[int] = None):
        """Pump until ``count`` more parcels have run on this rank
        (``rt.parcels_run`` in its counter scope; generator)."""
        ran = self.counters.get
        target = ran("rt.parcels_run") + count
        ok = yield from self.process_until(
            lambda: ran("rt.parcels_run") >= target, timeout_ns)
        return ok
