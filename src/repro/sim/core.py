"""Deterministic discrete-event simulation kernel.

This module provides the event loop that every other subsystem (fabric,
verbs, photon, minimpi, runtime) runs on.  It is deliberately small and
SimPy-flavoured:

- :class:`Environment` owns an integer-nanosecond clock and a calendar queue
  of pending events.
- :class:`Event` is a one-shot occurrence that callbacks can be attached to.
- :class:`Process` wraps a Python generator; the generator *yields* events
  and is resumed with the event's value when it fires, so simulated entities
  (NIC engines, rank programs, progress threads) read like straight-line
  code.
- :class:`Timeout` fires after a fixed delay and is how model costs (CPU
  overhead, wire time, DMA time) are charged.

Determinism: events scheduled for the same timestamp fire in priority
order, then in FIFO order of scheduling, so a given program produces an
identical trace on every run.  The clock is an ``int`` of nanoseconds — no
floating-point time drift.

The scheduler is a calendar/bucket queue: events due *now* live on two
plain FIFO deques (one per priority), future events hash into
per-timestamp buckets ordered by a small heap of distinct timestamps.
Insert and pop are O(1) amortized; the timestamp heap only pays O(log t)
per *distinct* future instant, which also covers far-future timers (phi
deadlines, leases) without a separate overflow structure.  The textbook
binary heap of ``(time, priority, seq, event)`` tuples it replaced lives
on in the test tree (``tests/heap_oracle.py``) as the executable
reference the property suite compares firing orders against.
"""

from __future__ import annotations

import heapq
from collections import deque
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "total_events_processed",
]

#: process-wide count of events fired across every Environment — the
#: denominator-free load figure behind the events/s headline metric
_PROCESSED_TOTAL = 0


def total_events_processed() -> int:
    """Events fired across all Environments since interpreter start."""
    return _PROCESSED_TOTAL


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not model errors)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries the value passed to ``interrupt()``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event priorities: events at the same timestamp fire in priority order,
# then in scheduling order.  URGENT is used internally for process
# resumption so that a process resumes before same-time timeouts scheduled
# later (matching SimPy semantics closely enough for our models).
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence on an :class:`Environment`'s timeline.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    schedules it to *trigger*, at which point its callbacks run and any
    process waiting on it resumes.  Events may trigger at most once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed")

    #: sentinel for "no value yet"
    _PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (value decided)."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value not decided yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event value not decided yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Decide the event successfully with ``value`` and schedule it now."""
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # delay 0: a plain FIFO append (inlined from _schedule — succeed is
        # one of the hottest kernel entry points; an undecided event cannot
        # have been scheduled yet)
        self._scheduled = True
        self.env._cur[priority].append(self)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Decide the event with an exception; waiters have it raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, 0, priority)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Attach ``fn`` to run when the event fires.

        If the event already fired, the callback runs immediately (on the
        caller's stack) — this keeps "subscribe after the fact" race-free.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay, NORMAL)


class Initialize(Event):
    """Internal: kicks off a newly created process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, 0, URGENT)


class Process(Event):
    """A simulated activity driven by a generator.

    The generator yields :class:`Event` instances; each time a yielded event
    fires the generator is resumed with ``event.value`` (or the event's
    exception is thrown into it).  When the generator returns, this Process
    — itself an Event — succeeds with the generator's return value, so
    processes can wait on each other.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume)
        self.env._schedule(event, 0, URGENT)

    # -- driver ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Detach from the event that woke us (it may not be our target when
        # interrupting).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        env = self.env
        env._active_process = self
        try:
            while True:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # mark the failure as "handled by a waiter"
                    next_event = self._generator.throw(event._value)
                if not isinstance(next_event, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded non-event "
                        f"{next_event!r}")
                if next_event.env is not env:
                    raise SimulationError(
                        "process yielded an event from another environment")
                if next_event.callbacks is not None:
                    # pending — park until it fires
                    self._target = next_event
                    next_event.callbacks.append(self._resume)
                    break
                # already processed — continue synchronously
                event = next_event
        except StopIteration as exc:
            self._ok = True
            self._value = exc.value
            env._schedule(self, 0, NORMAL)
        except BaseException as exc:
            if isinstance(exc, SimulationError):
                raise
            self._ok = False
            self._value = exc
            env._schedule(self, 0, NORMAL)
        finally:
            env._active_process = None


class Condition(Event):
    """Fires when ``evaluate(events, n_fired)`` becomes true.

    The condition's value is an ordered dict-like list of ``(event, value)``
    pairs for the events that have fired by trigger time.
    """

    __slots__ = ("_events", "_evaluate", "_fired")

    def __init__(self, env: "Environment", evaluate, events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._fired: List[Event] = []
        if not self._events:
            self.succeed([])
            return
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition spans environments")
            ev.add_callback(self._check)

    def _collect(self):
        # Preserve the order the caller listed the events in.
        fired = set(map(id, self._fired))
        return [(ev, ev._value) for ev in self._events if id(ev) in fired]

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._fired.append(event)
        if self._evaluate(self._events, len(self._fired)):
            self.succeed(self._collect())


class AllOf(Condition):
    """Condition that fires when all events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda evs, n: n == len(evs), events)


class AnyOf(Condition):
    """Condition that fires when at least one event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda evs, n: n >= 1, events)


class Environment:
    """Owns the clock and the pending-event calendar queue.

    Typical use::

        env = Environment()

        def program(env):
            yield env.timeout(100)
            return env.now

        proc = env.process(program(env))
        env.run()
        assert proc.value == 100
    """

    #: cap on recycled Timeout objects kept per environment
    _FREELIST_MAX = 8192

    def __init__(self, initial_time: int = 0):
        self._now = int(initial_time)
        #: events due at the current instant, one FIFO deque per priority
        #: (URGENT, NORMAL) — (priority, scheduling) order at one timestamp
        #: is exactly "drain urgent first, each in append order"
        self._cur = (deque(), deque())
        #: future timestamp -> ([urgent], [normal])
        self._buckets: dict = {}
        #: min-heap over the distinct future timestamps (each pushed
        #: exactly once, when its bucket is created)
        self._ts_heap: List[int] = []
        #: events fired on this environment (the events/s numerator)
        self.events_processed = 0
        self._active_process: Optional[Process] = None
        # Timeouts dominate event traffic (every modelled cost is one), so
        # processed instances are recycled instead of reallocated.  An
        # instance is only eligible once nothing outside step() can still
        # reach it — see the refcount guard there.
        self._timeout_freelist: List[Timeout] = []

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        freelist = self._timeout_freelist
        if freelist:
            delay = int(delay)
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay}")
            t = freelist.pop()
            t.delay = delay
            t._ok = True
            t._value = value
            # inlined _schedule (recycled timeouts are the single most
            # common scheduling operation)
            t._scheduled = True
            if delay == 0:
                self._cur[NORMAL].append(t)
            else:
                ts = self._now + delay
                bucket = self._buckets.get(ts)
                if bucket is None:
                    self._buckets[ts] = bucket = ([], [])
                    heapq.heappush(self._ts_heap, ts)
                bucket[NORMAL].append(t)
            return t
        return Timeout(self, int(delay), value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: int, priority: int = NORMAL) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        if delay == 0:
            # due at the current instant: plain FIFO append, no heap op
            self._cur[priority].append(event)
        else:
            t = self._now + delay
            bucket = self._buckets.get(t)
            if bucket is None:
                self._buckets[t] = bucket = ([], [])
                heapq.heappush(self._ts_heap, t)
            bucket[priority].append(event)

    def unschedule(self, event: Event, when: int) -> None:
        """Withdraw a scheduled, not yet fired ``event`` due at absolute
        time ``when``: it never fires and no longer holds the clock.

        This is what lets a waiter arm a far-off timer (a wait's timeout,
        a retry deadline) and drop it when the thing it was waiting for
        arrives first, without leaving the timer behind to be counted,
        fired and ignored.  A bucket emptied here leaves its timestamp on
        the heap; the pop side skips timestamps that have no bucket.
        """
        lanes = self._buckets[when] if when > self._now else self._cur
        try:
            lanes[NORMAL].remove(event)
        except ValueError:
            lanes[URGENT].remove(event)
        if when > self._now and not lanes[0] and not lanes[1]:
            del self._buckets[when]
        event._scheduled = False

    def _advance_bucket(self) -> bool:
        """Move the earliest future bucket onto the current-instant deques,
        advancing the clock to it; False once only withdrawn timestamps
        were left."""
        ts_heap = self._ts_heap
        while ts_heap:
            t = heapq.heappop(ts_heap)
            bucket = self._buckets.pop(t, None)
            if bucket is None:
                continue  # emptied by unschedule()
            self._now = t
            self._cur[0].extend(bucket[0])
            self._cur[1].extend(bucket[1])
            return True
        return False

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None if the queue is empty."""
        cur = self._cur
        if cur[0] or cur[1]:
            return self._now
        ts_heap = self._ts_heap
        while ts_heap and ts_heap[0] not in self._buckets:
            heapq.heappop(ts_heap)  # emptied by unschedule()
        return ts_heap[0] if ts_heap else None

    def step(self) -> None:
        """Fire the single next event (advancing the clock to it)."""
        global _PROCESSED_TOTAL
        cur_urgent, cur_normal = self._cur
        if not cur_urgent and not cur_normal:
            if not self._advance_bucket():
                raise SimulationError("step() on empty event queue")
        event = cur_urgent.popleft() if cur_urgent else cur_normal.popleft()
        self.events_processed += 1
        _PROCESSED_TOTAL += 1
        callbacks, event.callbacks = event.callbacks, None
        for fn in callbacks:
            fn(event)
        event._processed = True
        if event._ok is False and not callbacks:
            # A failed event (or crashed process) nobody waited on: surface
            # the error instead of silently swallowing it.
            raise event._value
        # Recycle plain Timeouts nobody can reach any more: the only live
        # references are this frame's ``event`` local and getrefcount's own
        # argument, i.e. a count of exactly 2.  Waiters detached above (the
        # callback list was swapped out), so reuse is invisible.  Exact type
        # check: subclasses may carry extra state.
        if (type(event) is Timeout and getrefcount(event) == 2
                and len(self._timeout_freelist) < self._FREELIST_MAX):
            callbacks.clear()
            event.callbacks = callbacks
            event._value = Event._PENDING
            event._scheduled = False
            event._processed = False
            self._timeout_freelist.append(event)

    def run(self, until: Any = None) -> Any:
        """Run until the queue drains, a deadline, or an event fires.

        ``until`` may be ``None`` (drain the queue), an ``int`` deadline in
        ns, or an :class:`Event` — in the latter case ``run`` returns the
        event's value (raising its exception if it failed).

        The hot loop is localized: deques, buckets, the timestamp heap and
        the Timeout freelist are all bound to locals, and the event-firing
        tail is inlined rather than calling :meth:`step` — at millions of
        events per run the attribute lookups and the extra frame are a
        measurable share of wall time.  The firing tail must stay inline
        anyway: the freelist's ``getrefcount(event) == 2`` guard counts on
        exactly one frame (this one) holding the ``event`` local.
        """
        global _PROCESSED_TOTAL
        stop: Optional[Event] = None
        deadline: Optional[int] = None
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            deadline = int(until)
            if deadline < self._now:
                raise SimulationError("run(until=...) deadline is in the past")
        cur_urgent, cur_normal = self._cur
        buckets = self._buckets
        ts_heap = self._ts_heap
        freelist = self._timeout_freelist
        freelist_max = self._FREELIST_MAX
        heappop = heapq.heappop
        pending_sentinel = Event._PENDING
        processed = 0
        try:
            while True:
                if stop is not None and stop._processed:
                    break
                if cur_urgent:
                    event = cur_urgent.popleft()
                elif cur_normal:
                    event = cur_normal.popleft()
                elif ts_heap:
                    if deadline is not None and ts_heap[0] > deadline:
                        break
                    t = heappop(ts_heap)
                    bucket = buckets.pop(t, None)
                    if bucket is None:
                        continue  # emptied by unschedule()
                    urgent, normal = bucket
                    self._now = t
                    if urgent:
                        cur_urgent.extend(urgent)
                        # drop the bucket's refs: they would otherwise
                        # linger in these locals and defeat the freelist's
                        # refcount guard for every event of the bucket
                        urgent.clear()
                    if normal:
                        cur_normal.extend(normal)
                        normal.clear()
                    continue
                else:
                    if stop is not None:
                        raise SimulationError(
                            "event queue drained before the awaited event "
                            "fired (deadlock in the model?)")
                    break
                processed += 1
                callbacks, event.callbacks = event.callbacks, None
                for fn in callbacks:
                    fn(event)
                event._processed = True
                if event._ok is False and not callbacks:
                    raise event._value
                # see step() for the freelist recycling contract
                if (type(event) is Timeout and getrefcount(event) == 2
                        and len(freelist) < freelist_max):
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = pending_sentinel
                    event._scheduled = False
                    event._processed = False
                    freelist.append(event)
        finally:
            self.events_processed += processed
            _PROCESSED_TOTAL += processed
        if stop is not None:
            if stop._ok:
                return stop._value
            raise stop._value
        if deadline is not None:
            self._now = deadline
        return None
