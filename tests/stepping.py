"""The calendar-queue kernel one event at a time, and ``AnyOf``.

``Environment.run`` fires events in one inlined loop; tests that want to
look between two firings use :func:`peek` (the next event's instant, or
None once nothing is scheduled) and :func:`step` (fire exactly one).  They
read the same calendar structures ``run`` does and keep its firing
contract: urgent before normal at one instant, append order within a
priority, a failed event nobody waited on raises.  ``HeapEnvironment``
(``heap_oracle``) has its own ``peek`` / ``step``, so both functions defer
to those methods when present.  :func:`run` is ``Environment.run`` one
``env.step()`` at a time, for a kernel that overrides ``step``;
:class:`SteppedEnvironment` is the calendar kernel run that way, logging
each firing.

:class:`AnyOf` is the condition no model code needs: it fires once any of
its events has fired.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

import repro.sim.core as core
from repro.sim.core import Condition, Environment, Event, SimulationError


class AnyOf(Condition):
    """Condition that fires when at least one event has fired."""

    __slots__ = ()

    def __init__(self, env: Environment, events: Iterable[Event]):
        super().__init__(env, lambda evs, n: n >= 1, events)


def advance_bucket(env: Environment) -> bool:
    """Move the earliest future bucket onto the current-instant deques,
    advancing the clock to it; False once only withdrawn timestamps were
    left."""
    while env._ts_heap:
        t = heapq.heappop(env._ts_heap)
        bucket = env._buckets.pop(t, None)
        if bucket is None:
            continue  # emptied by unschedule()
        env.now = t
        env._cur[0].extend(bucket[0])
        env._cur[1].extend(bucket[1])
        return True
    return False


def calendar_peek(env: Environment) -> Optional[int]:
    """The calendar queue's next instant (see :func:`peek`)."""
    if env._cur[0] or env._cur[1]:
        return env.now
    ts_heap = env._ts_heap
    while ts_heap and ts_heap[0] not in env._buckets:
        heapq.heappop(ts_heap)  # emptied by unschedule()
    return ts_heap[0] if ts_heap else None


def calendar_step(env: Environment) -> None:
    """Fire the calendar queue's next event (see :func:`step`)."""
    cur_urgent, cur_normal = env._cur
    if not cur_urgent and not cur_normal and not advance_bucket(env):
        raise SimulationError("step() on empty event queue")
    event = cur_urgent.popleft() if cur_urgent else cur_normal.popleft()
    env.events_processed += 1
    core._PROCESSED_TOTAL += 1
    callbacks, event.callbacks = event.callbacks, None
    for fn in callbacks:
        fn(event)
    event._processed = True
    if event._ok is False and not callbacks:
        raise event._value


def peek(env: Environment) -> Optional[int]:
    """Timestamp of the next event, or None if the queue is empty."""
    return env.peek() if hasattr(env, "peek") else calendar_peek(env)


def step(env: Environment) -> None:
    """Fire the single next event (advancing the clock to it)."""
    return env.step() if hasattr(env, "step") else calendar_step(env)


def run(env: Environment, until=None):
    """``Environment.run`` through ``env.peek()`` / ``env.step()``; a
    kernel class that overrides those takes it as its ``run``."""
    if isinstance(until, Event):
        while not until._processed:
            if env.peek() is None:
                raise SimulationError(
                    "event queue drained before the awaited event fired")
            env.step()
        if until._ok:
            return until._value
        raise until._value
    deadline = None if until is None else int(until)
    if deadline is not None and deadline < env.now:
        raise SimulationError("run(until=...) deadline is in the past")
    while True:
        nxt = env.peek()
        if nxt is None or (deadline is not None and nxt > deadline):
            break
        env.step()
    if deadline is not None:
        env.now = deadline
    return None


class SteppedEnvironment(Environment):
    """The calendar kernel fired one :func:`calendar_step` at a time,
    logging each firing as ``(instant, event type)``; a subclass hooks
    ``_fired`` (``tests/measure.py``'s attributing kernel)."""

    run = run

    def __init__(self):
        super().__init__()
        self.log: list = []

    def _fired(self, event: Event) -> None:
        self.log.append((self.now, type(event).__name__))

    def peek(self):
        return calendar_peek(self)

    def step(self) -> None:
        if not (self._cur[0] or self._cur[1] or advance_bucket(self)):
            raise SimulationError("step() on empty event queue")
        self._fired(self._cur[0][0] if self._cur[0] else self._cur[1][0])
        calendar_step(self)
