"""Reference scheduler: the textbook binary heap the calendar queue replaced.

:class:`HeapEnvironment` orders events by ``(time, priority, seq)`` tuples
on one ``heapq`` — the literal statement of the kernel's firing contract.
It lives in the test tree only: production code has no hook for it.  It
plugs in by replacing what the kernel's inlined fast paths touch
(``_cur[priority].append``) with heap-pushing appenders and overriding
every method that reads the calendar structures.  Tests hand it to model
code with ``monkeypatch.setattr("repro.cluster.Environment", HeapEnvironment)``.
"""

from __future__ import annotations

import heapq
from functools import partial
from types import SimpleNamespace

import repro.sim.core as core
from repro.sim.core import (NORMAL, URGENT, Environment, Event,
                            SimulationError, Timeout)
from tests import stepping


class HeapEnvironment(Environment):
    def __init__(self):
        super().__init__()
        self._heap: list = []
        self._seq = 0
        # stand-ins for the two current-instant deques: ``append`` pushes
        # onto the heap at delay 0 with that deque's priority
        self._cur = tuple(
            SimpleNamespace(append=partial(self._push, delay=0, priority=p))
            for p in (URGENT, NORMAL))

    def _push(self, event: Event, delay: int, priority: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap,
                       (self._now + delay, priority, self._seq, event))

    def timeout(self, delay: int, value=None) -> Timeout:
        return Timeout(self, int(delay), value)  # no freelist, no inlining

    def _schedule(self, event: Event, delay: int, priority: int = NORMAL):
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._push(event, delay, priority)

    def unschedule(self, event: Event, when: int) -> None:
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[3] is not event]
        heapq.heapify(heap)
        event._scheduled = False

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        if not self._heap:
            raise SimulationError("step() on empty event queue")
        self._now, _prio, _seq, event = heapq.heappop(self._heap)
        self.events_processed += 1
        core._PROCESSED_TOTAL += 1
        callbacks, event.callbacks = event.callbacks, None
        for fn in callbacks:
            fn(event)
        event._processed = True
        if event._ok is False and not callbacks:
            raise event._value

    run = stepping.run
