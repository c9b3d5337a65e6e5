"""Reference scheduler: the textbook binary heap the calendar queue replaced.

:class:`HeapEnvironment` orders events by ``(time, priority, seq)`` tuples
on one ``heapq`` — the literal statement of the kernel's firing contract.
It lives in the test tree only: production code has no hook for it.  It
plugs in by overriding the kernel's one scheduling entry point
(``_schedule``) and every method that reads the calendar structures.
Tests hand it to model code with
``monkeypatch.setattr("repro.cluster.Environment", HeapEnvironment)``.
"""

from __future__ import annotations

import heapq

import repro.sim.core as core
from repro.sim.core import NORMAL, Environment, Event, SimulationError
from tests import stepping


class HeapEnvironment(Environment):
    def __init__(self):
        super().__init__()
        self._heap: list = []
        self._seq = 0

    def _schedule(self, event: Event, delay: int, priority: int = NORMAL):
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._heap,
                       (self.now + delay, priority, self._seq, event))

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
        self.now, _prio, _seq, event = heapq.heappop(self._heap)
        self.events_processed += 1
        core._PROCESSED_TOTAL += 1
        callbacks, event.callbacks = event.callbacks, None
        for fn in callbacks:
            fn(event)
        event._processed = True
        if event._ok is False and not callbacks:
            raise event._value

    run = stepping.run
