"""Shared-resource primitives for simulated entities.

Built on the :mod:`repro.sim.core` kernel:

- :class:`Store` — an unbounded/bounded FIFO of Python objects with
  event-returning ``put``/``get`` (models queues: work queues, completion
  queues, switch ports, DMA request rings).
- :class:`Signal` — a re-armable broadcast event (models doorbells and
  "work available" wakeups for polling loops), and :func:`poll_until`,
  the polling loop that sleeps on one.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from .core import Environment, Event, SimulationError

__all__ = ["Store", "Signal", "poll_until"]


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


class Store:
    """FIFO object store with blocking put/get semantics.

    ``capacity`` bounds the number of buffered items; ``put`` on a full
    store parks the producer until a consumer drains an item (backpressure —
    exactly how we model finite hardware queues such as QP send queues and
    ledger rings).
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; returns an event that fires once accepted."""
        return StorePut(self, item)

    def put_nowait(self, item: Any, delay: int = 0) -> None:
        """Append ``item`` without allocating a StorePut event.

        Only valid on unbounded stores (no backpressure to model); used on
        hot paths such as NIC work queues where the producer never waits.
        A parked getter is handed the item ``delay`` ns from now: a
        consumer whose first act on waking is to sleep a fixed stage cost
        has the producer pre-charge it, and is spared the wake at ``now``.
        """
        if self.capacity is not None:
            raise SimulationError("put_nowait on a bounded Store")
        if self._get_queue and not self.items:
            get = self._get_queue.popleft()
            if delay:
                get._ok = True
                get._value = item
                self.env._schedule(get, delay)
            else:
                get.succeed(item)
            return
        self.items.append(item)
        if self._get_queue:
            self._trigger()

    @property
    def waiting(self) -> bool:
        """A getter is parked: the next ``put_nowait`` is a hand-off."""
        return bool(self._get_queue)

    def get(self) -> StoreGet:
        """Remove the oldest item; returns an event whose value is the item."""
        return StoreGet(self)

    def try_get(self) -> Any:
        """Non-blocking get: returns an item or None (for polling models)."""
        if self.items and not self._get_queue:
            item = self.items.popleft()
            self._trigger()
            return item
        return None

    def _trigger(self) -> None:
        # Admit pending puts while there is room.
        progressed = True
        while progressed:
            progressed = False
            while self._put_queue and not self.full:
                put = self._put_queue.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            while self._get_queue and self.items:
                get = self._get_queue.popleft()
                get.succeed(self.items.popleft())
                progressed = True


class Signal:
    """A re-armable broadcast wakeup — the doorbell a polling loop sleeps on.

    ``wait()`` returns an event; ``fire(value)`` triggers *all* waiters
    registered so far and re-arms.  ``wait(until=t)`` also sets the
    signal's one alarm, so the waiters are woken at ``t`` at the latest;
    the alarm is withdrawn from the kernel as soon as the signal fires,
    so a far-off bound leaves nothing behind on the event queue.

    ``fires`` counts every ``fire()``, waiters or not: a loop that reads
    it before a progress pass and again after knows whether anything rang
    *during* the pass, which closes the gap between the pass's last check
    and the park (see :func:`poll_until`).

    ``relay``: a signal for a subset of another's events — arrivals among
    everything that rings a doorbell — rings that one too, after its own
    waiters.
    """

    def __init__(self, env: Environment, relay: Optional["Signal"] = None):
        self.env = env
        self.relay = relay
        self.fires = 0
        self._waiters: list = []
        self._alarm: Optional[Event] = None
        self._alarm_at = 0

    def wait(self, until: Optional[int] = None) -> Event:
        ev = Event(self.env)
        self._waiters.append(ev)
        if until is not None and (self._alarm is None
                                  or until < self._alarm_at):
            self._set_alarm(until)
        return ev

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        self.fires += 1
        waiters = self._waiters
        if waiters:
            self._waiters = []
            if self._alarm is not None:
                self.env.unschedule(self._alarm, self._alarm_at)
                self._alarm = None
            for ev in waiters:
                ev.succeed(value)
        if self.relay is not None:
            self.relay.fire(value)
        return len(waiters)

    def _set_alarm(self, at: int) -> None:
        env = self.env
        if self._alarm is not None:
            env.unschedule(self._alarm, self._alarm_at)
        at = max(at, env.now)
        alarm = env.timeout(at - env.now)
        alarm.callbacks.append(self._alarm_fired)
        self._alarm, self._alarm_at = alarm, at

    def _alarm_fired(self, _ev: Event) -> None:
        self._alarm = None
        self.fire()


def poll_until(bell: Signal, probe: Callable[[], Generator],
               predicate: Callable[[], bool],
               timeout_ns: Optional[int] = None,
               next_due: Optional[Callable[[], Optional[int]]] = None):
    """Probe until ``predicate()`` holds (generator → bool, False on
    timeout) — the one blocking-wait loop of the middleware layers.

    The model: a waiter probes back to back, each probe (``probe()``, a
    generator that charges its own poll cost and returns whether it did
    any work) taking the poll interval; the simulator skips the probes
    that cannot succeed.  After a probe that did nothing, with nothing
    rung on ``bell`` while it ran, the waiter parks on the bell until
    something arrives or until the earliest instant a probe is owed
    anyway — the caller's timeout or ``next_due()`` (an absolute time or
    None: retry deadlines, latency bounds).  Every wake pays for the probe
    that would have seen it.

    ``probe`` must ring ``bell`` when it hands out anything another
    waiter on the same bell may be waiting for.
    """
    if predicate():
        return True
    env = bell.env
    deadline = None if timeout_ns is None else env.now + timeout_ns
    while True:
        if deadline is not None and env.now >= deadline:
            return False
        seen = bell.fires
        busy = yield from probe()
        if predicate():
            return True
        if not busy and bell.fires == seen:
            due = next_due() if next_due is not None else None
            if deadline is not None and (due is None or deadline < due):
                due = deadline
            yield bell.wait(due)
