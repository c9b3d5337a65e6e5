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
        # virtual occupancy: timestamps at which batch-drained items would
        # have left the queue one at a time (see add_holds); counted by
        # ``full`` until the sim clock passes them
        self._holds: tuple = ()
        self._hold_wakeup_at: Optional[int] = None

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        if self.capacity is None:
            return False
        occ = len(self.items)
        if self._holds:
            now = self.env.now
            live = tuple(h for h in self._holds if h > now)
            if len(live) != len(self._holds):
                self._holds = live
            occ += len(live)
        return occ >= self.capacity

    def add_holds(self, release_times) -> None:
        """Keep batch-drained slots virtually occupied until given times.

        A consumer that drains k items at once (e.g. a link serialising a
        whole burst as one event) frees k-1 slots *early* relative to
        draining them one at a time.  Passing the would-be drain timestamps
        here (they accumulate onto the holds still live) keeps ``full`` —
        and therefore the admission time of parked producers — identical to
        the one-at-a-time schedule.
        """
        now = self.env.now
        live = tuple(h for h in self._holds if h > now)
        self._holds = live + tuple(h for h in release_times if h > now)
        if self._holds and self._put_queue:
            # a producer is already parked behind the held slots: arm a
            # wakeup at the earliest release so it is admitted then
            self._arm_hold_wakeup()

    def _arm_hold_wakeup(self) -> None:
        nxt = min(self._holds)
        if self._hold_wakeup_at is not None and self._hold_wakeup_at <= nxt:
            return
        self._hold_wakeup_at = nxt
        t = self.env.timeout(nxt - self.env.now)
        t.callbacks.append(self._hold_wakeup)

    def _hold_wakeup(self, _ev) -> None:
        self._hold_wakeup_at = None
        if self._holds:
            now = self.env.now
            self._holds = tuple(h for h in self._holds if h > now)
        self._trigger()

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; returns an event that fires once accepted."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Append ``item`` without allocating a StorePut event.

        Only valid on unbounded stores (no backpressure to model); used on
        hot paths such as NIC work queues where the producer never waits.
        """
        if self.capacity is not None:
            raise SimulationError("put_nowait on a bounded Store")
        if self._get_queue and not self.items:
            self._get_queue.popleft().succeed(item)
            return
        self.items.append(item)
        if self._get_queue:
            self._trigger()

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: admit ``item`` synchronously if there is room
        and no producer is parked ahead; returns False otherwise (caller
        falls back to a blocking ``put``).  Admission order and timing are
        identical to an immediately-granted put."""
        if self._put_queue or self.full:
            return False
        if self._get_queue and not self.items:
            self._get_queue.popleft().succeed(item)
            return True
        self.items.append(item)
        if self._get_queue:
            self._trigger()
        return True

    def put_discard(self, item: Any) -> None:
        """Fire-and-forget put whose event nobody will wait on.

        Identical admission semantics to ``put``: when there is room and
        no producer is parked ahead, the item is admitted synchronously
        (skipping the kernel event a StorePut would cost); otherwise a
        regular StorePut parks so FIFO admission order and backpressure
        are preserved.
        """
        if not self._put_queue and not self.full:
            if self._get_queue and not self.items:
                self._get_queue.popleft().succeed(item)
                return
            self.items.append(item)
            if self._get_queue:
                self._trigger()
            return
        StorePut(self, item)

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
        if self._put_queue and self._holds:
            # parked producers behind virtually-held slots: make sure a
            # wakeup fires at the next release time
            self._arm_hold_wakeup()


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
    """

    def __init__(self, env: Environment):
        self.env = env
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
        if not waiters:
            return 0
        self._waiters = []
        if self._alarm is not None:
            self.env.unschedule(self._alarm, self._alarm_at)
            self._alarm = None
        for ev in waiters:
            ev.succeed(value)
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
