"""sim: the event kernel with no model code in the way."""

from __future__ import annotations

import time

from repro.sim.core import Environment
from repro.sim.resources import Store

N_PROCS = 64
STEPS = 400
HANDOFFS = 8000


def timeout_churn():
    """Processes doing nothing but short timeout yields: scheduling
    overhead alone (Timeout freelist, bucket insert/pop).  A small prime
    spread of delays keeps many distinct timestamps live, with ties."""
    env = Environment()

    def proc(delay):
        for _ in range(STEPS):
            yield env.timeout(delay)

    for i in range(N_PROCS):
        env.process(proc(10 + (i % 7) * 13))
    t0 = time.perf_counter()
    env.run()
    return env.events_processed, time.perf_counter() - t0


def store_handoff():
    """Producer -> bounded Store -> consumer: put/get event pairs with a
    parked side on almost every hand-off."""
    env = Environment()
    store = Store(env, capacity=4)

    def producer():
        for i in range(HANDOFFS):
            yield store.put(i)

    def consumer():
        for _ in range(HANDOFFS):
            yield store.get()
            yield env.timeout(5)

    env.process(producer())
    env.process(consumer())
    t0 = time.perf_counter()
    env.run()
    return env.events_processed, time.perf_counter() - t0


BENCHES = {
    "sim.timeout_churn_events_per_s": timeout_churn,
    "sim.store_handoff_events_per_s": store_handoff,
}
