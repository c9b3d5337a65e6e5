"""Unit tests for Store / Signal (repro.sim.resources)."""

import pytest

from repro.sim import Environment, Signal, SimulationError, Store


# ---------------------------------------------------------------- Store


def test_store_put_then_get():
    env = Environment()
    store = Store(env)

    def prog(env):
        yield store.put("item")
        got = yield store.get()
        return got

    p = env.process(prog(env))
    env.run()
    assert p.value == "item"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return (item, env.now)

    def producer(env):
        yield env.timeout(100)
        yield store.put(7)

    c = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert c.value == (7, 100)


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        for i in range(5):
            yield store.put(i)

    def consumer(env):
        for _ in range(5):
            item = yield store.get()
            out.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == [0, 1, 2, 3, 4]


def test_store_capacity_backpressure():
    env = Environment()
    store = Store(env, capacity=2)
    put_times = []

    def producer(env):
        for i in range(4):
            yield store.put(i)
            put_times.append(env.now)

    def consumer(env):
        yield env.timeout(50)
        for _ in range(4):
            yield store.get()
            yield env.timeout(10)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    # first two puts admitted immediately; third waits for first get (t=50),
    # fourth waits for the second get (t=60).
    assert put_times == [0, 0, 50, 60]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_store_try_get_nonblocking():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None

    def prog(env):
        yield store.put("x")

    env.process(prog(env))
    env.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_len_tracks_items():
    env = Environment()
    store = Store(env)

    def prog(env):
        yield store.put(1)
        yield store.put(2)

    env.process(prog(env))
    env.run()
    assert len(store) == 2


def test_multiple_consumers_fifo_grant():
    env = Environment()
    store = Store(env)
    grants = []

    def consumer(env, ident):
        item = yield store.get()
        grants.append((ident, item))

    def producer(env):
        yield env.timeout(10)
        yield store.put("a")
        yield store.put("b")

    env.process(consumer(env, 0))
    env.process(consumer(env, 1))
    env.process(producer(env))
    env.run()
    assert grants == [(0, "a"), (1, "b")]


# ---------------------------------------------------------------- Signal


def test_signal_wakes_all_waiters():
    env = Environment()
    sig = Signal(env)
    woken = []

    def waiter(env, ident):
        val = yield sig.wait()
        woken.append((ident, val, env.now))

    def firer(env):
        yield env.timeout(30)
        n = sig.fire("go")
        assert n == 2

    env.process(waiter(env, 0))
    env.process(waiter(env, 1))
    env.process(firer(env))
    env.run()
    assert woken == [(0, "go", 30), (1, "go", 30)]


def test_signal_rearms_after_fire():
    env = Environment()
    sig = Signal(env)
    wakes = []

    def waiter(env):
        for _ in range(2):
            yield sig.wait()
            wakes.append(env.now)

    def firer(env):
        yield env.timeout(10)
        sig.fire()
        yield env.timeout(10)
        sig.fire()

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert wakes == [10, 20]


def test_signal_wait_until_wakes_at_the_bound():
    env = Environment()
    sig = Signal(env)
    wakes = []

    def waiter(env, until):
        yield sig.wait(until)
        wakes.append(env.now)

    env.process(waiter(env, 500))
    env.process(waiter(env, 200))   # moves the one alarm earlier
    env.process(waiter(env, None))  # unbounded: woken with the others
    env.run()
    assert wakes == [200, 200, 200] and env.now == 200


def test_signal_fired_first_withdraws_its_alarm():
    env = Environment()
    sig = Signal(env)

    def waiter(env):
        yield sig.wait(until=10 ** 12)
        return env.now

    def firer(env):
        yield env.timeout(30)
        assert sig.fire() == 1

    w = env.process(waiter(env))
    env.process(firer(env))
    env.run()
    # nothing left to fire at 10**12: the clock stops at the last event
    assert w.value == 30 and env.now == 30 and env.peek() is None
    assert sig.fires == 1


def test_signal_fire_with_no_waiters():
    env = Environment()
    sig = Signal(env)
    assert sig.fire() == 0
