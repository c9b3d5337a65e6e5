"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_timeout_advances_clock():
    env = Environment()

    def prog(env):
        yield env.timeout(100)
        return env.now

    proc = env.process(prog(env))
    env.run()
    assert proc.value == 100
    assert env.now == 100


def test_timeout_value_passthrough():
    env = Environment()

    def prog(env):
        got = yield env.timeout(5, value="hello")
        return got

    proc = env.process(prog(env))
    env.run()
    assert proc.value == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def prog(env):
        for d in (10, 20, 30):
            yield env.timeout(d)
            times.append(env.now)

    env.process(prog(env))
    env.run()
    assert times == [10, 30, 60]


def test_same_time_fifo_order():
    """Events at the same timestamp fire in scheduling order."""
    env = Environment()
    order = []

    def prog(env, tag):
        yield env.timeout(50)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(prog(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_process():
    env = Environment()

    def child(env):
        yield env.timeout(42)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return (result, env.now)

    p = env.process(parent(env))
    env.run()
    assert p.value == ("done", 42)


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        val = yield gate
        return (val, env.now)

    def firer(env):
        yield env.timeout(7)
        gate.succeed("ping")

    w = env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert w.value == ("ping", 7)


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    def firer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    w = env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert w.value == "caught boom"


def test_unhandled_process_crash_surfaces():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("crash")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def test_handled_process_crash_does_not_surface():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("crash")

    def parent(env):
        try:
            yield env.process(bad(env))
        except RuntimeError:
            return "handled"

    p = env.process(parent(env))
    env.run()
    assert p.value == "handled"


def test_run_until_event_returns_value():
    env = Environment()

    def prog(env):
        yield env.timeout(10)
        return 99

    proc = env.process(prog(env))
    assert env.run(until=proc) == 99


def test_run_until_deadline_stops_clock():
    env = Environment()

    def prog(env):
        yield env.timeout(1000)

    env.process(prog(env))
    env.run(until=500)
    assert env.now == 500
    env.run()
    assert env.now == 1000


def test_run_until_event_deadlock_detected():
    env = Environment()
    gate = env.event()  # never fired

    def waiter(env):
        yield gate

    p = env.process(waiter(env))
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=p)


def test_yield_non_event_rejected():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_all_of_waits_for_all():
    env = Environment()

    def prog(env):
        t1 = env.timeout(10, value="a")
        t2 = env.timeout(30, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, [v for _, v in results])

    p = env.process(prog(env))
    env.run()
    assert p.value == (30, ["a", "b"])


def test_any_of_fires_on_first():
    env = Environment()

    def prog(env):
        t1 = env.timeout(10, value="fast")
        t2 = env.timeout(30, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return (env.now, [v for _, v in results])

    p = env.process(prog(env))
    env.run()
    assert p.value == (10, ["fast"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def prog(env):
        yield AllOf(env, [])
        return env.now

    p = env.process(prog(env))
    env.run()
    assert p.value == 0


def test_add_callback_after_fire_runs_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("x")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_peek_and_step():
    env = Environment()
    env.timeout(25)
    assert env.peek() == 25
    env.step()
    assert env.now == 25
    assert env.peek() is None
    with pytest.raises(SimulationError):
        env.step()


def test_many_processes_deterministic():
    """The same program yields an identical trace on two fresh runs."""

    def run_once():
        env = Environment()
        trace = []

        def worker(env, ident, delay):
            for i in range(3):
                yield env.timeout(delay)
                trace.append((env.now, ident, i))

        for ident, delay in ((0, 7), (1, 11), (2, 13)):
            env.process(worker(env, ident, delay))
        env.run()
        return trace

    assert run_once() == run_once()
