"""Equivalence of the calendar-queue kernel and the reference binary heap.

The calendar queue is only admissible because it is *observably
identical* to the textbook heap (``tests/heap_oracle.HeapEnvironment``):
same firing order (timestamp, then priority, then scheduling order), same
clock, same event count, on any schedule.  These tests drive randomized
workloads through both side by side and assert byte-identical firing
logs, then re-run the golden-trace suite on the oracle so both pin the
same pre-optimization fingerprints.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import build_cluster
from repro.sim.core import (Environment, Event, NORMAL, SimulationError,
                            URGENT)
from tests.heap_oracle import HeapEnvironment

KERNELS = (HeapEnvironment, Environment)

DELAYS = (0, 1, 1, 2, 3, 5, 7, 7, 50, 100, 100, 1000, 12345)


def _drive(env: Environment, seed: int, log: list):
    """Build one randomized workload on ``env``, recording every firing.

    The mix deliberately covers every scheduling entry point the model
    code uses: process timeout yields (with heavy same-timestamp ties),
    raw callback-only timers (the link delivery path), callbacks that
    schedule more work at the current instant (drain-time scheduling),
    and cross-process ``succeed`` wakeups (URGENT resume ordering).
    """
    rng = random.Random(seed)

    def ticker(name: str, steps: int):
        for j in range(steps):
            yield env.timeout(rng.choice(DELAYS))
            log.append((env.now, f"{name}.{j}"))

    def waiter(name: str, ev: Event):
        val = yield ev
        log.append((env.now, f"{name}.woke.{val}"))
        yield env.timeout(rng.choice(DELAYS))
        log.append((env.now, f"{name}.done"))

    def trigger(ev: Event, delay: int, value):
        yield env.timeout(delay)
        ev.succeed(value)
        log.append((env.now, f"fired.{value}"))

    # processes with tie-heavy timeout chains (each yield schedules the
    # next timeout from inside the previous one's firing)
    for i in range(6):
        env.process(ticker(f"t{i}", rng.randint(5, 40)), name=f"t{i}")

    # cross-process event wakeups, some at identical instants
    for i in range(8):
        ev = Event(env)
        env.process(waiter(f"w{i}", ev), name=f"w{i}")
        env.process(trigger(ev, rng.choice(DELAYS), i), name=f"g{i}")

    # raw callback-only timers, including one that schedules more work
    # from inside its callback (both at the current instant and later)
    def arm(label: str, delay: int, chain: int):
        t = env.timeout(delay)

        def cb(_ev, label=label, chain=chain):
            log.append((env.now, label))
            if chain:
                arm(f"{label}+", rng.choice(DELAYS), chain - 1)

        t.callbacks.append(cb)

    for i in range(12):
        arm(f"raw{i}", rng.choice(DELAYS), rng.randint(0, 3))

    # withdrawn timers (what a Signal's alarm is): the withdrawal is armed
    # first, so when both fall on one instant it finds its target already
    # moved onto the current-instant queue; a target that fired earlier is
    # left alone; one sits far enough out to drag the clock if left behind
    def withdrawable(label: str, delay: int, withdraw_at: int):
        due = env.now + delay

        def withdraw(_ev):
            if not target.processed:
                env.unschedule(target, due)
                log.append((env.now, f"{label}.withdrawn"))

        env.timeout(withdraw_at).callbacks.append(withdraw)
        target = env.timeout(delay)
        target.callbacks.append(lambda _ev: log.append((env.now, label)))

    for i in range(10):
        withdrawable(f"wd{i}", rng.choice(DELAYS), rng.choice(DELAYS))
    withdrawable("wd.far", 10 ** 12, 3)


def _run_both(seed: int, until=None):
    logs = []
    envs = []
    for kernel in KERNELS:
        env = kernel()
        log: list = []
        _drive(env, seed, log)
        if until is None:
            env.run()
        else:
            env.run(until=until)
        logs.append(log)
        envs.append(env)
    return logs, envs


@pytest.mark.parametrize("seed", range(8))
def test_random_schedules_fire_identically(seed):
    (heap_log, cal_log), (heap_env, cal_env) = _run_both(seed)
    assert heap_log == cal_log
    assert heap_env.now == cal_env.now
    assert heap_env.events_processed == cal_env.events_processed


@pytest.mark.parametrize("seed", range(4))
def test_run_until_deadline_identical(seed):
    # stop mid-schedule: both kernels must drain exactly the events due
    # by the deadline and land the clock *on* it
    (heap_log, cal_log), (heap_env, cal_env) = _run_both(seed, until=40)
    assert heap_log == cal_log
    assert heap_env.now == cal_env.now == 40
    # resuming from the deadline stays identical
    heap_env.run()
    cal_env.run()
    assert heap_log == cal_log
    assert heap_env.now == cal_env.now


def test_same_instant_priority_and_fifo_order():
    # at one timestamp: urgent events fire before normal ones, and within
    # a priority class strictly in scheduling order — on both kernels
    for kernel in KERNELS:
        env = kernel()
        order = []

        def note(tag):
            return lambda _ev: order.append(tag)

        for i in range(4):
            ev = Event(env)
            ev.callbacks.append(note(f"n{i}"))
            ev.succeed(priority=NORMAL)
            uv = Event(env)
            uv.callbacks.append(note(f"u{i}"))
            uv.succeed(priority=URGENT)
        env.run()
        assert order == ["u0", "u1", "u2", "u3", "n0", "n1", "n2", "n3"], kernel


def test_long_timeout_chain_identical():
    # a long chain of sequential timeouts, each yielded after the previous
    # one fired: 5 000 same-process schedules on both kernels, tie-heavy
    # delays included, must fire on identical instants
    logs = []
    for kernel in KERNELS:
        env = kernel()
        log = []

        def churn():
            rng = random.Random(99)
            for j in range(5000):
                yield env.timeout(rng.choice(DELAYS))
                log.append((env.now, j))

        env.process(churn(), name="churn")
        env.run()
        logs.append(log)
    assert logs[0] == logs[1]


def test_error_paths_identical():
    for kernel in KERNELS:
        env = kernel()
        with pytest.raises(SimulationError):
            env.run(until=-1)
        # run(until=event) on a drained queue is a modelling deadlock
        env2 = kernel()
        ev = Event(env2)
        with pytest.raises(SimulationError):
            env2.run(until=ev)
        # negative delays are rejected by both kernels
        env3 = kernel()
        with pytest.raises(SimulationError):
            env3.timeout(-5)


# ---------------------------------------------------------------------------
# the strongest equivalence statement available: the heap oracle must
# reproduce the exact golden fingerprints the calendar kernel pins
# ---------------------------------------------------------------------------

def test_golden_suite_heap_mode(monkeypatch):
    from tests import test_determinism_golden as golden

    monkeypatch.setattr("repro.cluster.Environment", HeapEnvironment)
    assert type(build_cluster(2).env) is HeapEnvironment  # the swap took
    golden.test_r1_table_matches_golden()
    golden.test_r4_table_matches_golden()
    golden.test_r17_table_matches_golden()
    golden.test_clean_traces_match_golden()
    golden.test_lossy_traces_match_golden()
