"""A collective ends when a member dies.

Four ranks with failure detectors; rank 3 halts with its NIC
powered off.  Whether the detectors declared it dead before the survivors
entered the collective or while they wait in it, every survivor's
barrier / allreduce / allgather raises ``MemberDeadError`` naming rank 3
within the detection budget, on Photon and on minimpi — instead of
blocking on a message the dead rank will never send, or returning as if
the collective had completed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import photon_init
from repro.photon.collectives import MemberDeadError
from repro.runtime.health import DETECT_BUDGET_NS, build_health

N = 4
DEAD = 3
#: the heartbeat loops never let the queue drain: every run is bounded
LIMIT_NS = 5_000_000

CALLS = {
    "barrier": lambda ep: ep.barrier(),
    "allreduce": lambda ep: ep.allreduce(np.arange(16, dtype=np.int64)),
    "allgather": lambda ep: ep.allgather(bytes([ep.rank]) * 16),
}


def _cluster(stack):
    cl = build_cluster(N, "ib-fdr", seed=9)
    build_health(cl)
    eps = photon_init(cl) if stack == "photon" else mpi_init(cl)
    return cl, eps


@pytest.mark.parametrize("crash_ns,enter_ns", [(500_000, 2_000_000),
                                               (1_000_000, 500_000)],
                         ids=["dead-before-entry", "dies-while-waiting"])
@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("stack", ["photon", "mpi"])
def test_every_survivor_raises_when_a_member_dies(stack, name, crash_ns,
                                                  enter_ns):
    cl, eps = _cluster(stack)
    ended = {}

    def crash(env):
        yield env.timeout(crash_ns)
        cl[DEAD].crash()

    def survivor(ep):
        yield cl.env.timeout(enter_ns)
        try:
            yield from CALLS[name](ep)
        except MemberDeadError as err:
            ended[ep.rank] = (cl.env.now, err.dead)
        else:
            ended[ep.rank] = (cl.env.now, "returned")

    cl.env.process(crash(cl.env))
    for ep in eps[:DEAD]:
        cl.env.process(survivor(ep))
    cl.env.run(until=LIMIT_NS)
    assert sorted(ended) == list(range(DEAD)), "a survivor is still blocked"
    for t, dead in ended.values():
        assert dead == DEAD
        if enter_ns > crash_ns:
            # declared dead before entry: the first wait ends at once
            assert t - enter_ns < 50_000
        else:
            assert t - crash_ns < 2 * DETECT_BUDGET_NS


def test_no_monitor_keeps_a_collective_waiting():
    """With no detector attached nothing changes: a survivor of a silent
    member still waits for it."""
    cl = build_cluster(N, "ib-fdr", seed=9)
    eps = photon_init(cl)
    procs = [cl.env.process(ep.barrier()) for ep in eps[:DEAD]]
    cl.env.run(until=LIMIT_NS)
    assert not any(p.triggered for p in procs)
