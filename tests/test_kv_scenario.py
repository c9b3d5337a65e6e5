"""``repro.kv.scenario``: the harness's own contract.

The history is complete and ordered, the statistics are plain functions
of its rows, the three audits in ``repro.chaos.invariants`` see what
they are for (and only that), and an empty fault schedule arms nothing.
The drain rule — wait for leaders, *then* count heartbeats — is pinned
where it was found: ``test_kv_failover``'s split-vote test.
"""

from __future__ import annotations

import pytest

from repro.chaos import CrashRank
from repro.chaos.invariants import (InvariantViolation, check_all,
                                    check_reads_return_written,
                                    check_replicas_identical, unapplied_acks)
from repro.kv import ST_OK
from repro.kv.scenario import (Scenario, keyspace, latencies_ns, ops_per_sec,
                               outcomes, pct_us, value_tag, zipf_plan)
from repro.util.stats import percentile

LOADER = 1000
KEYS = keyspace(16)


def _served(arm=None, n_ops=40):
    """Preload, two closed-loop clients on a 50/50 Zipf plan, drain."""
    sc = Scenario(5, 1, seed=11)
    env, rng = sc.env, sc.cluster.rng

    def driver():
        yield from sc.wait_leaders()
        if arm is not None:
            sc.ctrl = sc.arm(arm(sc))
        yield from sc.preload(sc.client(sc.free[0], LOADER), KEYS)
        yield env.all_of([env.process(sc.closed_loop(
            sc.client(sc.free[c], c + 1),
            zipf_plan(KEYS, 0.99, 0.5, rng.stream(f"t.key.{c}"),
                      rng.stream(f"t.coin.{c}"), n_ops))) for c in range(2)])
        yield from sc.drain()

    sc.run(driver())
    return sc


@pytest.fixture(scope="module")
def sc():
    return _served()


def test_history_rows_are_complete_and_ordered_per_client(sc):
    assert len(sc.history) == len(KEYS) + 2 * 40
    returns = [op.t_return for op in sc.history]
    assert returns == sorted(returns)            # appended at return
    for client in sc.clients:
        rows = [op for op in sc.history if op.client == client.client_id]
        assert len(rows) == (len(KEYS) if client.client_id == LOADER else 40)
        assert all(a.seq < b.seq and a.t_return <= b.t_invoke
                   for a, b in zip(rows, rows[1:]))
        assert all(op.t_invoke <= op.t_return and op.status == ST_OK
                   for op in rows)
        puts = [op for op in rows if op.kind == "put"]
        assert all(op.value == value_tag(op.client, op.seq) for op in puts)
        # a put's row carries its uid: it is the session's ack, in order
        assert [(op.client, op.seq, op.key, op.value) for op in puts] == \
            [(c, s, k, v) for c, s, _op, k, v in client.acked]
    gets = [op for op in sc.history if op.kind == "get"]
    assert gets and len(gets) < 80
    for op in gets:      # the bytes returned: some put's tag for that key
        assert op.value.startswith(b"c") and len(op.value) == 64
    assert sc.cluster.metrics.span_durations("kv.op.get") == \
        [op.t_return - op.t_invoke for op in gets]


def test_statistics_are_a_literal_recomputation_of_the_rows(sc):
    rows = [op for op in sc.history if op.client != LOADER]
    assert len(rows) == 80 and outcomes(rows) == {"ok": 80}
    for kind in ("get", "put"):
        xs = [op.t_return - op.t_invoke for op in rows if op.kind == kind]
        assert latencies_ns(rows, kind) == xs
        for p in (50, 95, 99):
            assert pct_us(rows, kind, p) == percentile(xs, p) / 1e3
    t_first = min(op.t_invoke for op in rows)
    t_last = max(op.t_return for op in rows)
    assert ops_per_sec(rows) == 80 / ((t_last - t_first) / 1e9)
    # the loader is excluded by id, not by position: with it the window
    # opens at the first preload put
    assert ops_per_sec(sc.history) < ops_per_sec(rows)
    # an unanswered op counts as failed and has no service time
    timed_out = rows[0]._replace(status=255)
    assert outcomes([timed_out] + rows[1:]) == {"ok": 79, "failed": 1}
    assert len(latencies_ns([timed_out] + rows[1:])) == 79
    assert ops_per_sec([]) == 0.0 and pct_us([], "get", 50) == 0.0


def test_check_all_takes_a_finished_scenario(sc):
    assert unapplied_acks(sc) == []
    check_all(sc.cluster, monitors=sc.monitors, kv_nodes=sc.nodes,
              scenario=sc)


def test_acked_uid_audit_names_the_replica_and_skips_the_dead():
    sc = _served(lambda sc: [CrashRank(sc.env.now + 400_000, next(
        r for r in sc.shard_map.replicas(0) if r != sc.leader(0)))])
    (_t, crash), = sc.ctrl.applied
    live = [r for r in sc.shard_map.replicas(0) if r != crash.rank]
    # the dead follower's machines are wiped: skipped, not reported
    assert not sc.nodes[crash.rank].machines and unapplied_acks(sc) == []
    uid = (2, 7)
    assert uid in {t[:2] for c in sc.clients for t in c.acked}
    sc.nodes[live[1]].machines[0].applied_uids.discard(uid)
    assert unapplied_acks(sc) == [(live[1], 0, uid)]
    with pytest.raises(InvariantViolation, match="acknowledged"):
        check_all(sc.cluster, scenario=sc)


def test_replica_identity_trips_on_a_diverged_machine():
    sc = _served(n_ops=5)
    check_replicas_identical(sc)
    rank = sc.shard_map.replicas(0)[1]
    sc.nodes[rank].machines[0].data[KEYS[0]] = b"diverged"
    with pytest.raises(InvariantViolation, match="group 0"):
        check_replicas_identical(sc)


def test_reads_audit_trips_on_a_value_nobody_wrote():
    sc = _served(n_ops=5)
    check_reads_return_written(sc)
    get = next(op for op in sc.history if op.kind == "get")
    sc.history.append(get._replace(status=1, value=b""))    # a miss is fine
    check_reads_return_written(sc)
    sc.history.append(get._replace(value=b"forged"))
    with pytest.raises(InvariantViolation, match="nobody wrote"):
        check_reads_return_written(sc)


def test_an_empty_schedule_arms_nothing(sc):
    """``ChaosController``'s promise, kept through ``arm``: no process,
    no stream, no counter — the run is the run without it."""
    armed = _served(lambda sc: [])
    assert armed.ctrl.applied == [] and armed.ctrl._streams is None
    assert armed.history == sc.history and armed.env.now == sc.env.now
    assert "chaos.events" not in armed.cluster.metrics.fabric.values
