"""The per-key linearizability checker (``tests/linearizability.py``): hand
histories it must accept and reject, a failover block with reads that
checks clean, and a state machine answering stale that it catches."""

import pytest

from repro.kv.scenario import Op, Scenario, value_tag
from repro.kv.shard import KVStateMachine, ST_MISS, ST_OK
from tests.linearizability import (Violation, check_history, check_scenario,
                                   failover_block)

K = b"k"
#: a put's status when its reply never arrived (any non-OK status)
LOST = 255


def put(client, seq, value, t0, t1, status=ST_OK, key=K):
    return Op(client, seq, "put", key, value, status, t0, t1)


def get(client, seq, value, t0, t1, key=K):
    status = ST_MISS if value is None else ST_OK
    return Op(client, seq, "get", key, value or b"", status, t0, t1)


def test_concurrent_calls_may_take_effect_in_either_order():
    # the get overlaps both puts: it may read either, or nothing
    for seen in (b"a", b"b", None):
        check_history([put(1, 1, b"a", 0, 10), put(2, 1, b"b", 5, 20),
                       get(3, 1, seen, 2, 30)])


def test_a_read_of_an_overwritten_value_is_rejected():
    history = [put(1, 1, b"a", 0, 10), put(1, 2, b"b", 20, 30),
               get(2, 1, b"a", 40, 50)]
    with pytest.raises(Violation) as exc:
        check_history(history)
    assert exc.value.key == K
    assert [c.op for c in exc.value.stuck] == [history[2]]
    assert exc.value.holder.op == history[1]
    assert "client 2 seq 1 get b'a' [40, 50]" in str(exc.value)


def test_a_put_whose_reply_never_came_may_land_late_or_never():
    lost = put(1, 1, b"a", 0, 5, status=LOST)
    check_history([lost, get(2, 1, None, 10, 20)])
    check_history([lost, get(2, 1, b"a", 100, 110)])
    # ... but not before it was invoked
    with pytest.raises(Violation):
        check_history([put(1, 1, b"a", 50, 60, status=LOST),
                       get(2, 1, b"a", 0, 10)])
    # ... and once seen, it has landed: what it overwrote stays gone
    with pytest.raises(Violation):
        check_history([put(1, 1, b"b", 0, 10),
                       put(1, 2, b"a", 20, 30, status=LOST),
                       get(2, 1, b"a", 40, 50), get(2, 2, b"b", 60, 70)])


def test_the_one_sided_arm_is_not_checked():
    history = [put(1, 1, b"a", 0, 10), get(2, 1, None, 20, 30)]
    with pytest.raises(Violation):
        check_history(history)
    assert check_history(history, onesided=[2]) == 1


def test_a_failover_block_with_reads_linearizes():
    sc = failover_block(seed=7)
    gets = [op for op in sc.history if op.kind == "get"]
    assert gets and sc.cluster.counters.get("health.deaths") > 0
    assert check_scenario(sc) == len(sc.history)


def test_a_state_machine_answering_stale_is_caught(monkeypatch):
    """A mutant whose get answers the value the key held before its last
    put: the checker names the key, the stale get and the put it missed."""
    apply = KVStateMachine.apply

    def remembering_apply(self, cmd):
        if cmd.key in self.data:
            self.__dict__.setdefault("stale", {})[cmd.key] = \
                self.data[cmd.key]
        return apply(self, cmd)

    monkeypatch.setattr(KVStateMachine, "apply", remembering_apply)
    monkeypatch.setattr(KVStateMachine, "get", lambda self, key: self.__dict__
                        .get("stale", {}).get(key, self.data.get(key)))
    sc = Scenario(3, 1, seed=5, spans=False)

    def driver():
        yield from sc.wait_leaders()
        client = sc.client(sc.free[0], 9)
        for _ in range(2):
            yield from sc.op(client, K, False)
        yield from sc.op(client, K, True)

    sc.run(driver())
    with pytest.raises(Violation) as exc:
        check_scenario(sc)
    first, second, stale = sc.history
    assert stale.value == value_tag(9, 1) == first.value
    assert exc.value.key == K
    assert {c.op for c in exc.value.stuck} == {stale}
    assert exc.value.holder.op == second
    assert "client 9 seq 3 get" in str(exc.value)
    assert "the write of client 9 seq 2 put" in str(exc.value)
