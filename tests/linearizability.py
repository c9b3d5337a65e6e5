"""Per-key linearizability of a KV history: Wing & Gong's search.

Each key is a register.  A put writes its value; a get returns the value
of the put linearized last before it, or nothing (``ST_MISS``) when no put
is.  A history is linearizable when every key's calls can be ordered so
that each takes effect at one instant inside its call — after its invoke,
before its return — and every get reads what that order says.

What counts: an answered put (``ST_OK``) between invoke and return; a put
whose reply never arrived (any other status) at any instant after its
invoke, or never; an answered get (``ST_OK`` / ``ST_MISS``) between invoke
and return.  A get with no answer says nothing.  Only the RPC read arm is
checked: the one-sided arm's contract is weaker (DESIGN.md §10), so the
gets of ``read_mode="onesided"`` sessions are left out; their puts stay.

The search (Wing & Gong 1993) linearizes, one call at a time, any call no
remaining call precedes in real time (``a`` precedes ``b`` when ``a``
returned before ``b`` was invoked, or at that instant in ``b``'s own
session), applies it to the register, and
backtracks when a get reads the wrong value; configurations already
visited — the set of calls done and the register's value — are not
searched twice (Lowe's memo).

The command line checks the failover block over fresh seeds::

    PYTHONPATH=src python tests/linearizability.py --seeds 20

runs :func:`failover_block` at seeds 1000, 1001, ... and exits 1 on the
first history that does not linearize, or the first RPC attempt that
waits on after its own rank declared its target dead (about 1 s a seed;
each seed's line gives its longest client stall across the crash).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.chaos import CrashRank
from repro.kv.client import KVClient
from repro.kv.scenario import Scenario, keyspace, stalls_across
from repro.kv.shard import ST_MISS, ST_OK

#: the return instant of a put whose reply never arrived
NEVER = float("inf")


class Call(NamedTuple):
    """One call on one key: ``value`` is what a put wrote or a get read
    (None: the get found nothing); ``op`` the history row."""
    inv: int
    ret: float
    kind: str
    value: Optional[bytes]
    op: tuple


class Violation(AssertionError):
    """A key whose calls admit no linearization."""

    def __init__(self, key: bytes, stuck: List[Call], placed: int,
                 total: int, holder: Optional[Call]):
        self.key, self.stuck, self.holder = key, stuck, holder
        ops = "\n".join(f"  {_describe(c)}" for c in stuck)
        held = ("nothing" if holder is None
                else f"the write of {_describe(holder)}")
        super().__init__(
            f"key {key!r}: no linearization of its {total} calls; the "
            f"longest stops after {placed}, the register holding {held}, "
            f"where none of these fits:\n{ops}")


def _describe(call: Call) -> str:
    op = call.op
    ret = "never" if call.ret == NEVER else f"{op.t_return}"
    value = "nothing" if call.value is None else repr(call.value[:24])
    return (f"client {op.client} seq {op.seq} {call.kind} {value} "
            f"[{op.t_invoke}, {ret}]")


def calls_by_key(history: Iterable[tuple],
                 onesided: Iterable[int] = ()) -> Dict[bytes, List[Call]]:
    """The checked calls of ``history`` (``Scenario.history`` rows), per
    key; ``onesided``: client ids whose gets are left out."""
    skip = set(onesided)
    calls: Dict[bytes, List[Call]] = {}
    for op in history:
        if op.kind == "put":
            ret = op.t_return if op.status == ST_OK else NEVER
            call = Call(op.t_invoke, ret, "put", op.value, op)
        elif op.status in (ST_OK, ST_MISS) and op.client not in skip:
            call = Call(op.t_invoke, op.t_return, "get",
                        op.value if op.status == ST_OK else None, op)
        else:
            continue
        calls.setdefault(op.key, []).append(call)
    return calls


def _after_own(c: Call, left: List[Call]) -> bool:
    """True when a call of ``c``'s own session still in ``left`` returned
    at the instant ``c`` was invoked: a session issues its next call when
    the last returns, so that one comes first.  Other sessions' calls at
    that instant are concurrent with ``c``."""
    return any(a.ret == c.inv and a.op.client == c.op.client
               for a in left if a is not c)


def check_key(key: bytes, calls: List[Call]) -> None:
    """Raise :class:`Violation` unless ``calls`` linearize.  The search
    recurses once per call placed: a key's calls number in the tens
    here, far inside Python's recursion limit."""
    calls = sorted(calls, key=lambda c: c.inv)
    n = len(calls)
    must = sum(1 << i for i, c in enumerate(calls) if c.ret != NEVER)
    seen = set()
    #: the longest order found: (calls placed, done mask, register)
    deepest: Tuple[int, int, Optional[bytes]] = (-1, 0, None)

    def search(done: int, state: Optional[bytes], placed: int) -> bool:
        nonlocal deepest
        if done & must == must:
            return True
        if (done, state) in seen:
            return False
        seen.add((done, state))
        if placed > deepest[0]:
            deepest = (placed, done, state)
        horizon = min(c.ret for i, c in enumerate(calls)
                      if not done >> i & 1)
        for i, c in enumerate(calls):
            if c.inv > horizon:
                break        # sorted by invoke: no later call is minimal
            if done >> i & 1 or c.inv == horizon and _after_own(
                    c, [a for j, a in enumerate(calls)
                        if not done >> j & 1]):
                continue
            if c.kind == "put":
                nxt = c.value
            elif c.value == state:
                nxt = state
            else:
                continue
            if search(done | 1 << i, nxt, placed + 1):
                return True
        return False

    if not search(0, None, 0):
        placed, done, state = deepest
        horizon = min(c.ret for i, c in enumerate(calls)
                      if not done >> i & 1)
        left = [c for i, c in enumerate(calls) if not done >> i & 1]
        stuck = [c for c in left if c.inv < horizon or c.inv == horizon
                 and not _after_own(c, left)]
        holder = next((c for c in calls if c.kind == "put"
                       and state is not None and c.value == state), None)
        raise Violation(key, stuck, placed, n, holder)


def check_history(history: Iterable[tuple],
                  onesided: Iterable[int] = ()) -> int:
    """Check every key; returns how many calls were checked."""
    total = 0
    for key, calls in sorted(calls_by_key(history, onesided).items()):
        check_key(key, calls)
        total += len(calls)
    return total


def check_scenario(sc: Scenario) -> int:
    """:func:`check_history` over a finished scenario's RPC read arm."""
    return check_history(sc.history, [c.client_id for c in sc.clients
                                      if c.read_mode == "onesided"])


class Attempt(NamedTuple):
    """One RPC attempt's wait: the client's rank and id, the rank it was
    addressed to, when the wait began and ended, and whether an answer
    ended it."""
    rank: int
    client: int
    target: int
    start: int
    end: int
    answered: bool


class VerdictWatch:
    """Every attempt of the clients :meth:`watch` is given, and every
    death verdict any rank of the scenario reaches: an attempt to a
    rank must end by its own rank's verdict on it."""

    def __init__(self, sc: Scenario):
        self.env = sc.env
        self.attempts: List[Attempt] = []
        #: (observer, dead rank) -> the instant the observer declared it
        self.verdicts: Dict[Tuple[int, int], int] = {}
        for node in sc.cluster.ranks:
            node.on_peer_dead.append(partial(self._dead, node.rank))

    def _dead(self, observer: int, peer: int) -> None:
        self.verdicts.setdefault((observer, peer), self.env.now)

    def watch(self, client: KVClient) -> KVClient:
        """Record each of ``client``'s attempt waits from now on."""
        wait, env = client._await, self.env

        def watched(reply):
            start = env.now
            answer = yield from wait(reply)
            self.attempts.append(Attempt(
                client.node.rank, client.client_id, reply.target, start,
                env.now, answer is not None))
            return answer

        client._await = watched
        return client

    def spanning(self) -> List[Tuple[Attempt, int]]:
        """Each attempt waiting at its own rank's verdict on its target,
        with that verdict's instant."""
        out = []
        for a in self.attempts:
            t = self.verdicts.get((a.rank, a.target))
            if t is not None and a.start <= t <= a.end:
                out.append((a, t))
        return out

    def outlived(self) -> List[Attempt]:
        """Attempts that went on waiting after their verdict."""
        return [a for a, t in self.spanning() if a.end > t]


def failover_block(seed: int, n_ops: int = 240) -> Scenario:
    """R20's failover block with reads: the 5-rank, one-group cluster
    loses its leader 400 us into a burst, while two closed-loop sessions
    put and get (half each, RPC arm) the same 40 keys, and keep going
    through the failover.  ``sc.t_crash`` is the crash instant and
    ``sc.verdicts`` the sessions' :class:`VerdictWatch`."""
    sc = Scenario(5, 1, seed)
    env, keys = sc.env, keyspace(40)
    sc.verdicts = VerdictWatch(sc)

    def session(client, c):
        coin = sc.cluster.rng.stream(f"lin.mix.{c}")
        pick = sc.cluster.rng.stream(f"lin.key.{c}")
        plan = ((keys[int(pick.integers(len(keys)))],
                 bool(coin.random() < 0.5)) for _ in range(n_ops))
        yield from sc.closed_loop(client, plan)

    def burst():
        yield from sc.wait_leaders()
        sc.t_crash = env.now + 400_000
        sc.arm([CrashRank(sc.t_crash, sc.leader(0))])
        procs = [env.process(session(
            sc.verdicts.watch(sc.client(rank, c + 1)), c))
            for c, rank in enumerate(sc.free[:2])]
        yield env.all_of(procs)
        yield from sc.drain()

    sc.run(burst(), name="lin.failover")
    return sc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--first", type=int, default=1000)
    args = p.parse_args(argv)
    t0 = time.perf_counter()
    for seed in range(args.first, args.first + args.seeds):
        sc = failover_block(seed)
        try:
            n = check_scenario(sc)
        except Violation as exc:
            print(f"seed {seed}: {exc}")
            return 1
        for a in sc.verdicts.outlived():
            print(f"seed {seed}: client {a.client}'s attempt to r{a.target}"
                  f" waited {a.end - sc.verdicts.verdicts[a.rank, a.target]}"
                  f" ns past r{a.rank}'s verdict on it")
            return 1
        stall = max(stalls_across(sc.history, sc.t_crash).values(),
                    default=0)
        print(f"seed {seed}: {len(sc.history)} ops, {n} calls linearize, "
              f"longest stall across the crash {stall / 1e3:.0f} us")
    print(f"{args.seeds} seeds clean in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
