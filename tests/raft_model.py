"""Exhaustive, depth-bounded check of the pure Raft core.

``RaftNode`` (``repro.kv.raft``) is pure logic: time, decoded messages
and ticks go in, an outbox comes out.  A :class:`World` is three of them
in one group, in the style of ``tests/test_kv.py::Bus``, but nothing
happens on its own: every step is one explicit action,

- ``deliver`` / ``drop`` / ``dup`` one in-flight message (any order);
- ``timer r``: advance r's clock to ``next_due()`` and tick it — an
  election for a follower or candidate, an AppendEntries round for a
  leader;
- ``propose r``: a client command at a leader;
- ``crash r``: r stops, and messages to it are lost;
- ``restart r``: a crashed r comes back as a *fresh* ``RaftNode`` (term
  0, no vote, empty log), which is how ``KVNode.reseed`` rebuilds one;
- ``capture r``: r captures its state machine at its applied index, as
  ``KVNode`` queues a capture to its snapshot worker; one capture per
  replica is pending at a time, and a crash loses it;
- ``complete r``: the worker finishes r's pending capture
  (``take_snapshot`` at the captured index), which compacts r's log to
  that index unless an installed snapshot has overtaken it, so a leader
  whose log is trimmed past a follower's next index ships it
  InstallSnapshot.  Anything can happen between a capture and its
  completion.  The state machine is the applied prefix itself: a
  snapshot blob encodes the entries it covers, so every property below
  reads a replica's whole history, snapshot then log.

:func:`search` explores every sequence of actions breadth first, up to
a depth and per-action budgets, from the start or from the world a fixed
step list leads to (a directed search: a scenario too deep to reach
breadth first, such as Figure 8's, is set up by hand and its endings are
searched), and after every step checks the four
safety properties of Figure 3 of Ongaro & Ousterhout, "In Search of an
Understandable Consensus Algorithm" (2014): Election Safety (one leader
per term), Log Matching, Leader Completeness (an entry committed in term
T is in the log of every leader of a later term) and State Machine
Safety (no two replicas commit or apply different entries at an index),
plus Snapshot Integrity, which the history reading rests on: a replica's
snapshot covers exactly the entries below its log, and its base never
moves backwards.

States are deduplicated on a canonical form: per node its role, term,
vote, log, snapshot, commit / apply indices, leader bookkeeping
(snapshot transfers included) and pending capture, plus the network
multiset and the budgets left.  Clock readings are not part of it, so the search is a bug finder:
a violation it reports is real and comes with a shortest step list that
reaches it.  Timing is abstract: jitter is zero, and a timer fires
whenever the search chooses.

    python tests/raft_model.py                  # the defaults of Bounds
    python tests/raft_model.py --depth 14 --restarts 0 --crashes 0
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:
    from repro.kv.raft import LEADER, RaftConfig, RaftNode, decode_msg
except ImportError:  # run as a script without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.kv.raft import LEADER, RaftConfig, RaftNode, decode_msg

N = 3
REPLICAS = list(range(N))
#: abstract timing: every timer is a unit or two and jitter is always
#: zero, so which timer fires next is the search's choice, not the clock's
#: (no margin: a completed snapshot compacts the log to its own index)
CONFIG = RaftConfig(heartbeat_ns=1, election_timeout_ns=2,
                    election_jitter_ns=1, election_stagger_ns=0,
                    fast_election_ns=1, lease_ns=1, compact_margin=0)
KIND = {1: "vote-req", 2: "vote-reply", 3: "append", 4: "append-reply",
        5: "snap", 6: "snap-reply"}

Msg = Tuple[int, int, bytes]  # (src, dst, encoded message)


class ZeroJitter:
    """The RNG stream a RaftNode draws election jitter from: always 0."""

    @staticmethod
    def integers(low, high):
        return low


def fresh(rank: int, config: RaftConfig = CONFIG, now: int = 0) -> RaftNode:
    return RaftNode(0, rank, REPLICAS, config, ZeroJitter(), now=now)


def _clone(node: RaftNode) -> RaftNode:
    twin = RaftNode.__new__(RaftNode)
    state = dict(node.__dict__)
    for name in ("log", "outbox", "_applied_out", "_installed_out",
                 "terms_led"):
        state[name] = list(state[name])
    for name in ("next_index", "match_index", "_ack_round", "_inflight"):
        state[name] = dict(state[name])
    for name in ("_votes", "_dead_peers"):
        state[name] = set(state[name])
    state["_snap_xfer"] = {p: dict(x) for p, x in node._snap_xfer.items()}
    if node._snap_in is not None:
        state["_snap_in"] = dict(node._snap_in,
                                 buf=bytearray(node._snap_in["buf"]))
    twin.__dict__ = state
    return twin


@functools.lru_cache(maxsize=None)
def _covered(blob: bytes) -> Tuple[Tuple[int, bytes], ...]:
    """The entries a snapshot blob of this model stands for."""
    return ast.literal_eval(blob.decode()) if blob else ()


def history(node: RaftNode) -> List[Tuple[int, bytes]]:
    """Every entry ``node`` holds, index 1 first: the ones its snapshot
    covers, then its log.  (The model compacts only to a snapshot's
    index, so the two meet at ``base_index``.)"""
    return list(_covered(node.snapshot_blob)) + node.log


@dataclass(frozen=True)
class Bounds:
    """Search depth, and how often each action may be taken on one path."""

    depth: int = 12
    proposals: int = 1
    crashes: int = 1
    restarts: int = 1
    drops: int = 0
    dups: int = 0
    timers: int = 3
    #: captures
    snapshots: int = 0


@dataclass
class World:
    config: RaftConfig
    nodes: List[Optional[RaftNode]]  # None: crashed
    clock: List[int]
    net: Tuple[Msg, ...]             # in flight, sorted
    #: budgets left: proposals, crashes, restarts, drops, dups, timers,
    #: snapshots
    left: Tuple[int, ...]
    #: per replica, its pending capture ``(index, blob)`` or None
    captures: Tuple[Optional[Tuple[int, bytes]], ...] = (None,) * N
    # ghost state the properties read (not part of the canonical form)
    leaders: Dict[int, int] = field(default_factory=dict)
    committed: Dict[int, Tuple[Tuple[int, bytes], int]] = \
        field(default_factory=dict)
    applied: Dict[int, Tuple[int, bytes]] = field(default_factory=dict)
    seen_commit: List[int] = field(default_factory=lambda: [0] * N)
    seen_applied: List[int] = field(default_factory=lambda: [0] * N)
    seen_base: List[int] = field(default_factory=lambda: [0] * N)
    proposed: int = 0

    @classmethod
    def start(cls, bounds: Bounds, config: RaftConfig = CONFIG) -> "World":
        return cls(config, [fresh(r, config) for r in REPLICAS], [0] * N, (),
                   (bounds.proposals, bounds.crashes, bounds.restarts,
                    bounds.drops, bounds.dups, bounds.timers,
                    bounds.snapshots))

    def copy(self) -> "World":
        return World(self.config,
                     [None if n is None else _clone(n) for n in self.nodes],
                     list(self.clock), self.net, self.left, self.captures,
                     dict(self.leaders), dict(self.committed),
                     dict(self.applied), list(self.seen_commit),
                     list(self.seen_applied), list(self.seen_base),
                     self.proposed)

    def key(self):
        nodes = tuple(
            None if n is None else
            (n.role, n.term, n.voted_for, n.leader, tuple(n.log),
             n.commit_index, n.last_applied,
             tuple(sorted(n.next_index.items())),
             tuple(sorted(n.match_index.items())),
             tuple(sorted(n._votes)),
             tuple(sorted(p for p, t in n._inflight.items() if t)),
             n.base_index, n.snapshot_blob,
             tuple(sorted((p, x["index"], x["offset"])
                          for p, x in n._snap_xfer.items())),
             None if n._snap_in is None else
             (n._snap_in["index"], len(n._snap_in["buf"])))
            for n in self.nodes)
        return nodes, self.net, self.left, self.captures

    # ------------------------------------------------------------ actions
    def moves(self) -> List[tuple]:
        """Every action enabled here (each distinct message once)."""
        proposals, crashes, restarts, drops, dups, timers, snaps = self.left
        out: List[tuple] = []
        for msg in sorted(set(self.net)):
            out.append(("deliver", msg))
            if drops:
                out.append(("drop", msg))
            if dups and self.net.count(msg) == 1:
                out.append(("dup", msg))
        for r, node in enumerate(self.nodes):
            if node is None:
                if restarts:
                    out.append(("restart", r))
                continue
            if timers:
                out.append(("timer", r))
            if proposals and node.role == LEADER:
                out.append(("propose", r))
            if crashes:
                out.append(("crash", r))
            if self.captures[r] is not None:
                out.append(("complete", r))
            elif snaps and node.last_applied > node.base_index:
                out.append(("capture", r))
        return out

    def apply(self, move: tuple) -> None:
        what, arg = move
        left = list(self.left)
        net = list(self.net)
        captures = list(self.captures)
        if what == "dup":
            net.append(arg)
            left[4] -= 1
        elif what in ("deliver", "drop"):
            net.remove(arg)
            src, dst, raw = arg
            if what == "drop":
                left[3] -= 1
            else:
                self.nodes[dst].on_message(decode_msg(raw), self.clock[dst])
        elif what == "timer":
            node = self.nodes[arg]
            self.clock[arg] = max(self.clock[arg], node.next_due())
            node.tick(self.clock[arg])
            left[5] -= 1
        elif what == "propose":
            self.proposed += 1
            self.nodes[arg].propose(b"c%d" % self.proposed, self.clock[arg])
            left[0] -= 1
        elif what == "capture":
            node = self.nodes[arg]
            node.take_applied()  # the state machine is at last_applied
            captures[arg] = (node.last_applied, repr(
                history(node)[:node.last_applied]).encode())
            left[6] -= 1
        elif what == "complete":
            index, blob = captures[arg]
            self.nodes[arg].take_snapshot(blob, index)
            captures[arg] = None
        elif what == "crash":
            self.nodes[arg] = None
            captures[arg] = None
            net = [m for m in net if m[1] != arg]
            left[1] -= 1
        else:  # restart
            self.nodes[arg] = fresh(arg, self.config, self.clock[arg])
            self.seen_commit[arg] = self.seen_applied[arg] = 0
            self.seen_base[arg] = 0
            left[2] -= 1
        for r, node in enumerate(self.nodes):
            if node is not None and node.outbox:
                net += [(r, dst, raw) for dst, raw in node.outbox
                        if self.nodes[dst] is not None]
                node.outbox.clear()
        self.net = tuple(sorted(net))
        self.left = tuple(left)
        self.captures = tuple(captures)

    # --------------------------------------------------------- properties
    def violation(self) -> Optional[str]:
        """The first Figure 3 property this state breaks, or None."""
        live = [(r, n) for r, n in enumerate(self.nodes) if n is not None]
        for r, n in live:
            covered = len(_covered(n.snapshot_blob))
            if covered != n.base_index or n.base_index < self.seen_base[r]:
                return (f"Snapshot Integrity: r{r}'s snapshot covers "
                        f"{covered} entries, its log starts after "
                        f"{n.base_index} (was {self.seen_base[r]})")
            self.seen_base[r] = n.base_index
        for r, n in live:
            if n.role == LEADER:
                first = self.leaders.setdefault(n.term, r)
                if first != r:
                    return (f"Election Safety: r{first} and r{r} both led "
                            f"term {n.term}")
        logs = {r: history(n) for r, n in live}
        for (ra, a), (rb, b) in ((x, y) for x in logs.items()
                                 for y in logs.items() if x[0] < y[0]):
            for i in range(min(len(a), len(b)), 0, -1):
                if a[i - 1][0] == b[i - 1][0]:
                    if a[:i] != b[:i]:
                        return (f"Log Matching: r{ra} and r{rb} agree on "
                                f"index {i}'s term, not on the prefix")
                    break
        for r, n in live:
            for i in range(self.seen_commit[r] + 1, n.commit_index + 1):
                entry = logs[r][i - 1]
                have = self.committed.setdefault(i, (entry, n.term))
                if have[0] != entry:
                    return (f"State Machine Safety: index {i} committed as "
                            f"{have[0]} and as {entry} (r{r})")
            self.seen_commit[r] = max(self.seen_commit[r], n.commit_index)
            for i in range(self.seen_applied[r] + 1, n.last_applied + 1):
                entry = logs[r][i - 1]
                have = self.applied.setdefault(i, entry)
                if have != entry:
                    return (f"State Machine Safety: r{r} applied {entry} at "
                            f"index {i}, another replica {have}")
            self.seen_applied[r] = max(self.seen_applied[r], n.last_applied)
        for r, n in live:
            if n.role != LEADER:
                continue
            for i, (entry, term) in sorted(self.committed.items()):
                if n.term > term and (i > len(logs[r])
                                      or logs[r][i - 1] != entry):
                    return (f"Leader Completeness: r{r} leads term {n.term} "
                            f"without index {i} {entry}, committed in term "
                            f"{term}")
        return None


def describe(move: tuple) -> str:
    what, arg = move
    if what not in ("deliver", "drop", "dup"):
        return f"{what} r{arg}"
    src, dst, raw = arg
    msg = decode_msg(raw)
    extra = ""
    if msg.kind == 2:
        extra = ", granted" if msg.granted else ", refused"
    elif msg.kind == 3:
        extra = f", prev {msg.prev_index}, {len(msg.entries)} entries"
    elif msg.kind == 4:
        extra = f", ok={msg.success}, match {msg.match_index}"
    return f"{what} {KIND[msg.kind]} r{src}->r{dst} (term {msg.term}{extra})"


@dataclass
class Result:
    violation: Optional[str]
    steps: List[tuple]
    states: int
    depth: int
    seconds: float


def resolve(world: World, step: tuple) -> tuple:
    """The move ``step`` names in ``world``: ``(action, rank)``, or
    ``("deliver", src, dst, kind, term)`` with ``kind`` a ``KIND`` name
    (the first such message in flight)."""
    if step[0] != "deliver":
        return step
    _what, src, dst, kind, term = step
    for msg in sorted(set(world.net)):
        decoded = decode_msg(msg[2])
        if msg[:2] == (src, dst) and (KIND[decoded.kind], decoded.term) == (
                kind, term):
            return ("deliver", msg)
    raise ValueError(f"no {step[1:]} message in flight")


def search(bounds: Bounds = Bounds(), config: RaftConfig = CONFIG,
           prefix=()) -> Result:
    """Breadth first to ``bounds.depth`` from the world that the fixed
    steps ``prefix`` (see :func:`resolve`; they spend ``bounds``' budgets
    too) lead to; stops at the first violation, so its step list is a
    shortest one that starts with ``prefix``."""
    t0 = time.perf_counter()
    root, path = World.start(bounds, config), []
    for step in prefix:
        path.append(resolve(root, step))
        root.apply(path[-1])
        bad = root.violation()
        if bad is not None:
            return Result(bad, path, 1, 0, time.perf_counter() - t0)
    seen = {root.key()}
    frontier: List[Tuple[World, List[tuple]]] = [(root, path)]
    for depth in range(1, bounds.depth + 1):
        nxt = []
        for world, path in frontier:
            for move in world.moves():
                child = world.copy()
                child.apply(move)
                bad = child.violation()
                if bad is not None:
                    return Result(bad, path + [move], len(seen), depth,
                                  time.perf_counter() - t0)
                key = child.key()
                if key not in seen:
                    seen.add(key)
                    nxt.append((child, path + [move]))
        frontier = nxt
    return Result(None, [], len(seen), bounds.depth,
                  time.perf_counter() - t0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tests/raft_model.py")
    defaults = Bounds()
    for name in Bounds.__dataclass_fields__:
        parser.add_argument(f"--{name}", type=int,
                            default=getattr(defaults, name))
    parser.add_argument("--entries-per-ae", type=int,
                        default=CONFIG.max_entries_per_ae,
                        help="RaftConfig.max_entries_per_ae")
    args = parser.parse_args(argv)
    bounds = Bounds(**{name: getattr(args, name)
                       for name in Bounds.__dataclass_fields__})
    config = dataclasses.replace(CONFIG,
                                 max_entries_per_ae=args.entries_per_ae)
    res = search(bounds, config)
    print(f"{bounds}: {res.states} states, {res.seconds:.1f} s")
    if res.violation is None:
        print(f"no violation to depth {res.depth}")
        return 0
    print(f"VIOLATION at depth {res.depth}: {res.violation}")
    for i, move in enumerate(res.steps, 1):
        print(f"  {i:2d}. {describe(move)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
