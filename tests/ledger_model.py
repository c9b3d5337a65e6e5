"""Exhaustive, depth-bounded check of Photon's ledger channel.

``PeerChannel`` (``repro.photon.ledger``) is pure state: slot claims,
sequence stamps, credits, the dedup window and the epoch, over a buffer
it only reads.  A :class:`World` is two endpoints, each with its channel
toward the other over a ``bytearray`` of its own, in the style of
``tests/raft_model.py``: nothing happens on its own, every step is one
explicit action, and each action does what ``PhotonBase`` does around
the channel:

- ``post r k``: endpoint r starts a reliable op whose one entry goes into
  ring k of its peer (``_entry_op``), claiming a slot if there is room
  and otherwise waiting for it;
- ``room r i``: an attempt of r's op i that waits for room claims its
  slot now (``_await_room`` returned), unless its op moved on meanwhile
  (a later attempt started, or the op settled): then it claims nothing;
- ``land d`` / ``quiet d`` / ``drop d`` / ``error d`` / ``dup d``: the
  oldest write in flight from d (one queue pair, so in order) places its
  next chunk; places the rest but its ack is lost; is lost silently (a
  partition: only a deadline notices); fails with an error CQE; or is
  delivered twice.  An error reposts through ``verbs.qp.Repost``:
  an entry's WR goes again as it stands (``_post_entry``) until its
  chain has spent ``Bounds.resends``, and then the attempt fails through
  the op's ``on_error`` into backoff; a credit word is resent as it
  stands now, with no budget (``_send_credit``);
- ``deadline r i``: r's pending op i times out and replays
  (``_post_ring_entry``: covered by credit, the same slot again, or a
  fresh claim after a reset); ``retry r i``: r's op i in backoff replays
  the same way;
- ``consume r``: one ``_scan_peer`` pass at r: every ready entry in ring
  order, the dedup check for completion entries and eager messages, then
  the credit returns;
- ``rearm``: a new epoch on both sides (``rearm_peer`` / ``rejoin``):
  writes in flight and pending ops are lost, entries acked but not yet
  consumed go with the old epoch.

After every step the world is checked for the channel's properties:

- an acked entry is consumed exactly once (at quiescence: every acked
  entry of the epoch was consumed), and what is consumed is what was
  built — no torn entry;
- a producer never overwrites a slot holding an unconsumed entry;
- ``rx_seen`` drains: it holds ids only while the id just above its
  high-water mark belongs to an op of the peer still in flight (a bare
  count of ops in flight is no bound: one lost entry and two later ones
  delivered leave two ids there with one op in flight);
- at quiescence no ring has a hole: every claimed slot was consumed;
- no op is stranded: a pending op's current attempt has a write in
  flight or waits for room, unless its write was lost silently (an error
  CQE reaches the op; only a silent loss waits for a deadline);
- an entry write is resent at most ``Bounds.resends`` times;
- the channel's own checks (credit ahead of produced, a full ring, an
  oversized entry) never fire.

States are deduplicated on their full contents, so the search is a bug
finder that reports a shortest step list.

    python tests/ledger_model.py                   # the defaults of Bounds
    python tests/ledger_model.py --depth 8 --posts 3 --directions 2
    python tests/ledger_model.py --resends 1 --drops 2
"""

from __future__ import annotations

import argparse
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:
    from repro.photon import ledger
except ImportError:  # run as a script without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.photon import ledger
from repro.photon.ledger import (
    CMP, COVERED, EAGER, FIN, INFO, REWRITE, RING_NAMES, Geometry,
    PeerChannel)
from repro.photon.wire import (
    COMPLETION_ENTRY_SIZE, CompletionEntry, EAGER_HEADER_SIZE, EagerHeader,
    FIN_ENTRY_SIZE, FinEntry, INFO_ENTRY_SIZE, InfoEntry)
from repro.sim.core import SimulationError

#: bytes a write places per ``land``, the model's MTU: every entry is one
#: chunk but the longer eager one, which is two (the fabric places a
#: message chunk by chunk, and a write of one chunk at once)
CHUNK = 64
#: eager payload bytes by op index parity (the trailer moves with them)
PAYLOADS = (16, 48)
RKEY = 7


def geometry(slots: int) -> Geometry:
    return Geometry((slots,) * 4, (
        COMPLETION_ENTRY_SIZE, EAGER_HEADER_SIZE + max(PAYLOADS) + 8,
        INFO_ENTRY_SIZE, FIN_ENTRY_SIZE))


def build(r: int, i: int, k: int):
    """The entry ``build(seq, op_id)`` endpoint r's op i posts in ring k,
    as ``pwc`` / ``messaging`` build theirs (the cid or request id is the
    op's index, so the consumer names the op it took)."""
    if k == CMP:
        return lambda seq, op: CompletionEntry(seq, i, r, op).pack()
    if k == EAGER:
        payload = bytes([65 + i]) * PAYLOADS[i % 2]
        return lambda seq, op: EagerHeader(
            seq, i, r, len(payload), op).pack() + payload
    if k == INFO:
        return lambda seq, op: InfoEntry(seq, i, 0, 0, 1, 0, r).pack()
    return lambda seq, op: FinEntry(seq, i).pack()


@dataclass(frozen=True)
class Bounds:
    """Search depth, and how often each action may be taken on one path."""

    depth: int = 7
    #: slots per ring (2-4)
    slots: int = 2
    #: rings ops may post into, a prefix of cmp, eager, info, fin
    rings: int = 3
    #: 1: endpoint 0 produces and 1 consumes; 2: both ways
    directions: int = 1
    posts: int = 2
    #: lost writes: silent, with an error CQE, or with the ack lost
    drops: int = 1
    #: resends of an entry write that errors before its chain gives up
    #: (``ENTRY_RESEND_LIMIT``)
    resends: int = 0
    dups: int = 1
    deadlines: int = 1
    rearms: int = 1


#: an op: (ring, op_id, claim, attempts, state) with claim (epoch, seq,
#: remote address, entry bytes) or None and state pending, lost (pending,
#: its attempt's write lost silently), backoff, acked or failed
Op = Tuple[int, int, Optional[tuple], int, str]
_OP_FIELDS = ("ring", "op_id", "claim", "attempts", "state")
#: a write in flight: (address, bytes, chunks placed, what) with what
#: ("entry", op index, attempt, resends) or ("credit", ring)
Write = Tuple[int, bytes, int, tuple]


@dataclass
class World:
    bounds: Bounds
    bufs: List[bytearray]
    chans: List[PeerChannel]
    #: per sender, its writes in flight, oldest first
    net: List[Tuple[Write, ...]]
    #: per producer, its ops by index
    ops: List[Tuple[Op, ...]]
    #: per producer, attempts waiting for ring room: (op index, attempt)
    waiting: List[Tuple[Tuple[int, int], ...]]
    #: budgets left: posts, drops, dups, deadlines, rearms
    left: Tuple[int, ...]
    # ghost state the properties read
    epoch: int = 0
    #: (producer, op index) consumed this epoch
    delivered: frozenset = frozenset()
    #: per consumer, slot address -> seq of the whole entry placed there
    placed: List[Dict[int, int]] = field(default_factory=lambda: [{}, {}])
    #: (producer, ring, seq) -> the entry built for that claim this epoch
    built: Dict[Tuple[int, int, int], bytes] = field(default_factory=dict)

    @classmethod
    def start(cls, bounds: Bounds) -> "World":
        g = geometry(bounds.slots)
        bufs = [bytearray(g.stride), bytearray(g.stride)]
        # one peer each, so both blocks start at 0 of their region
        chans = [PeerChannel(g, buf, 0, 0, RKEY) for buf in bufs]
        return cls(bounds, bufs, chans, [(), ()], [(), ()], [(), ()],
                   (bounds.posts, bounds.drops, bounds.dups,
                    bounds.deadlines, bounds.rearms))

    def copy(self) -> "World":
        bufs = [bytearray(b) for b in self.bufs]
        chans = []
        for ch, buf in zip(self.chans, bufs):
            twin = PeerChannel.__new__(PeerChannel)
            state = dict(vars(ch), buf=buf)
            for name in _LISTS:
                state[name] = state[name][:]
            for name in _SETS:
                state[name] = set(state[name])
            twin.__dict__ = state
            chans.append(twin)
        return World(self.bounds, bufs, chans, list(self.net),
                     list(self.ops), list(self.waiting), self.left,
                     self.epoch, self.delivered,
                     [dict(p) for p in self.placed], dict(self.built))

    def key(self):
        chans = []
        for ch in self.chans:
            state = vars(ch)
            chans += [state[name] for name in _SCALARS]
            chans += [tuple(state[name]) for name in _LISTS]
            chans += [frozenset(state[name]) for name in _SETS]
        return (bytes(self.bufs[0]), bytes(self.bufs[1]), tuple(chans),
                tuple(self.net),
                tuple(self.ops), tuple(self.waiting), self.left,
                self.delivered,
                tuple(tuple(sorted(p.items())) for p in self.placed),
                tuple(sorted(self.built)))

    # ------------------------------------------------------------ actions
    def moves(self) -> List[tuple]:
        posts, drops, dups, deadlines, rearms = self.left
        out: List[tuple] = []
        for r in range(self.bounds.directions):
            if posts:
                out += [("post", r, k) for k in range(self.bounds.rings)]
            for i, attempt in self.waiting[r]:
                if self.chans[r].available(self.ops[r][i][0]) > 0:
                    out.append(("room", r, (i, attempt)))
            for i, op in enumerate(self.ops[r]):
                if op[4] == "backoff":
                    out.append(("retry", r, i))
                elif deadlines and op[4] in ("pending", "lost"):
                    out.append(("deadline", r, i))
        for d in (0, 1):
            if self.net[d]:
                out.append(("land", d, None))
                if drops:
                    out += [("drop", d, None), ("error", d, None)]
                    if self.net[d][0][3][0] == "entry":
                        out.append(("quiet", d, None))
                if dups:
                    out.append(("dup", d, None))
        for r in (0, 1):
            if self.chans[r].pending():
                out.append(("consume", r, None))
        if rearms:
            out.append(("rearm", None, None))
        return out

    def apply(self, move: tuple) -> None:
        what, who, arg = move
        left = list(self.left)
        if what == "post":
            left[0] -= 1
            self.ops[who] += ((arg, 0, None, 0, "pending"),)
            self._attempt(who, len(self.ops[who]) - 1)
        elif what == "room":
            self.waiting[who] = tuple(w for w in self.waiting[who]
                                      if w != arg)
            self._room(who, *arg)
        elif what == "deadline":
            left[3] -= 1
            self._attempt(who, arg)
        elif what == "retry":
            self._attempt(who, arg)
        elif what == "consume":
            self._consume(who)
        elif what == "rearm":
            left[4] -= 1
            self._rearm()
        else:
            write, *rest = self.net[who]
            if what == "dup":
                left[2] -= 1
                self.net[who] = (write, write[:2] + (0, write[3]),
                                 *rest)
            elif what in ("drop", "error"):
                left[1] -= 1
                self.net[who] = tuple(rest)
                if what == "error" and write[3][0] == "credit":
                    self._send_credit(who, write[3][1])
                elif what == "error":
                    self._resend(who, write)
                elif write[3][0] == "entry":
                    self._lost(who, *write[3][1:3])
            else:
                self._land(who, write, tuple(rest), quiet=what == "quiet")
        self.left = tuple(left)

    def _set(self, r: int, i: int, **change) -> None:
        op = dict(zip(_OP_FIELDS, self.ops[r][i]), **change)
        ops = list(self.ops[r])
        ops[i] = tuple(op[name] for name in _OP_FIELDS)
        self.ops[r] = tuple(ops)

    def _attempt(self, r: int, i: int) -> None:
        """One attempt of r's op i (``_start_attempt`` →
        ``_post_ring_entry``)."""
        ch = self.chans[r]
        ring, _op_id, claim, attempts, _state = self.ops[r][i]
        attempts += 1
        self._set(r, i, attempts=attempts, state="pending")
        if claim is not None:
            epoch, seq, addr, entry = claim
            verdict = ch.replay(ring, epoch, seq)
            if verdict is COVERED:
                self._set(r, i, state="acked")
                return
            if verdict is REWRITE:  # the same WR into the same slot
                self.net[r] += ((addr, entry, 0,
                                 ("entry", i, attempts, 0)),)
                return
        if ch.available(ring) <= 0:
            self.waiting[r] += ((i, attempts),)
            return
        self._claim(r, i, attempts)

    def _room(self, r: int, i: int, attempt: int) -> None:
        """An attempt that waited for room claims its slot, unless its op
        moved on meanwhile (``_post_ring_entry`` after ``_await_room``)."""
        _ring, _op_id, _claim, attempts, state = self.ops[r][i]
        if attempts == attempt and state not in ("acked", "failed"):
            self._claim(r, i, attempt)

    def _claim(self, r: int, i: int, attempt: int) -> None:
        ch = self.chans[r]
        ring, op_id, _claim, _attempts, _state = self.ops[r][i]
        op_id, seq, entry, _stage, addr = ch.claim(ring, op_id,
                                                   build(r, i, ring))
        self._set(r, i, op_id=op_id, claim=(ch.epoch, seq, addr, entry))
        self.built[(r, ring, seq)] = entry
        self.net[r] += ((addr, entry, 0, ("entry", i, attempt, 0)),)

    def _resend(self, d: int, write: Write) -> None:
        """An error CQE on an entry write: the same WR again for the same
        attempt while its chain has resends left; then the attempt fails
        through the op's ``on_error`` (a stale attempt's is ignored)."""
        addr, data, _placed, (_what, i, attempt, resends) = write
        if resends < self.bounds.resends:
            self.net[d] += ((addr, data, 0,
                             ("entry", i, attempt, resends + 1)),)
            return
        op = self.ops[d][i]
        if op[4] in ("pending", "lost") and op[3] == attempt:
            self._set(d, i, state="backoff")

    def _send_credit(self, r: int, ring: int) -> None:
        value, _stage, addr = self.chans[r].credit_word(ring)
        self.net[r] += ((addr, struct.pack("<Q", value), 0,
                         ("credit", ring)),)

    def _land(self, d: int, write: Write, rest: tuple, quiet: bool) -> None:
        """Place the write's next chunk (``quiet``: all that is left, and
        its ack is lost); the last one acks the attempt that posted it."""
        addr, data, placed, what = write
        lo = placed * CHUNK
        hi = len(data) if quiet else min(len(data), lo + CHUNK)
        buf = self.bufs[1 - d]
        if what[0] == "entry":
            self._check_overwrite(1 - d, addr, data)
        buf[addr + lo:addr + hi] = data[lo:hi]
        if hi < len(data):
            self.net[d] = (write[:2] + (placed + 1, what),) + rest
            return
        self.net[d] = rest
        if what[0] == "credit":
            return
        self.placed[1 - d][addr] = struct.unpack_from("<Q", data)[0]
        _what, i, attempt, _resends = what
        op = self.ops[d][i]
        if quiet:
            self._lost(d, i, attempt)
        elif op[4] in ("pending", "lost") and op[3] == attempt:
            self._set(d, i, state="acked")

    def _lost(self, d: int, i: int, attempt: int) -> None:
        if self.ops[d][i][3:] == (attempt, "pending"):
            self._set(d, i, state="lost")

    def _check_overwrite(self, consumer: int, addr: int, data: bytes):
        seq = struct.unpack_from("<Q", data)[0]
        old = self.placed[consumer].get(addr)
        ring = self._ring_of(addr)
        if (old is not None and old != seq
                and old > self.chans[consumer].consumed[ring]):
            raise Violation(
                f"r{1 - consumer} overwrote r{consumer}'s unconsumed "
                f"{RING_NAMES[ring]} entry seq {old} with seq {seq}")

    def _ring_of(self, addr: int) -> int:
        g = self.chans[0].geometry
        return max(k for k in range(4) if g.cons[k] <= addr)

    def _consume(self, r: int) -> None:
        """``_scan_peer`` at r: drain every ring, then return credit."""
        ch, buf, producer = self.chans[r], self.bufs[r], 1 - r
        for ring in (CMP, EAGER, INFO, FIN):
            while (head := ch.take(ring)) is not None:
                if ring == CMP:
                    entry = CompletionEntry.unpack_from(buf, head)
                    i, op_id, nbytes = entry.cid, entry.op, 32
                elif ring == EAGER:
                    header = EagerHeader.unpack_from(buf, head)
                    i, op_id = header.cid, header.op
                    nbytes = EAGER_HEADER_SIZE + header.size
                else:
                    i = (InfoEntry if ring == INFO else FinEntry
                         ).unpack_from(buf, head).req
                    op_id = 0
                    nbytes = (INFO_ENTRY_SIZE if ring == INFO
                              else FIN_ENTRY_SIZE)
                if ring <= EAGER and not ch.fresh(op_id):
                    continue  # a replay, already delivered
                self._deliver(producer, i, ring, ch.consumed[ring],
                              bytes(buf[head:head + nbytes]))
        for ring in (CMP, EAGER, INFO, FIN):
            if ch.credit_due(ring):
                ch.mark_credit_sent(ring)
                self._send_credit(r, ring)

    def _deliver(self, producer: int, i: int, ring: int, seq: int,
                 got: bytes):
        built = self.built.get((producer, ring, seq))
        if built is None or got != built[:len(got)] or len(
                built) - len(got) != (8 if ring == EAGER else 0):
            raise Violation(f"torn {RING_NAMES[ring]} entry seq {seq} of "
                            f"r{producer}'s op {i} consumed: its "
                            f"{len(got)} B are not the ones built")
        if (producer, i) in self.delivered:
            raise Violation(f"r{producer}'s {RING_NAMES[ring]} op {i} "
                            f"consumed twice (seq {seq})")
        self.delivered |= {(producer, i)}

    def _rearm(self) -> None:
        for ch, buf in zip(self.chans, self.bufs):
            for addr, nbytes in ch.reset(RKEY):
                buf[addr:addr + nbytes] = bytes(nbytes)
        self.net = [(), ()]
        self.waiting = [(), ()]
        self.ops = [tuple(op if op[4] in ("acked", "failed")
                          else op[:4] + ("failed",) for op in ops)
                    for ops in self.ops]
        self.epoch += 1
        self.placed = [{}, {}]
        self.built = {}
        # entries acked but not consumed went with the old epoch
        self.delivered = frozenset(
            (r, i) for r, ops in enumerate(self.ops)
            for i, op in enumerate(ops) if op[4] == "acked")

    # --------------------------------------------------------- properties
    def violation(self) -> Optional[str]:
        for r, ch in enumerate(self.chans):
            peer = 1 - r
            gap = [i for i, op in enumerate(self.ops[peer])
                   if op[1] == ch.rx_hwm + 1 and op[4] != "failed"
                   and (peer, i) not in self.delivered]
            if ch.rx_seen and not gap:
                return (f"r{r}'s rx_seen holds {sorted(ch.rx_seen)} above "
                        f"id {ch.rx_hwm + 1}, which no op of r{peer} in "
                        "flight holds: it never drains")
        for ch in self.chans[:self.bounds.directions]:
            for k in range(self.bounds.rings):
                ch.available(k)  # raises on credit ahead of produced
        for d, writes in enumerate(self.net):
            for _addr, _data, _placed, what in writes:
                if what[0] == "entry" and what[3] > self.bounds.resends:
                    return (f"r{d}'s op {what[1]} entry write had "
                            f"{what[3]} resends, past its budget of "
                            f"{self.bounds.resends}")
        for r, ops in enumerate(self.ops):
            for i, (_ring, _id, _claim, attempt, state) in enumerate(ops):
                if state == "pending" and not self._alive(r, i, attempt):
                    return (f"r{r}'s op {i} is stranded: attempt {attempt} "
                            "ended and nothing but a deadline retries it")
        quiet = (not any(self.net) and not any(self.waiting)
                 and all(op[4] in ("acked", "failed")
                         for ops in self.ops for op in ops)
                 and not any(ch.pending() for ch in self.chans))
        if not quiet:
            return None
        for r, ops in enumerate(self.ops):
            for i, op in enumerate(ops):
                if op[4] == "acked" and (r, i) not in self.delivered:
                    return (f"r{r}'s {RING_NAMES[op[0]]} op {i} was acked "
                            "and never consumed")
            mine, theirs = self.chans[r], self.chans[1 - r]
            for k in range(4):
                if mine.produced[k] != theirs.consumed[k]:
                    return (f"hole: r{r} produced {mine.produced[k]} "
                            f"{RING_NAMES[k]} entries, r{1 - r} consumed "
                            f"{theirs.consumed[k]}")
        return None

    def _alive(self, r: int, i: int, attempt: int) -> bool:
        """Is attempt ``attempt`` of r's op i in flight or waiting?"""
        return ((i, attempt) in self.waiting[r]
                or any(what[0] == "entry" and what[1:3] == (i, attempt)
                       for *_write, what in self.net[r]))


class Violation(Exception):
    pass


def _fields(kind) -> Tuple[str, ...]:
    """A channel's state fields of one type (its buffer and geometry are
    the world's, not its state)."""
    fresh = vars(PeerChannel(geometry(2), bytearray(), 0, 0, RKEY))
    return tuple(name for name, v in fresh.items() if type(v) is kind
                 and name != "buf")


_SCALARS, _LISTS, _SETS = _fields(int), _fields(list), _fields(set)


def describe(move: tuple) -> str:
    what, who, arg = move
    if what == "post":
        return f"post r{who} {RING_NAMES[arg]}"
    if what == "room":
        return f"room r{who} op {arg[0]} (attempt {arg[1]})"
    if what in ("deadline", "retry"):
        return f"{what} r{who} op {arg}"
    if what == "rearm":
        return "rearm"
    if what == "consume":
        return f"consume r{who}"
    return f"{what} r{who}->r{1 - who}"


@dataclass
class Result:
    violation: Optional[str]
    steps: List[tuple]
    states: int
    depth: int
    seconds: float


def _step(world: World, move: tuple) -> Optional[str]:
    try:
        world.apply(move)
        return world.violation()
    except (Violation, SimulationError) as exc:
        return str(exc)


def search(bounds: Bounds = Bounds(), prefix=()) -> Result:
    """Breadth first to ``bounds.depth`` from the world the fixed moves
    ``prefix`` lead to; stops at the first violation, so its step list is
    a shortest one that starts with ``prefix``."""
    t0 = time.perf_counter()
    root = World.start(bounds)
    for move in prefix:
        bad = _step(root, move)
        if bad is not None:
            return Result(bad, list(prefix), 1, 0, time.perf_counter() - t0)
    seen = {root.key()}
    frontier: List[Tuple[World, List[tuple]]] = [(root, list(prefix))]
    for depth in range(1, bounds.depth + 1):
        nxt = []
        for world, path in frontier:
            for move in world.moves():
                child = world.copy()
                bad = _step(child, move)
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
    parser = argparse.ArgumentParser(prog="tests/ledger_model.py")
    defaults = Bounds()
    for name in Bounds.__dataclass_fields__:
        parser.add_argument(f"--{name}", type=int,
                            default=getattr(defaults, name))
    args = parser.parse_args(argv)
    bounds = Bounds(**{name: getattr(args, name)
                       for name in Bounds.__dataclass_fields__})
    res = search(bounds)
    print(f"{bounds}: {res.states} states, {res.seconds:.1f} s "
          f"({ledger.__file__})")
    if res.violation is None:
        print(f"no violation to depth {res.depth}")
        return 0
    print(f"VIOLATION at depth {res.depth}: {res.violation}")
    for i, move in enumerate(res.steps, 1):
        print(f"  {i:2d}. {describe(move)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
