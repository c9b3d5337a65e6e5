"""Where the simulated time of a KV op goes: a hop-by-hop timeline.

``tests/event_origins.py`` counts an op's kernel events; this lays the
same op out in *time*.  It wraps ``KVClient._rpc``, the three ``KVNode``
handlers, ``KVNode._ship`` and ``KVNode._apply_committed`` from outside
(the ``tests/heap_oracle.py`` mould: production code has no hook for it),
runs one block of a perf KV workload and prints, for the first RPCs of
its timed region, every hop that op waited on — request handled, the
AppendEntries that carry its entry shipped and handled, each follower's
ack, the commit, the applies on the way, the answer shipped, filed and
returned — against simulated microseconds since the op began.

    python tests/op_timeline.py kv_write            # first op of each client
    python tests/op_timeline.py kv_chaos --ops 12 --seed 7003

``PYTHONPATH=<other tree>/src`` runs the same tool over another checkout.
An op is one ``_rpc``: a put, an rpc get, a loc lookup — a one-sided
``get_pwc`` read is not one and does not show.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.kv.client import KVClient
from repro.kv.raft import (MSG_APPEND, MSG_APPEND_REPLY, RaftMsg,
                           decode_msg)
from repro.kv.shard import CodecError
from repro.kv.store import (ACT_RAFT, ACT_RESP, KVNode, unpack_request,
                            unpack_response)

_KINDS = {0: "write", 1: "read", 2: "loc", 3: "snap"}


class Recorder:
    """Everything the wrapped methods saw while ``want`` RPCs were open."""

    def __init__(self):
        self.want = 0           # 0: not recording
        self.rpcs = []          # [t0, t1, rank, client, seq, kind, status]
        self.reqs = []          # (t, rank, client, seq, group, index)
        self.resps = []         # (t, rank, client, seq, status)
        self.rafts = []         # (t, rank, msg, commit before, commit after)
        self.ships = []         # (t0, t1, rank, dst, action, decoded)
        self.applies = []       # (t0, t1, rank, n)

    @property
    def on(self) -> bool:
        return self.want and (len(self.rpcs) < self.want
                              or any(r[1] is None
                                     for r in self.rpcs[:self.want]))


def _decode(action, payload):
    try:
        if action == ACT_RAFT:
            return decode_msg(payload)
        if action == ACT_RESP:
            return unpack_response(payload)
    except CodecError:
        pass
    return None


def install(rec: Recorder, patch=setattr) -> None:
    """Wrap the KV classes so that they report to ``rec``; a test passes
    ``monkeypatch.setattr`` as ``patch``."""
    rpc, ship, apply = KVClient._rpc, KVNode._ship, KVNode._apply_committed
    on_req, on_raft, on_resp = (KVNode.handle_request, KVNode.handle_raft,
                                KVNode.handle_response)

    def _rpc(self, kind, body, seq, key=None, group=None):
        row = None
        if rec.on:
            row = [self.env.now, None, self.node.rank, self.client_id, seq,
                   kind, None]
            rec.rpcs.append(row)
        status, value = yield from rpc(self, kind, body, seq, key, group)
        if row is not None:
            row[1], row[6] = self.env.now, status
        return status, value

    def _ship(self, dst, action, payload):
        t0 = self.env.now
        yield from ship(self, dst, action, payload)
        if rec.on:
            rec.ships.append((t0, self.env.now, self.rank, dst, action,
                              _decode(action, payload)))

    def _apply_committed(self):
        t0 = self.env.now
        n = yield from apply(self)
        if rec.on and n:
            rec.applies.append((t0, self.env.now, self.rank, n))
        return n

    def handle_request(self, src, payload):
        on_req(self, src, payload)
        if rec.on:
            try:
                _kind, client, seq, group, _e, _b = unpack_request(payload)
            except CodecError:
                return
            at = self._pending_uid.get((client, seq))
            rec.reqs.append((self.env.now, self.rank, client, seq, group,
                             at[1] if at else None))

    def handle_raft(self, src, payload):
        msg = _decode(ACT_RAFT, payload) if rec.on else None
        rn = self.raft.get(msg.group) if msg is not None else None
        before = rn.commit_index if rn is not None else 0
        on_raft(self, src, payload)
        if rn is not None:
            rec.rafts.append((self.env.now, self.rank, msg, before,
                              rn.commit_index))

    def handle_response(self, src, payload):
        on_resp(self, src, payload)
        if rec.on:
            decoded = _decode(ACT_RESP, payload)
            if decoded is not None:
                status, _hint, client, seq, _v = decoded
                rec.resps.append((self.env.now, self.rank, client, seq,
                                  status))

    patch(KVClient, "_rpc", _rpc)
    for wrapper in (_ship, _apply_committed, handle_request, handle_raft,
                    handle_response):
        patch(KVNode, wrapper.__name__, wrapper)


def _carries(msg, group, index) -> bool:
    return (isinstance(msg, RaftMsg) and msg.kind == MSG_APPEND
            and msg.group == group
            and msg.prev_index < index <= msg.prev_index + len(msg.entries))


def _acks(msg, group, index) -> bool:
    return (isinstance(msg, RaftMsg) and msg.kind == MSG_APPEND_REPLY
            and msg.group == group and msg.success
            and msg.match_index >= index)


def hops(rec: Recorder, rpc) -> list:
    """``[(t, rank, text)]`` of everything ``rpc`` waited on, in order."""
    t0, t1, rank, client, seq, kind, status = rpc
    uid = (client, seq)
    out = [(t0, rank, f"_rpc starts ({_KINDS.get(kind, kind)})")]
    answers = [(a, b, r, dst, dec[0])
               for a, b, r, dst, action, dec in rec.ships
               if action == ACT_RESP and dec and (dec[2], dec[3]) == uid
               and t0 <= a <= t1]
    # same-instant hops print in causal order: the sort is stable
    tail = [(b, r, f"answer (status {st}) shipped to r{dst} in "
                   f"{(b - a) / 1e3:.2f}") for a, b, r, dst, st in answers]
    for t, r, c, s, st in rec.resps:
        if (c, s) == uid and t0 <= t <= t1:
            tail.append((t, r, f"handle_response: status {st} filed"))
    tail.append((t1, rank, f"_rpc returns status {status}"))
    entry = None
    for t, r, c, s, group, index in rec.reqs:
        if (c, s) == uid and t0 <= t <= t1:
            out.append((t, r, "handle_request" + (
                f": proposed as g{group} index {index}" if index else "")))
            if index and entry is None:
                entry = (t, r, group, index)
    if entry is None:
        return sorted(out + tail, key=lambda hop: hop[0])
    t_req, leader, group, index = entry
    followers, t_commit = {}, None
    for a, b, r, dst, action, dec in rec.ships:
        if r == leader and a >= t_req and _carries(dec, group, index) \
                and dst not in followers:
            followers[dst] = a
            out.append((b, r, f"AppendEntries [{dec.prev_index + 1}.."
                              f"{dec.prev_index + len(dec.entries)}] commit "
                              f"{dec.commit} shipped to r{dst} in "
                              f"{(b - a) / 1e3:.2f}"))
    for f, t_sent in followers.items():
        t_in = next((t for t, r, msg, _b, _a in rec.rafts
                     if r == f and t >= t_sent
                     and _carries(msg, group, index)), None)
        ack = next(((a, b) for a, b, r, dst, _act, dec in rec.ships
                    if r == f and dst == leader and t_in is not None
                    and a >= t_in and _acks(dec, group, index)), None)
        if ack is None:
            continue
        out.append((t_in, f, "handle_raft: AppendEntries appended"))
        out.append((ack[1], f, f"ack shipped in {(ack[1] - ack[0]) / 1e3:.2f}"))
        out += [(b, f, f"applied {n} (earlier) entries for {(b - a) / 1e3:.2f}")
                for a, b, r, n in rec.applies
                if r == f and t_in <= a <= ack[1]]
        got = next(((t, before, after) for t, r, msg, before, after
                    in rec.rafts if r == leader and t >= ack[0]
                    and msg.src == f and _acks(msg, group, index)), None)
        if got is not None:
            commits = got[1] < index <= got[2]
            if commits:
                t_commit = got[0]
            out.append((got[0], leader, f"handle_raft: ack from r{f}"
                        + (f" commits index {index}" if commits else "")))
    if t_commit is not None:
        t_ans = min((b for a, b, r, _dst, _st in answers
                     if r == leader and a >= t_commit), default=t1)
        out += [(b, leader, f"applied {n} entries for {(b - a) / 1e3:.2f}")
                for a, b, r, n in rec.applies
                if r == leader and t_commit <= a <= t_ans]
        out += [(b, leader, f"next AppendEntries shipped to r{dst} in "
                            f"{(b - a) / 1e3:.2f}")
                for a, b, r, dst, _act, dec in rec.ships
                if r == leader and t_commit <= a <= t_ans
                and isinstance(dec, RaftMsg) and dec.kind == MSG_APPEND
                and dec.group == group and not _carries(dec, group, index)]
    return sorted(out + tail, key=lambda hop: hop[0])


def report(rec: Recorder, t_region: int) -> str:
    lines = []
    for n, rpc in enumerate(rec.rpcs[:rec.want], 1):
        t0, t1, rank, client, seq = rpc[:5]
        lines.append(f"op {n}: client {client} on r{rank}, seq {seq}, began "
                     f"{(t0 - t_region) / 1e3:.2f} us into the region, took "
                     f"{(t1 - t0) / 1e3:.3f} us")
        last = t0
        for t, r, text in hops(rec, rpc):
            lines.append(f"  {(t - t0) / 1e3:8.3f}  +{(t - last) / 1e3:6.3f}"
                         f"  r{r}  {text}")
            last = t
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="tests/op_timeline.py")
    parser.add_argument("workload", help="kv_write, kv_read or kv_chaos")
    parser.add_argument("--ops", type=int, default=4,
                        help="RPCs to lay out, in the order they begin")
    parser.add_argument("--seed", type=int, default=7001,
                        help="block seed of the perf workload")
    parser.add_argument("--scale", type=float, default=0.2)
    args = parser.parse_args(argv)

    rec = Recorder()
    install(rec)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perf.trace import HostTrace
    from perf.workloads import WORKLOADS
    trace = HostTrace(enabled=False)
    block = WORKLOADS[args.workload](args.seed, args.scale, spans=False,
                                     trace=trace)
    t_region = block.cl.env.now
    rec.want = args.ops         # the timed region only, not the preload
    with trace.span("timed_region") as region:
        block.run(region)
    result = block.finish()
    if result.errors:
        print("verification failed:", result.errors, file=sys.stderr)
        return 1
    print(report(rec, t_region))
    return 0


if __name__ == "__main__":
    sys.exit(main())
