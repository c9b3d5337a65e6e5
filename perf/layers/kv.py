"""kv: Raft append->commit on a synchronous bus, and the command codec."""

from __future__ import annotations

import time

from repro.kv import (Command, LEADER, OP_PUT, RaftConfig, RaftNode,
                      decode_command, decode_msg, encode_command)
from repro.sim.rng import RngRegistry

COMMITS = 600
CODEC_OPS = 10_000
TICK_NS = 50_000


class _SyncBus:
    """Three RaftNodes with instant in-memory delivery and a manual
    clock: no fabric, no sim kernel — protocol logic and codecs only."""

    def __init__(self):
        streams = RngRegistry(1).namespace("perf.kv.raft")
        self.nodes = [RaftNode(0, r, [0, 1, 2], RaftConfig(),
                               streams.stream(f"r{r}")) for r in range(3)]
        self.now = 0

    def deliver(self) -> None:
        moved = True
        while moved:
            moved = False
            for node in self.nodes:
                pending, node.outbox = node.outbox, []
                for dst, raw in pending:
                    self.nodes[dst].on_message(decode_msg(raw), self.now)
                    moved = True

    def step(self) -> None:
        self.now += TICK_NS
        for node in self.nodes:
            node.tick(self.now)
        self.deliver()

    def elect(self) -> RaftNode:
        for _ in range(400):
            leaders = [n for n in self.nodes if n.role == LEADER]
            if leaders:
                self.step()
                return leaders[0]
            self.step()
        raise RuntimeError("sync bus elected no leader")


def raft_commit():
    """propose -> AppendEntries round on the bus -> take_applied on all
    three replicas, one command at a time."""
    bus = _SyncBus()
    leader = bus.elect()
    for node in bus.nodes:
        node.take_applied()
    command = encode_command(Command(op=OP_PUT, client=1, seq=1,
                                     key=b"kv:00000001", value=b"v" * 64))
    applied = 0
    t0 = time.perf_counter()
    for _ in range(COMMITS):
        leader.propose(command, bus.now)
        leader.tick(bus.now)
        bus.deliver()
        applied += len(leader.take_applied())
        for node in bus.nodes:
            if node is not leader:
                node.take_applied()
    dt = time.perf_counter() - t0
    if applied != COMMITS:
        raise RuntimeError(f"leader applied {applied} of {COMMITS} commands")
    return COMMITS, dt


def command_codec():
    """encode_command -> decode_command for a 64 B put."""
    cmd = Command(op=OP_PUT, client=3, seq=9, key=b"kv:00000042",
                  value=b"v" * 64)
    t0 = time.perf_counter()
    for _ in range(CODEC_OPS):
        out = decode_command(encode_command(cmd))
    dt = time.perf_counter() - t0
    if out != cmd:
        raise RuntimeError("command codec round trip changed the command")
    return CODEC_OPS, dt


BENCHES = {
    "kv.raft_commit_per_s": raft_commit,
    "kv.command_codec_ops_per_s": command_codec,
}
