"""The exhaustive Raft-core check (``tests/raft_model.py``) over tier-1
bounds, and the violation it finds on today's tree: ROADMAP item 1a, a
replica that restarts with no memory of its vote; Figure 8 of the Raft
paper, found by a directed search on a mutant that commits by count;
InstallSnapshot, searched from a leader that has trimmed its log past a
follower; and a pending capture that an installed snapshot overtakes."""

import dataclasses

import pytest

from repro.kv.raft import (LEADER, MSG_VOTE_REPLY, MSG_VOTE_REQ, RaftNode,
                           decode_msg)
from tests.raft_model import (CONFIG, Bounds, World, describe, fresh,
                              resolve, search)


def test_search_finds_the_amnesiac_vote():
    res = search(Bounds(depth=8, proposals=0, timers=2))
    assert res.violation == "Election Safety: r0 and r1 both led term 1"
    assert [m[0] for m in res.steps].count("restart") == 1


def test_no_violation_without_a_restart():
    res = search(Bounds(depth=7, proposals=1, crashes=1, restarts=0,
                        timers=3))
    assert res.violation is None and res.states > 1000


def test_a_restarted_replica_votes_twice_in_one_term():
    """DEFECT, pinned not fixed (item 1a), as the search found it: r1
    votes for r0 in term 1, crashes and comes back as a fresh node (term
    0, no vote); on its own election timer it stands in term 1, r2 —
    which never heard from r0 — grants, and term 1 has two leaders.  A
    replica that kept its vote (item 1b) would stand in term 2."""
    nodes, now = [fresh(r) for r in range(3)], 2

    def deliver(src, dst, kind):
        for i, (to, raw) in enumerate(nodes[src].outbox):
            msg = decode_msg(raw)
            if to == dst and msg.kind == kind:
                del nodes[src].outbox[i]
                nodes[dst].on_message(msg, now)
                return msg
        raise AssertionError(f"r{src} has no message of kind {kind} "
                             f"for r{dst}")

    nodes[0].tick(now)
    deliver(0, 1, MSG_VOTE_REQ)
    deliver(1, 0, MSG_VOTE_REPLY)
    assert (nodes[0].role, nodes[0].term) == (LEADER, 1)
    nodes[1] = fresh(1, now=now)  # crash, then restart with amnesia
    nodes[1].tick(nodes[1].next_due())
    deliver(1, 2, MSG_VOTE_REQ)
    assert deliver(2, 1, MSG_VOTE_REPLY).granted
    assert [(n.role, n.term) for n in nodes[:2]] == [(LEADER, 1)] * 2


A, B, C = 0, 1, 2
#: Figure 8 of Ongaro & Ousterhout on three replicas.  r0 wins term 1
#: with r1's vote and appends its no-op, which nobody else gets; r2 wins
#: term 2 with r1's vote; r0, deposed by r2's request, wins term 3 with
#: r1's vote; its first AppendEntries to r1 is refused, the second carries
#: the term-1 entry, r1 appends it and its ack is in flight.  Committing
#: that entry now would be committing by count an entry of an old term.
FIGURE_8 = [
    ("timer", A), ("deliver", A, B, "vote-req", 1),
    ("deliver", B, A, "vote-reply", 1),
    ("timer", C), ("timer", C), ("deliver", C, B, "vote-req", 2),
    ("deliver", B, C, "vote-reply", 2), ("deliver", C, A, "vote-req", 2),
    ("timer", A), ("deliver", A, B, "vote-req", 3),
    ("deliver", B, A, "vote-reply", 3),
    ("timer", A), ("deliver", A, B, "append", 3),
    ("deliver", B, A, "append-reply", 3),
    ("timer", A), ("deliver", A, B, "append", 3),
]
#: five more steps (the ack, r2 deposed, its timer, its term-4 vote)
#: reach the violation; one entry per AppendEntries, no restarts
FIGURE_8_BOUNDS = Bounds(depth=5, proposals=0, crashes=0, restarts=0,
                         timers=7)
FIGURE_8_CONFIG = dataclasses.replace(CONFIG, max_entries_per_ae=1)


def _commit_by_count(self):
    """``RaftNode._advance_commit`` without the current-term check."""
    for idx in range(self.last_index, self.commit_index, -1):
        if 2 * (1 + sum(m >= idx for m in self.match_index.values())) \
                > len(self.replicas):
            self.commit_index = idx
            break
    self._advance_applied()


def test_figure_8_on_the_mutant_that_commits_by_count(monkeypatch):
    monkeypatch.setattr(RaftNode, "_advance_commit", _commit_by_count)
    res = search(FIGURE_8_BOUNDS, FIGURE_8_CONFIG, FIGURE_8)
    assert res.violation is not None and res.violation.startswith(
        ("Leader Completeness", "State Machine Safety")), res.violation
    assert res.seconds < 5
    assert len(res.steps) == len(FIGURE_8) + 5


def test_figure_8_endings_are_safe_on_the_real_node():
    res = search(FIGURE_8_BOUNDS, FIGURE_8_CONFIG, FIGURE_8)
    assert res.violation is None and res.states > 1000


#: r0 wins term 1 with r1's vote, commits its no-op with r1's ack and
#: snapshots at index 1, trimming its log past r2, which has heard
#: nothing yet: r2's next AppendEntries after a retransmit timer is an
#: InstallSnapshot
SNAPSHOT = [
    ("timer", A), ("deliver", A, B, "vote-req", 1),
    ("deliver", B, A, "vote-reply", 1),
    ("timer", A), ("deliver", A, B, "append", 1),
    ("deliver", B, A, "append-reply", 1),
    ("capture", A), ("complete", A),
]
SNAPSHOT_BOUNDS = Bounds(depth=6, proposals=1, crashes=1, restarts=0,
                         timers=4, snapshots=2)


def _install_keeping_the_covered_entry(self, index, term, blob, t_start):
    """``RaftNode._install_snapshot`` trimming one entry too few when the
    snapshot is a prefix of the log: the entry at ``index`` stays in the
    log, so every later index is off by one."""
    if index <= self.last_index and self.base_index < index \
            and self.term_at(index) == term:
        del self.log[:index - self.base_index - 1]
    else:
        self.log.clear()
    self.base_index = index
    self.base_term = term
    self.commit_index = max(self.commit_index, index)
    self.last_applied = index
    self._applied_out.clear()
    self.snapshot_index = index
    self.snapshot_term = term
    self.snapshot_blob = blob


def test_install_snapshot_endings_are_safe_on_the_real_node():
    res = search(SNAPSHOT_BOUNDS, prefix=SNAPSHOT)
    assert res.violation is None and res.states > 10_000


def test_install_snapshot_mutant_is_caught(monkeypatch):
    """The shortest ending: r2 appends the no-op, then installs the
    snapshot that covers it, and r0's next proposal lands at an index r2
    already holds under the same term.  (A mutant that keeps a
    *conflicting* suffix is not caught here: with three replicas such a
    suffix is of an older term, its holder cannot win an election, and
    the next AppendEntries repairs it.)"""
    monkeypatch.setattr(RaftNode, "_install_snapshot",
                        _install_keeping_the_covered_entry)
    res = search(SNAPSHOT_BOUNDS, prefix=SNAPSHOT)
    steps = "\n".join(f"{i:2d}. {describe(m)}"
                      for i, m in enumerate(res.steps, 1))
    print(f"{res.violation}\n{steps}")
    assert res.violation == ("Log Matching: r0 and r2 agree on index 2's "
                             "term, not on the prefix"), steps
    assert res.seconds < 5
    assert [describe(m) for m in res.steps[len(SNAPSHOT):]] == [
        "deliver append r0->r2 (term 1, prev 0, 1 entries)",
        "timer r0", "deliver snap r0->r2 (term 1)", "propose r0"]
    # the same steps on the real node: r2 installs, nothing breaks
    monkeypatch.undo()
    world = World.start(SNAPSHOT_BOUNDS)
    for move in res.steps:
        world.apply(move)
        assert world.violation() is None
    assert world.nodes[C].snapshot_installs == 1
    assert world.nodes[C].base_index == 1


#: r2 applies r0's no-op and captures its machine at index 1; r0 commits
#: a proposal with r1, captures and completes a snapshot at index 2 and
#: streams it to r2, which installs it while its own capture is pending
SUPERSEDED = [
    ("timer", A), ("deliver", A, B, "vote-req", 1),
    ("deliver", B, A, "vote-reply", 1),
    ("timer", A), ("deliver", A, B, "append", 1),
    ("deliver", A, C, "append", 1), ("deliver", B, A, "append-reply", 1),
    ("timer", A), ("deliver", A, C, "append", 1), ("capture", C),
    ("deliver", A, B, "append", 1), ("deliver", B, A, "append-reply", 1),
    ("propose", A), ("timer", A), ("deliver", A, B, "append", 1),
    ("deliver", B, A, "append-reply", 1),
    ("capture", A), ("complete", A), ("timer", A),
    ("deliver", A, C, "snap", 1),
]
#: the endings may crash and restart a replica, and capture again
SUPERSEDED_BOUNDS = Bounds(depth=4, proposals=1, crashes=1, restarts=1,
                           timers=7, snapshots=3)


_take_snapshot = RaftNode.take_snapshot


def _adopt_the_stale_blob(self, blob, index):
    """``RaftNode.take_snapshot``, except that a capture an installed
    snapshot has overtaken replaces the installed blob."""
    if index > self.snapshot_index:
        return _take_snapshot(self, blob, index)
    self.snapshot_index = index
    self.snapshot_blob = bytes(blob)
    return True


def _rebase_on_the_capture(self, blob, index):
    """The same, also moving ``base_index`` back to the capture."""
    if index > self.snapshot_index:
        return _take_snapshot(self, blob, index)
    self.snapshot_index = self.base_index = index
    self.snapshot_blob = bytes(blob)
    return True


def test_a_superseded_capture_completes_as_a_no_op():
    world = World.start(SUPERSEDED_BOUNDS)
    res = search(SUPERSEDED_BOUNDS, prefix=SUPERSEDED)
    assert res.violation is None and res.states > 1000
    for step in SUPERSEDED:
        world.apply(resolve(world, step))
    assert world.captures[C] == (1, b"[(1, b'')]")
    assert world.nodes[C].snapshot_index == world.nodes[C].base_index == 2
    world.apply(("complete", C))
    assert world.violation() is None
    assert world.nodes[C].snapshot_index == 2
    assert world.nodes[C].snapshots_taken == 0


@pytest.mark.parametrize("mutant", [_adopt_the_stale_blob,
                                    _rebase_on_the_capture])
def test_adopting_a_superseded_capture_is_caught(monkeypatch, mutant):
    monkeypatch.setattr(RaftNode, "take_snapshot", mutant)
    res = search(SUPERSEDED_BOUNDS, prefix=SUPERSEDED)
    steps = "\n".join(f"{i:2d}. {describe(m)}"
                      for i, m in enumerate(res.steps, 1))
    print(f"{res.violation}\n{steps}")
    assert res.violation is not None and res.violation.startswith(
        "Snapshot Integrity: r2"), steps
    assert describe(res.steps[-1]) == "complete r2"
