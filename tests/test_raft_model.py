"""The exhaustive Raft-core check (``tests/raft_model.py``) over tier-1
bounds, and the violation it finds on today's tree: ROADMAP item 1a, a
replica that restarts with no memory of its vote; and Figure 8 of the Raft
paper, found by a directed search on a mutant that commits by count."""

import dataclasses

from repro.kv.raft import (LEADER, MSG_VOTE_REPLY, MSG_VOTE_REQ, RaftNode,
                           decode_msg)
from tests.raft_model import CONFIG, Bounds, fresh, search


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
