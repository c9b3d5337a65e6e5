"""The exhaustive ledger-channel check (``tests/ledger_model.py``) over
tier-1 bounds, the replay verdicts it drives, and the defect it finds on
today's tree: an attempt that waited for ring room claims a slot after a
later attempt of the same op has claimed one."""

from repro.photon.ledger import CMP, INFO
from tests.ledger_model import Bounds, World, search


def test_the_default_search_finds_no_violation():
    res = search()
    assert res.violation is None
    assert res.states > 10_000 and res.seconds < 5


def _drive(world, moves):
    for move in moves:
        assert move in world.moves()
        world.apply(move)
        assert world.violation() is None


def test_a_replay_rewrites_its_slot_until_credit_covers_it():
    """A write that lands with its ack lost leaves its op pending.  Its
    deadline rewrites the same slot while the peer's credit does not
    cover it; once the credit does, the deadline acks the op with nothing
    written (credit is an ack)."""
    world = World.start(Bounds(drops=2, deadlines=2))
    _drive(world, [("post", 0, CMP), ("quiet", 0, None),
                   ("deadline", 0, 0)])
    (addr, entry, _placed, what), = world.net[0]
    assert (addr, entry) == world.ops[0][0][2][2:]  # the claimed slot
    assert what == ("entry", 0, 2)  # the second attempt's
    _drive(world, [("land", 0, None), ("post", 0, CMP), ("quiet", 0, None),
                   ("consume", 1, None), ("land", 1, None)])
    assert [op[4] for op in world.ops[0]] == ["acked", "pending"]
    assert world.delivered == {(0, 0), (0, 1)}
    _drive(world, [("deadline", 0, 1)])
    assert world.ops[0][1][4] == "acked" and not world.net[0]


def test_a_stale_attempt_claims_a_second_slot():
    """DEFECT, pinned not fixed (ROADMAP 19c), as the search found it:
    r0's third info entry waits for room in a full 2-slot ring, its
    deadline starts a second attempt that waits too, and when the credit
    frees both slots each attempt claims one.  An info or FIN entry
    carries no dedup id, so the peer takes the same rendezvous entry
    twice (a completion entry or eager message would be dropped by id)."""
    prefix = [("post", 0, INFO), ("post", 0, INFO), ("post", 0, INFO),
              ("deadline", 0, 2), ("land", 0, None), ("land", 0, None),
              ("consume", 1, None), ("land", 1, None)]
    res = search(Bounds(depth=6, posts=3, drops=0, dups=0, rearms=0),
                 prefix)
    assert res.violation == "r0's info op 2 consumed twice (seq 4)"
    assert [m[0] for m in res.steps[len(prefix):]] == [
        "room", "room", "land", "land", "consume"]
