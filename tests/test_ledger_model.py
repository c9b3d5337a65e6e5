"""The exhaustive ledger-channel check (``tests/ledger_model.py``) over
tier-1 bounds, the replay verdicts and resend budget it drives, and the
defect it found: an attempt that waited for ring room claimed a slot
after a later attempt of the same op had claimed one."""

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
    assert what == ("entry", 0, 2, 0)  # the second attempt's, not resent
    _drive(world, [("land", 0, None), ("post", 0, CMP), ("quiet", 0, None),
                   ("consume", 1, None), ("land", 1, None)])
    # the second op's ack was lost: only its deadline can notice
    assert [op[4] for op in world.ops[0]] == ["acked", "lost"]
    assert world.delivered == {(0, 0), (0, 1)}
    _drive(world, [("deadline", 0, 1)])
    assert world.ops[0][1][4] == "acked" and not world.net[0]


def test_an_entry_write_past_its_resend_budget_fails_the_attempt():
    """An error CQE resends the entry's WR as it stands while its chain has
    budget; past it the attempt fails through the op's ``on_error`` into
    backoff, and the retry rewrites the slot the op already claimed."""
    world = World.start(Bounds(drops=2, resends=1))
    _drive(world, [("post", 0, CMP), ("error", 0, None)])
    (addr, entry, _placed, what), = world.net[0]
    assert (addr, entry) == world.ops[0][0][2][2:]
    assert what == ("entry", 0, 1, 1)  # the first attempt's, resent once
    _drive(world, [("error", 0, None)])
    assert world.ops[0][0][4] == "backoff" and not world.net[0]
    assert ("deadline", 0, 0) not in world.moves()
    _drive(world, [("retry", 0, 0)])
    (addr2, entry2, _placed, what), = world.net[0]
    assert (addr2, entry2, what) == (addr, entry, ("entry", 0, 2, 0))
    _drive(world, [("land", 0, None), ("consume", 1, None)])
    assert world.ops[0][0][4] == "acked" and world.delivered == {(0, 0)}


def test_a_stale_attempt_claims_a_second_slot():
    """ROADMAP 19c, fixed: r0's third info entry waits for room in a full
    2-slot ring, its deadline starts a second attempt that waits too, and
    the credit frees both slots.  Each attempt used to claim one, and an
    info or FIN entry carries no dedup id, so the peer took the same
    rendezvous entry twice.  The stale attempt now claims nothing."""
    prefix = [("post", 0, INFO), ("post", 0, INFO), ("post", 0, INFO),
              ("deadline", 0, 2), ("land", 0, None), ("land", 0, None),
              ("consume", 1, None), ("land", 1, None)]
    res = search(Bounds(depth=6, posts=3, drops=0, dups=0, rearms=0),
                 prefix)
    assert res.violation is None
