"""The call count is a pure function of the seed: ``tests/call_counts.py``
on the same small block twice, in one process, gives the same counts to
the call — layer by layer and function by function."""

from tests.call_counts import profile_block


def test_two_runs_of_a_block_make_the_same_calls():
    first = profile_block("kv_chaos", 7001, 0.05)
    assert first[2] > 0 and sum(first[0].values()) > 0
    assert profile_block("kv_chaos", 7001, 0.05) == first
