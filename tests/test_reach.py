"""``tests/reach.py`` over one experiment (the whole run is a CLI, minutes
long): R11 reaches the barrier and allreduce schedules but not the
allgather it never calls, and every function under ``src/repro`` is
either reached or listed."""

from pathlib import Path

from tests.reach import ROOT, functions, unreached


def test_reach_lists_what_one_experiment_leaves_uncalled():
    missed, total = unreached(["r11"])
    assert total == len(functions(ROOT / "src")) > 1000
    names = {(Path(path).name, name) for path, _line, name in missed}
    assert ("collectives.py", "allgather") in names
    assert ("collectives.py", "allreduce") not in names
    assert ("collectives.py", "barrier") not in names
    assert ("r11_collectives.py", "run") not in names
    assert ("raft.py", "propose") in names
    assert all(n >= 1 for n in missed.values())
