"""The measuring harness, ``tests/measure.py``: each of its tools is a tool,
not a model (it moves no simulated instant), its counts are a pure
function of the seed, and ``--src`` compares trees through one child
interpreter per tree."""

import os
import subprocess
import sys
from pathlib import Path

from repro.cluster import build_cluster
from repro.kv.client import KVClient
import json

from tests.measure import (ROOT, OriginEnvironment, Recorder, calls,
                           functions, hops, install, main, unreached)
from tests.stepping import SteppedEnvironment
from tests.test_kv import _run_kv

TOOL = str(ROOT / "tests" / "measure.py")


def _tool(*argv, **env):
    """``tests/measure.py argv`` in a child interpreter (started, not
    awaited), on this tree's ``src``."""
    return subprocess.Popen(
        [sys.executable, TOOL, *argv], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env))


def test_two_runs_of_a_block_make_the_same_calls():
    first = calls("kv_chaos", 7001, 0.05)
    assert first[2] > 0 and sum(first[0].values()) > 0
    assert calls("kv_chaos", 7001, 0.05) == first


def test_calls_and_events_do_not_depend_on_the_hash_seed():
    """The two deterministic counts, calls and events per op, are equal
    to the bit across ``PYTHONHASHSEED``s, each in its own interpreter."""
    runs = {(what, seed): _tool(what, "kv_chaos", "--scale", "0.05",
                                "--json", PYTHONHASHSEED=seed)
            for what in ("calls", "events") for seed in ("0", "1")}
    out = {key: run.communicate(timeout=300) for key, run in runs.items()}
    for key, run in runs.items():
        assert run.returncode == 0, out[key][1]
    for what in ("calls", "events"):
        assert out[what, "0"][0] == out[what, "1"][0]
        assert out[what, "0"][0].startswith("{")


def test_setup_calls_are_the_constructors_not_the_timed_regions():
    """``calls --setup`` profiles what ``setup_s`` times: the constructor,
    per block, and the same count twice in every ``repro`` layer (the
    first constructor in a process also pays library warm-up, "other")."""
    by_layer, _by_function, ops = calls("am_fanout", 7001, 0.05, setup=True)
    assert ops == 1
    again = calls("am_fanout", 7001, 0.05, setup=True)[0]
    del by_layer["other"], again["other"]
    assert again == by_layer
    timed = calls("am_fanout", 7001, 0.05)[0]
    assert by_layer["photon"] and by_layer != timed
    # no simulated time passes in set-up: the kernel only queues the
    # processes the constructor starts, it runs none of them
    assert by_layer["sim"] < timed["sim"]


def test_scale_prints_the_bootstrap_cost(capsys):
    assert main(["scale", "--ranks", "8", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert set(row) == {f"8 ranks: {name}" for name in (
        "setup_s", "gc_s", "gen2_gcs", "objects/pairing", "peak_rss_mib",
        "calls/pairing")}
    assert row["8 ranks: calls/pairing"] > 0
    assert 0 <= row["8 ranks: gc_s"] < row["8 ranks: setup_s"]


def test_timeline_of_one_tree_against_itself_moves_no_hop(capsys):
    src = str(ROOT / "src")
    assert main(["timeline", "kv_write", "--ops", "2", "--scale", "0.05",
                 "--src", src, "--src", src]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["us since each op began, by tree:",
                         f"  [0] {src}", f"  [1] {src}"]
    rows = lines[4:]
    assert sum(row.split()[1] == "1" for row in rows) > 3  # op 1, op 2
    assert any("_rpc returns status 0" in row for row in rows)
    assert all(row.endswith(" +0.000") for row in rows), rows


def test_reach_lists_what_one_experiment_leaves_uncalled():
    missed, every = unreached(["r11"])
    assert len(every) == len(functions(ROOT / "src")) > 900
    names = {(Path(path).name, name) for path, _line, name in missed}
    assert ("collectives.py", "allgather") in names
    assert ("collectives.py", "allreduce") not in names
    assert ("collectives.py", "barrier") not in names
    assert ("r11_collectives.py", "run") not in names
    assert ("raft.py", "propose") in names
    assert all(n >= 1 for n, _qual in missed.values())


def test_check_over_one_experiment(tmp_path):
    """In a child interpreter, since this one imported ``repro`` long ago:
    the profiler starts before the first ``repro`` import, so a function
    that runs at import time (``photon/backends/base._make_backends``)
    counts as reached.  ``--check`` reports an unreached function the
    allowlist lacks, a listed one that was reached and a listed one that
    no longer exists, and exits 1."""
    allow = tmp_path / "allow.txt"
    allow.write_text(
        "# file::qualified name: reason\n\n"
        "repro/kv/raft.py::RaftNode.propose: R11 runs no Raft\n"
        "repro/photon/collectives.py::barrier: R11 calls it\n"
        "repro/nowhere.py::gone: deleted long ago\n")
    run = _tool("reach", "r11", "--check", "--allow", str(allow))
    stdout, stderr = run.communicate(timeout=300)
    out = stdout.splitlines()
    assert run.returncode == 1, stderr
    assert not any("_make_backends" in line for line in out)
    problems = [line for line in out
                if line.startswith(("unreached, not", "stale entry"))]
    assert ("unreached, not allowlisted: "
            "repro/photon/collectives.py::allgather") in problems
    assert not any("RaftNode.propose" in line for line in problems)
    assert ("stale entry (reached): repro/photon/collectives.py::barrier"
            in problems)
    assert "stale entry (gone): repro/nowhere.py::gone" in problems
    assert out[-1].startswith("check FAIL") and \
        out[-1].endswith(f" {len(problems)} problems")


def test_origin_environment_fires_identically_on_r1(monkeypatch):
    """The attributing kernel is a tool, not a model: on the r1 smoke it
    must fire the very same events at the very same instants as the plain
    kernel, attribute every one of them, and reproduce the golden table."""
    from repro.bench.experiments import r1_latency
    from tests import test_determinism_golden as golden

    logs = {}
    for kernel in (SteppedEnvironment, OriginEnvironment):
        envs = []

        def make(*args, kernel=kernel, envs=envs):
            envs.append(kernel(*args))
            return envs[-1]

        monkeypatch.setattr("repro.cluster.Environment", make)
        OriginEnvironment.fired.clear()
        res = r1_latency.run(quick=True)
        assert golden._result_fingerprint(res) == golden.GOLDEN["r1_table"]
        logs[kernel] = [env.log for env in envs]
    assert logs[SteppedEnvironment] == logs[OriginEnvironment]
    fired = sum(OriginEnvironment.fired.values())
    assert fired == sum(len(log) for log in logs[OriginEnvironment]) > 0
    # every event was charged to a line of the model, none to the kernel
    assert all(not origin.startswith("sim/")
               for origin in OriginEnvironment.fired), OriginEnvironment.fired


def test_origin_environment_charges_a_condition_to_who_asked(monkeypatch):
    """A ``Condition`` is fired by the kernel, from a callback of the event
    that completed it; the tool charges it to the ``all_of`` call that
    built it — here a line of this test — not to the first driver frame
    (the ``env.run`` line after it).  No ``any_of`` is left under
    ``src/repro`` to test with: the NIC's retry monitor held the last."""
    monkeypatch.setattr("repro.cluster.Environment", OriginEnvironment)
    OriginEnvironment.fired.clear()
    env = build_cluster(2).env

    def program(rank):
        yield env.timeout(10 * (rank + 1))

    procs = [env.process(program(r)) for r in range(2)]
    asked, done = sys._getframe().f_lineno, env.all_of(procs)
    env.run(until=done)
    site = ("(driver) test_measure.py:{} "
            "test_origin_environment_charges_a_condition_to_who_asked")
    assert OriginEnvironment.fired[site.format(asked)] == 1
    assert site.format(asked + 1) not in OriginEnvironment.fired
    assert not any(o.startswith("sim/") for o in OriginEnvironment.fired)


def test_timeline_is_a_tool_not_a_model(monkeypatch):
    """The timeline's wrappers around the KV classes move no instant, and
    lay a put out hop by hop in causal order: proposed, shipped, appended
    and acked on both followers before either applies anything,
    committed, applied, answered, filed, returned."""
    def body(env, cl, nodes, out):
        c = KVClient(nodes[1], client_id=5)
        for i in range(3):
            yield from c.put(b"k", b"v%d" % i)
        out["now"] = env.now

    _cl, _nodes, plain = _run_kv(body)
    rec = Recorder()
    install(rec, monkeypatch.setattr)
    rec.want = 100
    _cl, _nodes, traced = _run_kv(body)
    assert traced["now"] == plain["now"]
    assert [r[4] for r in rec.rpcs] == [1, 2, 3]
    lines = hops(rec, rec.rpcs[2])
    assert [t for t, _r, _text in lines] == sorted(t for t, _r, _x in lines)
    seen = [next(i for i, (_t, _r, text) in enumerate(lines) if word in text)
            for word in ("_rpc starts", "proposed as g0", "AppendEntries [",
                         "appended", "ack shipped", "commits index",
                         "applied 1 entries", "answer (status 0)", "filed",
                         "_rpc returns status 0")]
    assert seen == sorted(seen)
    for f in {r for _t, r, text in lines if "ack shipped" in text}:
        mine = [text for _t, r, text in lines if r == f]
        assert mine.index(next(x for x in mine if "ack shipped" in x)) < \
            mine.index(next(x for x in mine if "(earlier)" in x))
