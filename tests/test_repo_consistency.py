"""Repository self-consistency: experiments ↔ benchmarks ↔ docs.

Keeps the deliverables honest: every registered experiment is collected
by the benchmark module, is indexed in DESIGN.md, and has a measured table in
EXPERIMENTS.md — and no build artifact is ever committed.
"""

import ast
import importlib.util
import os
import re
import subprocess

import pytest

from repro.bench.experiments import ALL


def test_every_experiment_is_collected_by_the_benchmark_module():
    """``benchmarks/bench_experiments.py`` is the only benchmark module and
    is parametrised over exactly the registry, ids = the experiment keys
    (so ``-k r20`` selects one)."""
    modules = [f for f in os.listdir("benchmarks") if f.endswith(".py")]
    assert modules == ["bench_experiments.py"]
    spec = importlib.util.spec_from_file_location(
        "bench_experiments", "benchmarks/bench_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (mark,) = [m for m in module.test_experiment.pytestmark
               if m.name == "parametrize"]
    assert mark.args[0] == "key" and list(mark.args[1]) == list(ALL)


def test_design_indexes_every_experiment():
    text = open("DESIGN.md").read()
    for key in ALL:
        assert re.search(rf"\|\s*{key.upper()}\s*\|", text), \
            f"DESIGN.md experiment index misses {key.upper()}"


def test_experiments_md_has_every_table():
    text = open("EXPERIMENTS.md").read()
    for key in ALL:
        assert f"### {key.upper()} —" in text, \
            f"EXPERIMENTS.md misses a measured table for {key.upper()}"


def test_experiment_ids_match_registry_keys():
    for key, module in ALL.items():
        result = getattr(module, "run")
        assert callable(result)
        # exp_id inside the module's source matches the key
        src = open(module.__file__).read()
        assert f'exp_id="{key.upper()}"' in src, module.__name__


def test_design_notes_paper_text_mismatch():
    """The provenance caveat must stay at the top of both documents."""
    design = open("DESIGN.md").read()
    assert "PAPER-TEXT MISMATCH NOTICE" in design.split("##")[0]
    experiments = open("EXPERIMENTS.md").read()
    assert "Provenance caveat" in experiments[:1000]


def test_examples_listed_in_readme_exist():
    readme = open("README.md").read()
    for match in re.findall(r"`(examples/[\w_]+\.py)`", readme):
        assert os.path.exists(match), match


def test_no_tracked_bytecode_artifacts():
    """Byte-code must never be committed: ``__pycache__`` directories,
    ``*.pyc``/``*.pyo`` files and pytest caches are build products (80 of
    them slipped into the tree once), and the root .gitignore must keep
    covering them."""
    try:
        out = subprocess.run(["git", "ls-files"], capture_output=True,
                             text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        pytest.skip("not a git checkout")
    bad = [line for line in out.splitlines()
           if "__pycache__" in line or ".pytest_cache" in line
           or line.endswith((".pyc", ".pyo"))]
    assert not bad, f"tracked byte-code artifacts: {bad[:10]}"
    ignore = open(".gitignore").read()
    for pattern in ("__pycache__/", "*.pyc", ".pytest_cache/"):
        assert pattern in ignore, f".gitignore misses {pattern}"


def test_all_examples_are_documented():
    readme = open("README.md").read()
    for fname in os.listdir("examples"):
        if fname.endswith(".py"):
            assert f"examples/{fname}" in readme, \
                f"README does not mention examples/{fname}"


def _py_files(*roots):
    for root in roots:
        for dirpath, _dirs, files in os.walk(root):
            for fname in files:
                if fname.endswith(".py"):
                    yield os.path.join(dirpath, fname)


def test_transports_are_not_duck_typed():
    """Seam 9 is a class (``runtime.transport.Transport``), so nothing
    above it may probe a transport with ``getattr``/``hasattr``."""
    seam_names = {"transport", "inner", "tp"}
    bad = []
    for path in _py_files("src/repro/runtime", "src/repro/apps",
                          "src/repro/kv"):
        for node in ast.walk(ast.parse(open(path).read(), path)):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and node.args):
                continue
            target = node.args[0]
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name in seam_names:
                bad.append(f"{path}:{node.lineno}")
    assert not bad, f"getattr/hasattr on a transport: {bad}"


def test_pwc_completion_has_one_mechanism():
    """PWC ops return their op handle; the id-keyed side table and its
    two accessors must not come back."""
    pattern = re.compile(r"_op_results|op_status|free_op")
    bad = [path for path in _py_files("src")
           if pattern.search(open(path).read())]
    assert not bad, bad


def test_blocking_waits_have_one_pacing_mechanism():
    """Waits and the KV serve loop park on a bell
    (``sim.resources.poll_until``); the idle back-off knobs, the fused
    poll charge and the "could a pass find anything" predicates that
    served the last polling loop must not come back."""
    pattern = re.compile(r"wait_backoff|idle_backoff|dead_poll_ns|charge_poll"
                         r"|poll_pending|progress_pending|pre_slept")
    bad = [path for path in _py_files("src")
           if pattern.search(open(path).read())]
    assert not bad, bad
    # one path per job: the serve loop keeps no timer of its own
    serve = open(os.path.join("src", "repro", "kv", "store.py")).read()
    serve = serve[serve.index("def _serve("):serve.index("def _next_due(")]
    assert "timeout(" not in serve and "backoff" not in serve


def test_a_batch_waits_only_while_its_rank_is_busy():
    """The coalescer ships what is open when its rank goes idle, so a
    parked rank owes no batch: ``next_deadline`` is the wire's and nothing
    else, and the dead NIC knob found beside it stays gone."""
    coalesce = open(os.path.join("src", "repro", "runtime",
                                 "coalesce.py")).read()
    due = coalesce[coalesce.index("def next_deadline("):]
    due = due[:due.index("\n    # ---")]
    assert "max_delay_ns" not in due and "_open" not in due
    assert coalesce.count("def flush_stale(") == 1
    bad = [path for path in _py_files("src")
           if "inject_depth" in open(path).read()]
    assert not bad, bad


def test_a_reply_has_one_way_to_its_request():
    """A KV answer is handed to the RPC registered for it and wakes that
    waiter: the shared reply bell, the mailbox sweep and its option must
    not come back, and the client's wait keeps no timer of its own (its
    deadline is the alarm of the bell it parks on)."""
    pattern = re.compile(r"hub_bell|hub_ttl_ns|_gc_hub|_hub_gc_due")
    bad = [path for path in _py_files("src")
           if pattern.search(open(path).read())]
    assert not bad, bad
    client = open(os.path.join("src", "repro", "kv", "client.py")).read()
    await_ = client[client.index("def _await("):]
    await_ = await_[:await_.index("\n    # ---")]
    assert "timeout(" not in await_ and "poll_ns" not in await_


def test_links_have_one_path_per_job():
    """Every link is a schedule: the virtual holds, the burst drain's
    wakeup, the per-chunk propagate process, the link server process, the
    two-timer service machine and the per-message ARQ process must not
    come back, and no link is a process.  A link has one admission,
    ``_book``: immediate admission (``try_put``) is a booking dated
    ``now``, a reservation one dated ahead, a withdrawn admission is
    booked again (``_readmit``), and nothing else puts a chunk on the
    schedule; neither entry point asks whether the link has a drop stream
    or chaos armed."""
    pattern = re.compile(r"add_holds|_hold_wakeup|_propagate"
                         r"|\b_server\b|_start_server|_retry_monitor")
    bad = [path for path in _py_files("src")
           if pattern.search(open(path).read())]
    assert not bad, bad
    link_src = open("src/repro/fabric/link.py").read()
    tree = ast.parse(link_src)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "Store" not in imported
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "process"]
    assert "any_of" not in open("src/repro/fabric/nic.py").read()
    served = re.compile(r"\b(_serving|_queue|_attempt|_sent|_begin|_start"
                        r"|_exit|_next)\b")
    assert not served.findall(link_src)
    methods = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    for fn in ("try_put", "reserve"):
        assert not [node.attr for node in ast.walk(methods[fn])
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("rng", "chaos")], fn

    def calls(fn, attr):
        return [node for node in ast.walk(methods[fn])
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr]

    assert {fn for fn in methods if calls(fn, "_book")} == {
        "try_put", "reserve", "_readmit"}
    (now,) = [call.args[1].id for call in calls("try_put", "_book")]
    assert now == "now"
    assert [fn for fn in methods
            if any(isinstance(call.func.value, ast.Attribute)
                   and call.func.value.attr == "_starts"
                   for call in calls(fn, "append"))] == ["_book"]

    from repro.fabric.link import Link
    from repro.fabric.params import LinkParams
    from repro.sim.core import Environment
    from repro.sim.rng import RngRegistry
    env = Environment()
    params = LinkParams(bandwidth_gbps=8.0, latency_ns=500, mtu=4096)
    Link(env, params, "l")
    Link(env, params, "served", rng=RngRegistry(1).stream("link.served"))
    # with an rng or without: nothing spawned, nothing armed
    assert env.peek() is None


def test_drop_rate_changes_go_through_the_fabric():
    """Fabric parameters are frozen: a harness that heals or degrades the
    fabric mid-run calls ``Topology.set_drop_rate``, which books again what
    the change affects, instead of mutating them in place."""
    pattern = re.compile(r"object\.__setattr__\(")
    bad = [path for path in _py_files("src", "tests")
           if path != __file__ and pattern.search(open(path).read())]
    assert not bad, bad


def test_kv_scenarios_are_built_in_one_place():
    """``repro.kv.scenario`` is the one builder of a replicated KV cluster
    and ``repro.chaos.invariants`` the one reader of ``applied_uids``:
    experiments, tests and CI scripts are specs over them, and the two
    modules they replaced stay gone."""
    specs = [p for p in _py_files("src/repro/bench", "tests",
                                  ".github/scripts")
             if os.path.basename(p) != "test_repo_consistency.py"]
    text = {path: open(path).read() for path in specs}
    unit = os.path.join("tests", "test_kv.py")   # single-node / pure-logic
    assert not [p for p, src in text.items()
                if re.search(r"def _?leaders_ready\b", src)]
    assert [p for p, src in text.items() if "build_kv(" in src] == [unit]
    assert {p for p, src in text.items() if "applied_uids" in src} == \
        {unit, os.path.join("tests", "test_kv_scenario.py")}
    for module in ("repro.kv.workload", "repro.runtime.gas"):
        assert importlib.util.find_spec(module) is None, module
