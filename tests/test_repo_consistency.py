"""Repository self-consistency: experiments ↔ EXPERIMENTS.md ↔ docs.

Keeps the deliverables honest: every registered experiment is indexed in
DESIGN.md and has its generated table in EXPERIMENTS.md, the committed
tables are what the code writes, and no build artifact is ever committed.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess

import pytest

from repro.bench.experiments import ALL
from repro.bench.result import _MARKER, splice_markdown


def test_design_indexes_every_experiment():
    text = open("DESIGN.md").read()
    for key in ALL:
        assert re.search(rf"\|\s*{key.upper()}\s*\|", text), \
            f"DESIGN.md experiment index misses {key.upper()}"


def _exercised_modules(cell):
    """The dotted names in one "Modules exercised" cell: parentheticals
    dropped, ``kv.{raft,shard}`` expanded."""
    names = []
    cell = re.sub(r"\s*\([^)]*\)", "", cell)
    for item in re.split(r",\s*(?![^{]*\})", cell):
        head, _, rest = item.strip().partition("{")
        names += ([head + part for part in rest.rstrip("}").split(",")]
                  if rest else [head])
    return names


def test_design_index_names_only_modules_that_exist():
    """Every entry of DESIGN §4's "Modules exercised" column is a module
    or package under ``src/repro``."""
    rows = [line for line in open("DESIGN.md").read().splitlines()
            if re.match(r"\| R\d+ \|", line)]
    assert len(rows) == len(ALL)
    missing = []
    for row in rows:
        for name in _exercised_modules(row.strip("|").split("|")[-1]):
            path = os.path.join("src", "repro", *name.split("."))
            if not (os.path.isfile(path + ".py") or os.path.isdir(path)):
                missing.append((row.split("|")[1].strip(), name))
    assert not missing, missing


def _repro_classes():
    """``{name: [class, ...]}`` over every class defined under
    ``src/repro``."""
    import pkgutil

    import repro

    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name:
                classes.setdefault(name, []).append(cls)
    return classes


def _has_attr(cls, attr):
    """A class, slot, dataclass field or ``self.attr =`` of ``cls`` or a
    base under ``src/repro``."""
    if hasattr(cls, attr):
        return True
    for base in cls.__mro__:
        if not base.__module__.startswith("repro"):
            continue
        if attr in getattr(base, "__slots__", ()):
            return True
        if re.search(rf"\bself\.{attr}\s*[:=]", inspect.getsource(base)):
            return True
    return False


def test_api_md_names_only_attributes_that_exist():
    """Every backticked ``Class.attr`` in docs/API.md names a class under
    ``src/repro`` and an attribute it has (a method, property, field or
    instance attribute), so a deleted accessor cannot stay documented."""
    text = open(os.path.join("docs", "API.md")).read()
    classes = _repro_classes()
    bad = []
    for name, attr in re.findall(r"`([A-Z]\w*)\.([A-Za-z_]\w*)", text):
        if attr in ("md", "py", "json"):
            continue  # a file name, not a class
        if not any(_has_attr(cls, attr) for cls in classes.get(name, ())):
            bad.append(f"{name}.{attr}")
    assert not bad, bad


def _marked_blocks(text):
    """``[(exp_id, block)]`` of the marked blocks, in file order."""
    marks = list(_MARKER.finditer(text))
    return [(a.group(2), text[a.end():b.start()])
            for a, b in zip(marks[::2], marks[1::2])]


def test_experiments_md_has_one_block_per_experiment():
    """One marked block per registered experiment, in registry order, each
    headed by its own id."""
    text = open("EXPERIMENTS.md", encoding="utf-8").read()
    splice_markdown(text, {})  # markers well formed
    blocks = _marked_blocks(text)
    assert [exp_id for exp_id, _ in blocks] == [k.upper() for k in ALL]
    for exp_id, block in blocks:
        assert block.startswith(f"### {exp_id} — "), exp_id


def test_experiments_md_summary_counts_the_checks():
    """The summary's check and experiment counts are those of the blocks,
    and no block holds a failed check."""
    text = open("EXPERIMENTS.md", encoding="utf-8").read()
    inside = "".join(block for _, block in _marked_blocks(text))
    (checks, exps), = re.findall(
        r"All (\d+) shape checks pass across (\d+) experiments", text)
    assert int(checks) == len(re.findall(r"(?m)^- ✅ ", inside))
    assert int(exps) == len(ALL)
    assert "❌" not in text


#: the experiments whose full run takes well under a second
CHEAP_FULL = ("r5", "r6", "r9", "r12", "r14", "r15", "r16")


def test_cheap_tables_are_what_the_code_writes():
    """The full runs of the cheap experiments, spliced into the committed
    EXPERIMENTS.md, change nothing (CI's ``bench`` leg does all 21)."""
    text = open("EXPERIMENTS.md", encoding="utf-8").read()
    blocks = {}
    for key in CHEAP_FULL:
        result = ALL[key].run(quick=False)
        blocks[result.exp_id] = result.to_markdown()
    assert splice_markdown(text, blocks) == text


def test_experiment_notes_are_strings():
    """``notes=`` is rendered as one italic line: a list or tuple display
    there prints its brackets into EXPERIMENTS.md."""
    bad = []
    for path in _py_files("src/repro/bench/experiments"):
        for node in ast.walk(ast.parse(open(path).read(), path)):
            if (isinstance(node, ast.keyword) and node.arg == "notes"
                    and isinstance(node.value, (ast.List, ast.Tuple,
                                                ast.ListComp))):
                bad.append(f"{path}:{node.value.lineno}")
    assert not bad, bad


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


def test_the_failure_detector_is_found_on_the_rank():
    """Every layer finds its rank's detector on ``RankNode`` and subscribes
    there when it is built; the per-layer attach methods and the
    monitor's own subscriber lists must not come back."""
    pattern = re.compile(r"attach_health|monitor\.on_(dead|join)\b")
    paths = [p for p in _py_files("src", "tests")
             if os.path.basename(p) != "test_repo_consistency.py"]
    paths += [os.path.join("docs", f) for f in os.listdir("docs")]
    paths.append("DESIGN.md")
    bad = [path for path in paths if pattern.search(open(path).read())]
    assert not bad, bad


def test_a_crash_belongs_to_the_rank():
    """A rank dies and comes back through ``RankNode.crash()`` /
    ``restart()``, which its layers subscribe to when they are built:
    outside ``cluster.py`` nothing calls a layer's crash or restart step
    or powers a NIC off or on (the NIC's own tests do), and only the
    benchmark hands the controller per-layer lists (ROADMAP 6d)."""
    steps = re.compile(r"\.(crash_local|rejoin|on_crash|reseed|halt|resume)\(")
    power = re.compile(r"\.power_o(ff|n)\(")
    nic_tests = ("test_fabric_", "test_property_nic.py", "nic_oracle.py")
    #: deliberately partial crashes, each with its reason beside it
    partial = {os.path.join("tests", "test_kv.py"): 1}
    found = {}
    for path in _py_files("src", "tests"):
        name = os.path.basename(path)
        if path == os.path.join("src", "repro", "cluster.py") or \
                name == "test_repo_consistency.py":
            continue
        text = open(path).read()
        hits = len(steps.findall(text))
        if not name.startswith(nic_tests) and \
                path != os.path.join("src", "repro", "fabric", "nic.py"):
            hits += len(power.findall(text))
        if hits:
            found[path] = hits
    assert found == partial

    def fans_out(path):
        return any(isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "ChaosController"
                   and {k.arg for k in node.keywords} & {"photon",
                                                         "monitors", "kv"}
                   for node in ast.walk(ast.parse(open(path).read())))
    assert [path for path in _py_files("src", "tests", "examples", "perf")
            if fans_out(path)] == [os.path.join("perf", "workloads", "kv.py")]


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
    from tests.stepping import peek
    env = Environment()
    params = LinkParams(bandwidth_gbps=8.0, latency_ns=500, mtu=4096)
    Link(env, params, "l")
    Link(env, params, "served", rng=RngRegistry(1).stream("link.served"))
    # with an rng or without: nothing spawned, nothing armed
    assert peek(env) is None


def test_nic_stages_are_arithmetic_where_nothing_happens():
    """A post's doorbell is a hand-off dated at the post when it rings a
    parked engine, and the delivery stage is a schedule: the per-post
    doorbell callback, the delivery loop and its queue must not come back,
    and a NIC runs two processes, its send engine and its responder."""
    pattern = re.compile(r"_delivery_loop|_rx_q\b|_doorbell_fire")
    bad = [path for path in _py_files("src")
           if pattern.search(open(path).read())]
    assert not bad, bad

    from repro.fabric import IB_FDR, Memory, Nic, Star
    from repro.sim import Counters
    from repro.sim.core import Environment, Process
    env = Environment()
    topo = Star(env, 2, IB_FDR.link, Counters())
    started = []
    env.process = lambda gen, name=None: started.append(name) or \
        Process(env, gen, name)
    Nic(env, 0, IB_FDR, Memory(1 << 12, IB_FDR.host, rank=0), topo)
    assert started == ["nic0:engine", "nic0:responder"]


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


#: every option a caller can set — the fields of the config dataclasses and
#: the defaulted keyword parameters of the builders and layer constructors
#: (``Class.field`` / ``callable(param=)``) — with why it is not a module
#: constant: two non-test callers or presets set different values
#: ("values"), ``perf/`` passes it ("perf"), it wires the program together
#: ("wiring"), or a named property / model-check test sweeps it ("swept").
#: Adding or removing one fails ``test_option_inventory`` until this pin
#: moves with it, so a change's options removed and added read straight off
#: its diff, and a new option names its second caller here.
OPTIONS = {
    "AmConfig.credits_per_dest": "perf: am_fanout sets its flood window",
    "CoalescingTransport(flush_bytes=)": "values: 4 KiB default, R15 64 KiB",
    "CoalescingTransport(flush_count=)": "values: R15 sweeps 4..64, obs "
                                         "report 4",
    "FabricParams.host": "values: the five presets differ",
    "FabricParams.link": "values: the five presets differ",
    "FabricParams.name": "values: one per preset",
    "FabricParams.nic": "values: the five presets differ",
    "FabricParams.topology": "values: star presets, gemini torus2d",
    "HealthConfig.period_ns": "perf: the kv workloads pass it",
    "HealthConfig.phi_dead": "perf: the kv workloads pass it",
    "HostParams.memcpy_gbps": "values: 60 / 70 / 80 across presets",
    "HostParams.reg_base_ns": "values: 0 / 2000 / 2500 across presets",
    "HostParams.reg_per_page_ns": "values: 0 / 180 / 220 across presets",
    "KVClient(max_attempts=)": "perf: kv_chaos gives its clients 200",
    "KVClient(poll_ns=)": "perf: a per-client period drawn from the seed",
    "KVClient(read_mode=)": "values: R20's rpc and onesided arms",
    "KVClient(timeout_ns=)": "perf: the kv workloads pass it",
    "KVConfig.n_groups": "values: R20 / R21 run 1, 2 and 4 groups",
    "KVConfig.raft": "values: R21 compacts early (via Scenario); perf",
    "KVConfig.rf": "perf: the kv workloads pass it",
    "Link(counters=)": "wiring: the fabric's counter scope",
    "Link(extra_latency_ns=)": "values: star switch latency, torus 0",
    "Link(queue_depth=)": "swept: test_property_served",
    "Link(rng=)": "wiring: the link's drop stream",
    "LinkParams.bandwidth_gbps": "values: the five presets differ",
    "LinkParams.drop_rate": "values: R17 / R23 / obs report loss rates",
    "LinkParams.header_bytes": "values: 18 / 30 / 58 / 78 across presets",
    "LinkParams.latency_ns": "values: the five presets differ",
    "LinkParams.loss_mode": "values: reliable default, lossy in R17 / R23",
    "LinkParams.mtu": "values: 1024 / 1500 / 2048 / 4096 across presets",
    "MPIConfig.eager_threshold": "values: R12 sweeps it",
    "MetricsRegistry(spans_enabled=)": "wiring: build_cluster(spans=)",
    "MetricsRegistry(trace_enabled=)": "wiring: build_cluster(trace=)",
    "MpiTransport(max_parcel=)": "wiring: sizes the staging buffers",
    "NicParams.ack_overhead_ns": "values: the presets differ",
    "NicParams.atomic_ns": "values: the presets differ",
    "NicParams.bulk_startup_ns": "values: gemini's BTE startup, else 0",
    "NicParams.bulk_threshold": "values: gemini 4096, else None",
    "NicParams.cqe_poll_ns": "values: 80 / 600 across presets",
    "NicParams.delivery_ns": "values: the presets differ",
    "NicParams.dma_gbps": "values: the presets differ",
    "NicParams.doorbell_ns": "values: the presets differ",
    "NicParams.max_inline": "values: 0 / 64 / 128 across presets",
    "NicParams.post_overhead_ns": "values: the presets differ",
    "NicParams.transport_retries": "values: 3 default, 0 in R17 / R23",
    "NicParams.wqe_process_ns": "values: the presets differ",
    "PhotonConfig.backoff_jitter_ns": "values: R19 widens it to 80 us",
    "PhotonConfig.completion_entries": "values: R4 sweeps the ledger depth",
    "PhotonConfig.eager_limit": "values: R12 sweeps it; backends use 4096",
    "PhotonConfig.eager_slots": "values: R4 sweeps the ledger depth",
    "PhotonConfig.max_op_retries": "values: 3 default, 5 in R17 / R19",
    "PhotonConfig.op_timeout_ns": "values: R2 scales it, R19 shortens it",
    "PhotonConfig.progress_poll_ns": "values: the sw backend polls at 400",
    "PhotonConfig.rcache_capacity": "values: R6 sweeps it",
    "PhotonConfig.rcache_enabled": "values: R6's cache-off arm",
    "PhotonConfig.use_imm": "values: the backends and R19 turn it off",
    "PhotonConfig.use_inline": "values: the sw backend turns it off",
    "PhotonTransport(max_parcel=)": "wiring: sizes the staging buffers",
    "RaftConfig.compact_margin": "perf: kv_chaos compacts early; R21",
    "RaftConfig.compact_threshold": "perf: kv_chaos compacts early; R21",
    "RaftConfig.election_jitter_ns": "swept: tests/raft_model.py",
    "RaftConfig.election_stagger_ns": "swept: tests/raft_model.py",
    "RaftConfig.election_timeout_ns": "swept: tests/raft_model.py",
    "RaftConfig.fast_election_ns": "swept: tests/raft_model.py",
    "RaftConfig.heartbeat_ns": "swept: tests/raft_model.py",
    "RaftConfig.lease_ns": "swept: tests/raft_model.py",
    "RaftConfig.max_entries_per_ae": "swept: tests/raft_model.py",
    "RegistrationCache(capacity=)": "values: PhotonConfig.rcache_capacity",
    "RegistrationCache(enabled=)": "values: PhotonConfig.rcache_enabled",
    "Runtime(counters=)": "wiring: the rank's counter scope",
    "Scenario(raft=)": "values: R21 compacts early",
    "Scenario(spans=)": "wiring: build_cluster(spans=)",
    "build_cluster(mem_size=)": "wiring: memory size",
    "build_cluster(params=)": "values: the five presets",
    "build_cluster(seed=)": "wiring: seed",
    "build_cluster(spans=)": "wiring: the span registry switch",
    "build_cluster(topology=)": "values: R14 runs star and torus2d",
    "build_cluster(trace=)": "wiring: the trace-record switch",
    "build_health(config=)": "perf: the kv workloads pass one",
    "build_health(start=)": "wiring: the monitors' start",
    "build_kv(config=)": "perf: the kv workloads pass one",
    "build_kv(monitors=)": "perf: the kv workloads pass it; kept for "
                           "perf/ and checked against the ranks' own",
    "build_kv(registry=)": "wiring: registries",
    "build_kv(start=)": "wiring: the server loops' start",
    "build_runtime(am=)": "values: plain parcels or active messages",
    "build_runtime(am_config=)": "perf: am_fanout passes one",
    "build_runtime(coalesce=)": "values: R23's coalesced and plain arms",
    "build_runtime(coalesce_opts=)": "values: the obs report batches 4",
    "build_runtime(comms=)": "wiring: the mpi transport's communicators",
    "build_runtime(max_parcel=)": "wiring: sizes the staging buffers",
    "build_runtime(photon=)": "wiring: the photon transport's endpoints",
    "build_runtime(transport=)": "values: photon or mpi",
    "mpi_init(config=)": "values: R12 passes an eager threshold",
    "photon_init(config=)": "values: R4 / R6 / R12 / R17 / R19 pass one",
}

_CONFIGS = ("repro.photon.config:PhotonConfig",
            "repro.minimpi.status:MPIConfig",
            "repro.kv.store:KVConfig", "repro.kv.raft:RaftConfig",
            "repro.runtime.health:HealthConfig", "repro.runtime.am:AmConfig",
            "repro.fabric.params:LinkParams", "repro.fabric.params:NicParams",
            "repro.fabric.params:HostParams",
            "repro.fabric.params:FabricParams")
_BUILDERS = ("repro.cluster:build_cluster", "repro.photon.api:photon_init",
             "repro.minimpi.comm:mpi_init", "repro.runtime:build_runtime",
             "repro.runtime.health:build_health", "repro.kv.store:build_kv",
             "repro.kv.scenario:Scenario", "repro.kv.client:KVClient",
             "repro.runtime.coalesce:CoalescingTransport",
             "repro.runtime.transport:PhotonTransport",
             "repro.runtime.transport:MpiTransport",
             "repro.runtime.scheduler:Runtime", "repro.fabric.link:Link",
             "repro.photon.rcache:RegistrationCache",
             "repro.obs.registry:MetricsRegistry",
             "repro.sim.core:Environment")


def _resolve(spec):
    module, name = spec.split(":")
    return name, getattr(importlib.import_module(module), name)


def test_option_inventory():
    found = []
    for spec in _CONFIGS:
        name, cls = _resolve(spec)
        found += [f"{name}.{field.name}"
                  for field in dataclasses.fields(cls)]
    for spec in _BUILDERS:
        name, fn = _resolve(spec)
        found += [f"{name}({param.name}=)"
                  for param in inspect.signature(fn).parameters.values()
                  if param.default is not param.empty]
    assert sorted(found) == sorted(OPTIONS)
    assert all(OPTIONS.values())


def test_each_collective_schedule_is_written_once():
    """Photon and minimpi run one copy of each collective schedule —
    the dissemination barrier, recursive doubling with its ``pof2`` fold,
    the ring allgather — and of the reduce-op table, all in
    ``photon.collectives``; Photon's ring allreduce, ``Photon.exchange``
    and the minimpi collectives nothing called stay deleted."""
    text = {path: open(path).read() for path in _py_files("src")}
    home = os.path.join("src", "repro", "photon", "collectives.py")
    for pattern in (r"\bpof2\b", r"dist <<= 1", r"\(rank - step - 1\) % n",
                    r'"prod": np\.multiply',
                    r"^def (barrier|allreduce|allgather)\("):
        assert [p for p, src in text.items()
                if re.search(pattern, src, re.M)] == [home], pattern
    deleted = re.compile(r"_allreduce_ring|_REDUCE_OPS"
                         r"|def (bcast|reduce|gather|scatter|exchange)\(")
    bad = [path for path in _py_files("src/repro/photon", "src/repro/minimpi")
           if deleted.search(open(path).read())]
    assert not bad, bad


def test_deleted_modes_stay_deleted():
    """Paths only their own tests selected were deleted: the coalescer's
    requeue mode, the AM's shed mode and bounded credit wait, the rcache's
    merge-off switch and pinned-bytes cap, kernel interrupts and NIC
    loopback.  So were the parcel transport's circuit breaker and resend
    budget: the failure detector is the one source of "peer down" and
    the wire library the one retry layer.  So was the synchronous
    snapshot: a replica serializes on its snapshot worker, never on the
    serve loop, and a RaftNode has no serializer hook.  So was the
    kernel's Timeout freelist: every Timeout is a fresh allocation.  So
    were Photon's typed wait result (every wait returns a bool) and the
    request fields nothing read: its kind enum and post time.  So were
    the attribute copies of counts the rank's metrics scope keeps (the
    registration cache's, the runtime's, the coalescer's) and
    ``Photon.telemetry()``: every count is a counter, kept once."""
    pattern = re.compile(r"requeue_on_peer_down|on_exhausted|rcache_merge"
                         r"|max_pinned_bytes|\bInterrupt\b|_loopback"
                         r"|_active_process|CreditExhaustedError"
                         r"|credit_wait_ns|am\.credit_timeouts"
                         r"|breaker|_PeerHealth|peer_is_down"
                         r"|max_send_retries|parcel_resends"
                         r"|snapshot_fn|_snap_seen"
                         r"|timeout\(SNAPSHOT_COST_NS\)"
                         r"|getrefcount|_timeout_freelist|_FREELIST_MAX"
                         r"|TimeoutStatus|RequestKind|t_posted"
                         r"|def telemetry|hit_rate|parcels_batched"
                         r"|\.(hits|misses|evictions|deferred_evictions"
                         r"|invalid_prunes|merges|lookup_probes"
                         r"|parcels_sent|parcels_run|batches_sent"
                         r"|parcels_dropped) *(\+=|= *0\b)")
    bad = [path for path in _py_files("src")
           if pattern.search(open(path).read())]
    assert not bad, bad


def test_one_recorder_and_one_artifact_cli():
    """Trace records live in the metrics registry (``scope.log``) and
    ``python -m repro.obs.report`` is the one artifact program; a
    rendezvous read is a ``get_pwc``, replayed by Photon alone.  The
    tracer, the chaos CLI, the CI snapshot script and the refetch
    counters stay deleted and unnamed in src/, tests/ and .github/."""
    gone = re.compile(r"\bTracer\b|cluster\.tracer|chaos[/.]__main__"
                      r"|kv_obs_snapshot|rendezvous_refetches"
                      r"|fetch_failures")
    me = os.path.join("tests", "test_repo_consistency.py")
    files = [os.path.join(dirpath, fname)
             for root in ("src", "tests", ".github")
             for dirpath, _dirs, names in os.walk(root)
             for fname in names if fname.endswith((".py", ".yml"))]
    bad = [path for path in files
           if path != me and gone.search(open(path).read())]
    assert not bad, bad
    assert not os.path.exists(os.path.join("src", "repro", "chaos",
                                           "__main__.py"))


def test_only_the_kernel_moves_the_clock():
    """``Environment.now`` is a plain attribute (no read-only property), so
    nothing under ``src/`` outside ``sim/core.py`` may assign an attribute
    named ``now``."""
    core = os.path.join("src", "repro", "sim", "core.py")
    bad = []
    for path in _py_files("src"):
        if path == core:
            continue
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "setattr"
                  and len(node.args) > 1
                  and getattr(node.args[1], "value", None) == "now"):
                bad.append((path, node.lineno))
                continue
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "now":
                        bad.append((path, node.lineno))
    assert not bad, bad


def test_events_enter_the_queue_in_one_place():
    """``Environment._schedule`` is the kernel's one scheduling entry
    point: it alone appends to the current-instant deques (``_cur``), and
    no module outside ``sim/core.py`` names them, so a test-tree kernel
    (``tests/heap_oracle``, ``tests/measure.py``) hooks that one method."""
    core = os.path.join("src", "repro", "sim", "core.py")
    appenders, outside = set(), []
    for path in _py_files("src"):
        tree = ast.parse(open(path).read())
        named = [n for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr == "_cur"]
        if path != core:
            outside += [(path, n.lineno) for n in named]
            continue
        appenders |= {fn.name for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("append", "appendleft",
                                             "extend", "insert")
                      and any(isinstance(n, ast.Attribute)
                              and n.attr == "_cur"
                              for n in ast.walk(node.func.value))}
    assert not outside, outside
    assert appenders == {"_schedule"}, appenders


def test_one_measuring_harness():
    """``tests/measure.py events | calls | timeline | reach`` replaced four
    CLIs, which stay deleted and unnamed in the docs; among the test
    tree's tools it alone reads profiler entries, runs a child interpreter
    and builds a ``perf/`` block."""
    gone = ("event_origins.py", "call_counts.py", "op_timeline.py",
            "reach.py")
    assert not set(gone) & set(os.listdir("tests"))
    docs = ["README.md", "DESIGN.md", "CONTRIBUTING.md",
            ".github/workflows/ci.yml"] + [
        os.path.join("docs", f) for f in os.listdir("docs")]
    named = re.compile(r"tests/(%s)" % "|".join(map(re.escape, gone)))
    assert not [d for d in docs if named.search(open(d).read())]
    tools = {path: open(path).read() for path in _py_files("tests")
             if not os.path.basename(path).startswith("test_")}
    for needle in ("getstats()", "subprocess", "WORKLOADS["):
        assert [path for path, src in tools.items() if needle in src] == [
            os.path.join("tests", "measure.py")], needle


def test_test_only_surface_stays_deleted():
    """Functions only tests called were deleted (``tests/measure.py
    reach`` lists what no entry point calls; ``--check`` holds the rest to
    ``tests/reach_allow.txt``).  None of them comes back under its old
    name."""
    deleted = {
        "bench/microbench.py": "median_us|p99_us|min_us",
        "bench/result.py": "all_checks_pass",
        "cluster.py": "spawn|run_spmd",
        "fabric/memory.py": "bytes_allocated|pages_spanned|pinned_pages",
        "fabric/topology.py": "hops",
        "kv/client.py": "cas|delete",
        "kv/raft.py": "stats",
        "kv/shard.py": "key_distribution|stats",
        "kv/store.py": "stop|leader_of|stats",
        "minimpi/comm.py": "sendrecv|probe",
        "minimpi/protocol.py": "probe",
        "minimpi/rma.py": "fence|get|fetch_add",
        "minimpi/status.py": "replace",
        "obs/registry.py": "quantile|enable_spans",
        "photon/backends/base.py": "build_photon_cluster",
        "photon/ledger.py": "read_head",
        "photon/request.py": "completed",
        "photon/wire.py": "unpack",
        "runtime/actions.py": "action|name_of|__len__",
        "runtime/am.py": "credits|pending|stats",
        "runtime/health.py": "suspicion",
        "runtime/lco.py": "failed",
        "sim/core.py": "ok|any_of",
        "sim/resources.py": "__len__",
        "sim/rng.py": "reset",
        "sim/trace.py": "select|snapshot|clear",
        "util/stats.py": "mean|median|stddev|summarize",
        "util/units.py": "us|ms|s",
        "verbs/cq.py": "__len__",
        "verbs/device.py": "lookup|n",
        "verbs/mr.py": "read|write",
        "verbs/qp.py": "sq_available|connect_pair",
    }
    for rel, names in deleted.items():
        src = open(os.path.join("src", "repro", rel)).read()
        found = re.findall(rf"^\s*def ({names})\(", src, re.M)
        assert not found, (rel, found)
    classes = re.compile(r"^class (AndGate|ReduceLCO|AnyOf|Summary)\b", re.M)
    assert not [p for p in _py_files("src") if classes.search(open(p).read())]
    rng = open("src/repro/sim/rng.py").read()
    assert not re.search(r"^def stream\(", rng, re.M)  # the module-level one
    kv = open("src/repro/kv/shard.py").read()
    assert not re.search(r"\b(OP_CAS|OP_DELETE|ST_CAS_FAIL)\b", kv)


def test_ledger_state_is_written_in_one_module():
    """Photon's ledger protocol state is one ``PeerChannel`` per peer in
    ``photon/ledger.py``: the ring classes stay deleted, and no other
    photon module assigns a channel's counters or packs or reads the
    eager entry's sequence trailer."""
    gone = re.compile(r"^class (RingSpec|RemoteRing|LocalRing)\b", re.M)
    assert not [p for p in _py_files("src/repro")
                if gone.search(open(p).read())]
    home = os.path.join("src", "repro", "photon", "ledger.py")
    state = {"produced", "consumed", "credit_sent", "rx_hwm", "tx_op_seq"}
    trailer = re.compile(r"EAGER_HEADER_SIZE\s*\+\s*[\w.]*size\b"
                         r"|to_bytes\(8\b")
    bad = []
    for path in _py_files("src/repro/photon"):
        if path == home:
            continue
        text = open(path).read()
        if trailer.search(text):
            bad.append((path, "eager trailer"))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            bad += [(path, node.lineno) for target in targets
                    for sub in ast.walk(target)
                    if isinstance(sub, ast.Attribute) and sub.attr in state]
    assert not bad, bad


def test_a_failed_work_request_is_reposted_one_way():
    """Photon's entry and credit resends and minimpi's control resend and
    rendezvous refetch all build their error callback with
    ``verbs.qp.Repost``: the hand-written chains stay deleted,
    minimpi keeps one ``wr_id -> (done, error)`` table, and each library
    calls ``post_send_timed`` from exactly one function."""
    gone = re.compile(r"_entry_error_cb|_resend_ring_entry|_resend_ctrl"
                      r"|_op_errors")
    assert not [p for p in _py_files("src/repro")
                if gone.search(open(p).read())]
    for package in ("photon", "minimpi"):
        callers = set()
        for path in _py_files(os.path.join("src", "repro", package)):
            tree = ast.parse(open(path).read())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                callers |= {(path, fn.name) for sub in ast.walk(fn)
                            if isinstance(sub, ast.Attribute)
                            and sub.attr == "post_send_timed"}
        assert len(callers) == 1, (package, sorted(callers))
