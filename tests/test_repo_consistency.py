"""Repository self-consistency: experiments ↔ benchmarks ↔ docs.

Keeps the deliverables honest: every registered experiment is collected
by the benchmark module, is indexed in DESIGN.md, and has a measured table in
EXPERIMENTS.md — and no build artifact is ever committed.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


#: every option a caller can set: the fields of the config dataclasses and
#: the defaulted keyword parameters of the builders and layer constructors
#: (``Class.field`` / ``callable(param=)``).  Adding or removing one fails
#: ``test_option_inventory`` until this pin moves with it, so a change's
#: options removed and added read straight off its diff.
OPTIONS = [
    "AmConfig.credit_wait_ns", "AmConfig.credits_per_dest",
    "AmConfig.dedup_window", "CoalescingTransport(flush_bytes=)",
    "CoalescingTransport(flush_count=)", "CoalescingTransport(max_delay_ns=)",
    "FabricParams.host", "FabricParams.link", "FabricParams.name",
    "FabricParams.nic", "FabricParams.topology", "HealthConfig.ewma_alpha",
    "HealthConfig.min_interval_ns", "HealthConfig.period_ns",
    "HealthConfig.phi_dead", "HealthConfig.phi_suspect", "HostParams.dereg_ns",
    "HostParams.memcpy_gbps", "HostParams.page_size", "HostParams.reg_base_ns",
    "HostParams.reg_per_page_ns", "KVClient(loc_ttl_ns=)",
    "KVClient(max_attempts=)", "KVClient(poll_ns=)", "KVClient(read_mode=)",
    "KVClient(timeout_ns=)", "KVConfig.apply_cost_ns",
    "KVConfig.install_cost_ns", "KVConfig.n_groups", "KVConfig.raft",
    "KVConfig.rf", "KVConfig.slot_size", "KVConfig.slots_per_group",
    "KVConfig.snapshot_cost_ns", "Link(counters=)", "Link(extra_latency_ns=)",
    "Link(queue_depth=)", "Link(rng=)", "LinkParams.bandwidth_gbps",
    "LinkParams.drop_rate", "LinkParams.header_bytes", "LinkParams.latency_ns",
    "LinkParams.loss_mode", "LinkParams.mtu", "LinkParams.retransmit_ns",
    "MPIConfig.coll_scratch", "MPIConfig.eager_credits",
    "MPIConfig.eager_threshold", "MPIConfig.max_op_retries",
    "MPIConfig.prepost", "MPIConfig.progress_poll_ns",
    "MPIConfig.rcache_capacity", "MPIConfig.sw_overhead_ns",
    "MetricsRegistry(max_spans=)", "MetricsRegistry(spans_enabled=)",
    "MpiTransport(max_parcel=)", "MpiTransport(window=)",
    "NicParams.ack_overhead_ns", "NicParams.ack_timeout_ns",
    "NicParams.atomic_ns", "NicParams.bulk_startup_ns",
    "NicParams.bulk_threshold", "NicParams.cqe_poll_ns",
    "NicParams.delivery_ns", "NicParams.dma_gbps", "NicParams.doorbell_ns",
    "NicParams.max_inline", "NicParams.post_overhead_ns",
    "NicParams.rnr_retry_ns", "NicParams.transport_retries",
    "NicParams.wqe_process_ns", "PhotonConfig.backoff_base_ns",
    "PhotonConfig.backoff_jitter_ns", "PhotonConfig.backoff_max_ns",
    "PhotonConfig.completion_entries", "PhotonConfig.credit_fraction",
    "PhotonConfig.eager_limit", "PhotonConfig.eager_slots",
    "PhotonConfig.entry_resend_limit", "PhotonConfig.fin_entries",
    "PhotonConfig.imm_prepost", "PhotonConfig.info_entries",
    "PhotonConfig.max_op_retries", "PhotonConfig.max_outstanding",
    "PhotonConfig.op_timeout_ns", "PhotonConfig.progress_poll_ns",
    "PhotonConfig.rcache_capacity", "PhotonConfig.rcache_enabled",
    "PhotonConfig.use_imm", "PhotonConfig.use_inline",
    "PhotonTransport(max_parcel=)", "RaftConfig.compact_margin",
    "RaftConfig.compact_threshold", "RaftConfig.election_jitter_ns",
    "RaftConfig.election_stagger_ns", "RaftConfig.election_timeout_ns",
    "RaftConfig.fast_election_ns", "RaftConfig.heartbeat_ns",
    "RaftConfig.lease_ns", "RaftConfig.max_entries_per_ae",
    "RaftConfig.snapshot_chunk", "RegistrationCache(capacity=)",
    "RegistrationCache(enabled=)", "Runtime(counters=)",
    "Runtime(handler_cost_ns=)", "Scenario(raft=)", "Scenario(spans=)",
    "Tracer(enabled=)", "Tracer(max_records=)", "build_cluster(mem_size=)",
    "build_cluster(params=)", "build_cluster(seed=)", "build_cluster(spans=)",
    "build_cluster(topology=)", "build_cluster(trace=)",
    "build_cluster(trace_max_records=)", "build_health(config=)",
    "build_health(start=)", "build_kv(config=)", "build_kv(monitors=)",
    "build_kv(registry=)", "build_kv(start=)", "build_runtime(am=)",
    "build_runtime(am_config=)", "build_runtime(coalesce=)",
    "build_runtime(coalesce_opts=)", "build_runtime(comms=)",
    "build_runtime(max_parcel=)", "build_runtime(photon=)",
    "build_runtime(transport=)", "mpi_init(config=)", "photon_init(config=)"
]

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
             "repro.photon.rcache:RegistrationCache", "repro.sim.trace:Tracer",
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
    assert sorted(found) == OPTIONS


def test_deleted_modes_stay_deleted():
    """Paths only their own tests selected were deleted: the coalescer's
    requeue mode, the AM's shed mode, the rcache's merge-off switch and
    pinned-bytes cap, kernel interrupts and NIC loopback."""
    pattern = re.compile(r"requeue_on_peer_down|on_exhausted|rcache_merge"
                         r"|max_pinned_bytes|\bInterrupt\b|_loopback"
                         r"|_active_process")
    bad = [path for path in _py_files("src")
           if pattern.search(open(path).read())]
    assert not bad, bad
