"""kv_write / kv_read / kv_chaos — the replicated KV tenant.

All three share one cluster shape: 6 ranks on ``ib-fdr``, 2 Raft groups
x replication factor 3, phi-accrual health monitors, and 4 closed-loop
clients on replica-free ranks, each keeping exactly one op in flight.
Keys follow Zipf(0.99) over 192 preloaded keys, values are 64 bytes.

* ``kv_write`` — 10 % get / 90 % put, reads served by the leader
  (``read_mode="rpc"``): Raft append→commit over PWC and the
  ``KVNode._serve`` poll loop dominate.
* ``kv_read`` — 95 % get / 5 % put, reads done by the client itself with
  ``get_pwc`` against the leader's slot table (``read_mode="onesided"``).
* ``kv_chaos`` — 50/50 mix, rpc reads, on a fabric that drops 1 % of
  chunks, with small compaction thresholds and a fixed fault schedule
  per block: a 500 us partition of a group-1 follower (it catches up
  through InstallSnapshot), then a crash of the group-0 leader.  The
  leader stays down: restarting it trips two defects in the program,
  see README.md.

Set-up (timed as ``setup_s``) builds the stack, waits for both groups
to elect, preloads the keys and draws every client's op plan from the
block seed.  One op is one client get/put; anything but OK counts as
failed, never dropped.  After the timed region the block idles long
enough for followers to catch up, then
audits every acknowledged write uid against every surviving replica of
the key's group, and every value a get returned against the set of
values ever written to that key.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.chaos import (ChaosController, CrashRank, FaultSchedule, HealEvent,
                         PartitionEvent)
from repro.cluster import build_cluster
from repro.kv import KVClient, KVConfig, RaftConfig, ST_OK, build_kv
from repro.obs.registry import Span
from repro.photon import photon_init
from repro.runtime.health import HealthConfig, build_health

from ..harness import BlockResult

__all__ = ["KvWrite", "KvRead", "KvChaos"]

N_RANKS = 6
N_GROUPS = 2
RF = 3
N_CLIENTS = 4
N_KEYS = 192
ZIPF_THETA = 0.99
VALUE_BYTES = 64
HB_PERIOD_NS = 50_000
PHI_DEAD = 6.0
LOADER_ID = 1000
#: idle time after the timed region before the replica audit (ns)
DRAIN_NS = 40 * HB_PERIOD_NS

#: fault offsets from the start of the timed region (ns) — R21's timeline
PARTITION_AT_NS = 300_000
PARTITION_NS = 500_000
CRASH_AT_NS = 1_200_000
#: how long after the crash instant the victim's KVNode state is wiped
KV_WIPE_DELAY_NS = 200_000


def _value(client_id: int, seq: int) -> bytes:
    tag = b"c%d:s%d:" % (client_id, seq)
    return tag + b"x" * (VALUE_BYTES - len(tag))


def _span_only_installs(cluster) -> None:
    """Let ``kv.raft.install`` spans exist while spans are off.

    ``KVNode._install_snapshot`` ends its span unconditionally, so with
    the registry's spans disabled a snapshot install raises on ``None``
    (src/repro/kv/store.py; every in-tree caller that reaches it runs
    with ``spans=True``).  The end-to-end run keeps spans off everywhere
    else by handing out a real span for that one name only.
    """
    for scope in cluster.metrics.ranks:
        def span(name, t_start, peer=None, nbytes=0, _scope=scope):
            if name == "kv.raft.install":
                return Span(name, _scope, t_start, peer, nbytes)
            return None
        scope.span = span


class _DeferredWipe:
    """``ChaosController(kv=...)`` hook that wipes a crashed node late.

    ``KVNode._apply_committed`` and ``_flush`` iterate the node's group
    table across simulated yields, and ``on_crash`` clears that table;
    a crash landing while the victim is inside either loop (a heartbeat
    flush is enough — about one block in seventy here) kills its serve
    loop with "dictionary changed size during iteration"
    (src/repro/kv/store.py).  The endpoint and NIC still die at the
    scheduled instant; only the wipe of the dead node's Python-side
    state waits until its serve loop is parked in the dead-poll sleep,
    where nobody can observe the difference.
    """

    def __init__(self, node):
        self.node = node

    def on_crash(self) -> None:
        self.node.env.process(self._wipe_later(), name="perf.kv.wipe")

    def _wipe_later(self):
        yield self.node.env.timeout(KV_WIPE_DELAY_NS)
        self.node.on_crash()


class _KvWorkload:
    name = ""
    get_ratio = 0.5
    read_mode = "rpc"
    chaos = False
    #: client ops per block at scale 1, per client
    ops_per_client = 300
    # KVClient knobs; the contract test shrinks these to inject timeouts.
    # 200 attempts instead of the client's default 24: after the leader
    # crash about one block in two hundred goes ~8 ms without a group-0
    # leader (election churn up to term 7 on the lossy fabric), which
    # outlasts 24 redirect/back-off rounds; a patient client rides it
    # out and the stall shows up in the latencies instead
    client_timeout_ns = 2_000_000
    client_max_attempts = 200
    pooled = ("get", "put")

    def __init__(self, seed: int, scale: float, spans: bool = False,
                 trace=None):
        self.trace = trace
        rng = np.random.default_rng(seed)
        n_ops = max(1, round(self.ops_per_client * scale))
        overrides = {}
        raft = RaftConfig()
        if self.chaos:
            overrides = dict(link__loss_mode="lossy", link__drop_rate=0.01)
            raft = RaftConfig(compact_threshold=16, compact_margin=4)
        cl = self.cl = build_cluster(N_RANKS, "ib-fdr", seed=seed,
                                     spans=spans, **overrides)
        if spans:
            cl.metrics.max_spans = 1 << 22
        elif self.chaos:
            _span_only_installs(cl)
        self.clusters = [cl]
        self.photon = photon_init(cl)
        self.monitors = build_health(
            cl, HealthConfig(period_ns=HB_PERIOD_NS, phi_dead=PHI_DEAD))
        self.nodes = build_kv(
            cl, self.photon, KVConfig(n_groups=N_GROUPS, rf=RF, raft=raft),
            monitors=self.monitors)
        smap = self.nodes[0].shard_map
        free = [r for r in range(N_RANKS) if not smap.groups_on(r)] \
            or list(range(N_RANKS))
        self.keys = [b"kv:%08d" % i for i in range(N_KEYS)]
        #: key -> every value ever written to it (gets must return one)
        self.written: Dict[bytes, Set[bytes]] = {k: set() for k in self.keys}

        # inputs: Zipf key ranks and the get/put coin, per client
        weights = np.arange(1, N_KEYS + 1, dtype=np.float64) ** -ZIPF_THETA
        cdf = np.cumsum(weights) / weights.sum()
        self.plans: List[List[tuple]] = []
        self.clients: List[KVClient] = []
        for c in range(N_CLIENTS):
            ranks = np.searchsorted(cdf, rng.random(n_ops), side="left")
            gets = rng.random(n_ops) < self.get_ratio
            self.plans.append(list(zip(ranks.tolist(), gets.tolist())))
            # the client polls its reply hub on a fixed period, which
            # quantises observed latency; a per-client period drawn from
            # the seed keeps the pooled percentiles off a single grid
            poll_ns = 2_000 + int(rng.integers(-400, 401))
            self.clients.append(KVClient(
                self.nodes[free[c % len(free)]], client_id=c + 1,
                read_mode=self.read_mode, poll_ns=poll_ns,
                timeout_ns=self.client_timeout_ns,
                max_attempts=self.client_max_attempts))
        self.loader = KVClient(self.nodes[free[0]], client_id=LOADER_ID)

        env = cl.env
        setup = env.process(self._elect_and_preload(), name="perf.kv.setup")
        env.run(until=setup)
        self.horizon_ns = env.now
        if self.chaos:
            self._arm_chaos()
        self.result = BlockResult(pooled=self.pooled)
        self.result.attempted = N_CLIENTS * n_ops
        self.result.latency_ns = {"get": [], "put": []}

    # -------------------------------------------------------------- set-up
    def _leaders_ready(self) -> bool:
        return all(any(n.is_leader(g) for n in self.nodes)
                   for g in range(N_GROUPS))

    def _elect_and_preload(self):
        env = self.cl.env
        while not self._leaders_ready():
            yield env.timeout(HB_PERIOD_NS)
        loader = self.loader
        for key in self.keys:
            value = _value(LOADER_ID, loader.seq + 1)
            self.written[key].add(value)
            status = yield from loader.put(key, value)
            if status != ST_OK:
                raise RuntimeError(f"preload of {key!r} failed: {status}")

    def _arm_chaos(self) -> None:
        nodes, smap = self.nodes, self.nodes[0].shard_map
        t0 = self.cl.env.now
        victim = next(n.rank for n in nodes if n.is_leader(0))
        follower = max(r for r in smap.replicas(1)
                       if r != victim and not nodes[r].is_leader(1))
        others = tuple(r for r in range(N_RANKS) if r != follower)
        schedule = FaultSchedule([
            PartitionEvent(t0 + PARTITION_AT_NS, (follower,), others),
            HealEvent(t0 + PARTITION_AT_NS + PARTITION_NS),
            CrashRank(t0 + CRASH_AT_NS, victim),
        ])
        self.horizon_ns = schedule.horizon_ns()
        ChaosController(self.cl, schedule, photon=self.photon,
                        monitors=self.monitors,
                        kv=[_DeferredWipe(n) for n in nodes]).arm()

    # -------------------------------------------------------- timed region
    def _client_loop(self, c: int):
        env = self.cl.env
        client = self.clients[c]
        scope = self.cl.scope(client.node.rank)
        res = self.result
        keys, written = self.keys, self.written
        for key_rank, is_get in self.plans[c]:
            key = keys[key_rank]
            t0 = env.now
            if is_get:
                span = scope.span("kv.op.get", t0)
                status, value = yield from client.get(key)
            else:
                span = scope.span("kv.op.put", t0)
                value = _value(client.client_id, client.seq + 1)
                written[key].add(value)
                status = yield from client.put(key, value)
            t1 = env.now
            if span is not None:
                span.end(t1, status="ok" if status == ST_OK
                         else f"st{status}")
            if status != ST_OK:
                res.failed += 1
                continue
            if is_get and value not in written[key]:
                if len(res.errors) < 8:
                    res.errors.append(f"get {key!r} returned a value "
                                      "nobody wrote")
                continue
            res.completed += 1
            res.payload_bytes += len(value)
            res.latency_ns["get" if is_get else "put"].append(t1 - t0)

    def run(self, region) -> None:
        env = self.cl.env
        t0 = env.now
        procs = [env.process(self.trace.wrap(f"client.{c}",
                                             self._client_loop(c),
                                             parent=region),
                             name=f"perf.kv.client{c}")
                 for c in range(N_CLIENTS)]
        env.run(until=env.all_of(procs))
        self.result.sim_ns = env.now - t0

    # -------------------------------------------------------------- verify
    def finish(self) -> BlockResult:
        env, res = self.cl.env, self.result
        env.run(until=max(env.now, self.horizon_ns) + DRAIN_NS)
        smap = self.nodes[0].shard_map
        writers = self.clients + [self.loader]
        acked = [t for client in writers for t in client.acked]
        lost = 0
        for (cid, seq, _op, key, _value_) in acked:
            group = smap.group_of(key)
            for rank in smap.replicas(group):
                node = self.nodes[rank]
                if not node.photon.alive:
                    continue
                machine = node.machines.get(group)
                if machine is None or (cid, seq) not in machine.applied_uids:
                    lost += 1
        if lost:
            res.errors.append(f"{lost} acked write uids missing from a "
                              "surviving replica")
        puts_ok = len(res.latency_ns["put"])
        acked_by_clients = sum(len(c.acked) for c in self.clients)
        if acked_by_clients < puts_ok:
            res.errors.append(f"{puts_ok} puts returned OK but only "
                              f"{acked_by_clients} were acknowledged")
        for client in self.clients:
            for name, value in client.stats.as_dict().items():
                res.extra[name] = res.extra.get(name, 0) + value
        return res


class KvWrite(_KvWorkload):
    name = "kv_write"
    get_ratio = 0.10
    ops_per_client = 375


class KvRead(_KvWorkload):
    name = "kv_read"
    get_ratio = 0.95
    read_mode = "onesided"
    ops_per_client = 850


class KvChaos(_KvWorkload):
    name = "kv_chaos"
    get_ratio = 0.50
    chaos = True
    ops_per_client = 290
