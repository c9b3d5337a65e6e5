"""One KV scenario harness: cluster, seeded clients, faults, history.

A :class:`Scenario` owns what every KV experiment, benchmark block and
chaos test used to build by hand — cluster, ``photon_init``, phi-accrual
monitors, ``build_kv`` — and offers the steps of a run as generators the
caller composes inside its own driver process, so an experiment still
reads top to bottom: :meth:`~Scenario.wait_leaders`,
:meth:`~Scenario.preload`, :meth:`~Scenario.op`,
:meth:`~Scenario.closed_loop` / :meth:`~Scenario.open_loop` over a
*plan* (any iterable of ``(key, is_get)``), :meth:`~Scenario.arm` and
:meth:`~Scenario.drain`.

Every op issued through the harness leaves one :class:`Op` row in
``Scenario.history`` (appended at return, so in completion order) and a
``kv.op.get`` / ``kv.op.put`` span on the client's rank.  Latency
percentiles, throughput and outcome counts are functions over those rows
(:func:`latencies_ns`, :func:`pct_us`, :func:`ops_per_sec`,
:func:`outcomes`, :func:`stalls_across`); the audits of a *finished*
scenario — acknowledged uids, replica byte-identity, "a get returned a
value somebody wrote" — live in :mod:`repro.chaos.invariants`.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..chaos import ChaosController, FaultSchedule
from ..cluster import build_cluster
from ..photon import photon_init
from ..runtime.health import HealthConfig, build_health
from ..util.stats import percentile
from .client import KVClient
from .raft import RaftConfig
from .shard import ST_MISS, ST_OK
from .store import KVConfig, build_kv

__all__ = ["Scenario", "Op", "keyspace", "zipf_plan", "value_tag",
           "latencies_ns", "pct_us", "ops_per_sec", "outcomes",
           "stalls_across", "DRAIN_BEATS"]

VALUE_SIZE = 64
#: heartbeats :meth:`Scenario.drain` idles once every group is led
DRAIN_BEATS = 40

Plan = Iterable[Tuple[bytes, bool]]


class Op(NamedTuple):
    """One history row.  ``seq`` is the session seq the op began at — a
    put's uid is ``(client, seq)``; ``value`` is what a put wrote or a
    get returned; ``t_invoke`` is backdated to the arrival instant in an
    open loop, so queueing counts against the op."""
    client: int
    seq: int
    kind: str
    key: bytes
    value: bytes
    status: int
    t_invoke: int
    t_return: int


def keyspace(n_keys: int) -> List[bytes]:
    return [b"kv:%08d" % i for i in range(n_keys)]


def value_tag(client_id: int, seq: int) -> bytes:
    """Self-describing value of write ``(client_id, seq)``: an audit can
    match a surviving value to the ack that produced it."""
    tag = b"c%d:s%d:" % (client_id, seq)
    return tag + b"x" * (VALUE_SIZE - len(tag))


def zipf_plan(keys: List[bytes], theta: float, get_ratio: float,
              key_rng: np.random.Generator, coin_rng: np.random.Generator,
              n_ops: Optional[int] = None) -> Plan:
    """Zipf(theta)-skewed ``(key, is_get)`` pairs (theta 0 is uniform,
    0.99 the YCSB default): a uniform from ``key_rng`` inverted through
    the CDF, and the get / put coin from ``coin_rng``.  With ``n_ops``
    the plan is drawn here and now, every key then every coin (a perf
    block's order when both are one stream; the same pairs as drawing
    per op when they are two).  Without, it is endless and drawn as it
    is consumed, key then coin per op — the open loop, whose coin stream
    is also its gap stream."""
    cdf = np.cumsum(np.arange(1, len(keys) + 1, dtype=np.float64) ** -theta)
    cdf /= cdf[-1]
    if n_ops is None:
        return ((keys[int(np.searchsorted(cdf, key_rng.random(), "left"))],
                 bool(coin_rng.random() < get_ratio)) for _ in repeat(None))
    ranks = np.searchsorted(cdf, key_rng.random(n_ops), "left").tolist()
    gets = (coin_rng.random(n_ops) < get_ratio).tolist()
    return [(keys[r], g) for r, g in zip(ranks, gets)]


# --------------------------------------------------------------- statistics
def latencies_ns(history: Iterable[Op], kind: Optional[str] = None) \
        -> List[int]:
    """Service times of the answered ops (a timed-out op's is not one)."""
    return [op.t_return - op.t_invoke for op in history
            if op.status in (ST_OK, ST_MISS) and kind in (None, op.kind)]


def pct_us(history: Iterable[Op], kind: str, p: float) -> float:
    xs = latencies_ns(history, kind)
    return percentile(xs, p) / 1e3 if xs else 0.0


def ops_per_sec(history: Iterable[Op]) -> float:
    """Answered ops over first invoke → last return."""
    rows = list(history)
    if not rows:
        return 0.0
    span_ns = max(op.t_return for op in rows) - min(op.t_invoke for op in rows)
    return len(latencies_ns(rows)) / (span_ns / 1e9) if span_ns > 0 else 0.0


def stalls_across(history: Iterable[Op], t: int) -> Dict[int, int]:
    """client -> the longest any of its ops ran after instant ``t`` (a
    crash): from ``t``, or from its invoke if later, to its return."""
    out: Dict[int, int] = {}
    for op in history:
        if op.t_return > t:
            ns = op.t_return - max(op.t_invoke, t)
            out[op.client] = max(out.get(op.client, 0), ns)
    return out


def outcomes(history: Iterable[Op]) -> Counter:
    """``ok`` / ``miss`` / ``failed`` counts."""
    names = {ST_OK: "ok", ST_MISS: "miss"}
    return Counter(names.get(op.status, "failed") for op in history)


# ----------------------------------------------------------------- scenario
class Scenario:
    """``n_ranks`` on ``ib-fdr``, ``n_groups`` Raft groups x rf
    ``min(3, n_ranks)``, health monitors at :class:`HealthConfig`'s
    defaults.  ``fabric`` are ``build_cluster`` overrides
    (``link__loss_mode="lossy"``, ...)."""

    def __init__(self, n_ranks: int, n_groups: int, seed: int,
                 raft: Optional[RaftConfig] = None, spans: bool = True,
                 **fabric):
        cl = self.cluster = build_cluster(n_ranks, "ib-fdr", seed=seed,
                                          spans=spans, **fabric)
        self.env = cl.env
        self.photon = photon_init(cl)
        self.monitors = build_health(cl)
        self.nodes = build_kv(
            cl, self.photon,
            KVConfig(n_groups=n_groups, rf=min(3, n_ranks),
                     raft=raft or RaftConfig()))
        self.shard_map = self.nodes[0].shard_map
        #: ranks hosting no replica, else all: a co-located client's ops
        #: skip the wire and would pollute latencies with 0-hop samples
        self.free = [r for r in range(n_ranks)
                     if not self.shard_map.groups_on(r)] \
            or list(range(n_ranks))
        #: every session made through :meth:`client` (the audits read
        #: their ``acked`` lists)
        self.clients: List[KVClient] = []
        self.history: List[Op] = []

    def client(self, rank: int, client_id: int, **kw) -> KVClient:
        """A :class:`KVClient` session on ``rank``, known to the audits."""
        client = KVClient(self.nodes[rank], client_id, **kw)
        self.clients.append(client)
        return client

    def run(self, driver, name: str = "kv.scenario"):
        """Run the caller's driver generator to completion."""
        return self.env.run(until=self.env.process(driver, name=name))

    # ---------------------------------------------------------------- leaders
    def leader(self, group: int) -> Optional[int]:
        """The live rank leading ``group`` right now, or None."""
        return next((n.rank for n in self.nodes
                     if n.photon.alive and n.is_leader(group)), None)

    def wait_leaders(self, since: Optional[int] = None):
        """Park until every group has a live leader; returns the instant
        (generator).  Looks on the heartbeat grid; with ``since`` (a
        future instant) it sleeps until then and looks five times as
        often — the failover watcher.  Start that one a nanosecond
        *after* a crash: at the crash instant it can run first and
        report the victim."""
        period = HealthConfig.period_ns
        if since is not None:
            yield self.env.timeout(since - self.env.now)
            period //= 5
        groups = range(self.shard_map.n_groups)
        while any(self.leader(g) is None for g in groups):
            yield self.env.timeout(period)
        return self.env.now

    def drain(self):
        """Quiesce before an audit: every group led, then
        :data:`DRAIN_BEATS` heartbeats for followers to catch up
        (generator).  A fixed wait alone is wrong whenever a group is
        leaderless at that instant (ROADMAP 1e)."""
        yield from self.wait_leaders()
        yield self.env.timeout(DRAIN_BEATS * HealthConfig.period_ns)

    # -------------------------------------------------------------------- ops
    def op(self, client: KVClient, key: bytes, is_get: bool,
           t_invoke: Optional[int] = None):
        """One get or tagged put; returns its :class:`Op` row
        (generator)."""
        env = self.env
        t0 = env.now if t_invoke is None else t_invoke
        kind, seq = "get" if is_get else "put", client.seq + 1
        span = self.cluster.scope(client.node.rank).span(f"kv.op.{kind}", t0)
        if is_get:
            status, value = yield from client.get(key)
        else:
            value = value_tag(client.client_id, seq)
            status = yield from client.put(key, value)
        if span is not None:
            span.end(env.now, status="ok" if status == ST_OK
                     else f"st{status}")
        row = Op(client.client_id, seq, kind, key, value, status, t0, env.now)
        self.history.append(row)
        return row

    def preload(self, client: KVClient, keys: Iterable[bytes]):
        """Put every key once so gets hit and loc lookups resolve
        (generator)."""
        for key in keys:
            row = yield from self.op(client, key, False)
            if row.status != ST_OK:
                raise RuntimeError(f"preload of {key!r} failed: {row.status}")

    def closed_loop(self, client: KVClient, plan: Plan, think_ns: int = 0):
        """One op in flight: the plan's ops back to back; throughput is
        an output (generator)."""
        for key, is_get in plan:
            yield from self.op(client, key, is_get)
            if think_ns:
                yield self.env.timeout(think_ns)

    def open_loop(self, clients: List[KVClient], plan: Plan,
                  rate_ops_s: float, duration_ns: int,
                  gap_rng: np.random.Generator):
        """Arrival-driven: ops arrive at ``rate_ops_s`` (exponential gaps
        from ``gap_rng``) into one FIFO, whichever session goes idle
        first pops the next, so a slow op delays only its own session
        while the *schedule* stays open: queueing shows in the recorded
        latency (generator).  Idle sessions park on a wake event the
        injector triggers per arrival — no polling, no events from an
        idle pool."""
        env, plan = self.env, iter(plan)
        gap_ns = 1e9 / rate_ops_s
        arrivals: deque = deque()
        state = {"closed": False, "wake": env.event()}

        def wake():
            if not state["wake"].triggered:
                state["wake"].succeed()

        def session(client):
            while True:
                if arrivals:
                    yield from self.op(client, *next(plan),
                                       t_invoke=arrivals.popleft())
                elif state["closed"]:
                    return
                else:
                    # the first parker after a trigger re-arms the shared
                    # event, later ones in the same step reuse it: one
                    # arrival wakes every idle session in parking order
                    # and exactly one of them pops it
                    if state["wake"].triggered:
                        state["wake"] = env.event()
                    yield state["wake"]

        procs = [env.process(session(c), name=f"kv.open.{i}")
                 for i, c in enumerate(clients)]
        t_end = env.now + duration_ns
        while env.now < t_end:
            arrivals.append(env.now)
            wake()
            yield env.timeout(max(1, int(gap_rng.exponential(gap_ns))))
        state["closed"] = True
        wake()
        for p in procs:
            if p.is_alive:
                yield p

    # ----------------------------------------------------------------- faults
    def arm(self, events) -> ChaosController:
        """Arm a fault schedule against the whole stack; an empty one
        spawns nothing."""
        ctrl = ChaosController(self.cluster, FaultSchedule(events))
        ctrl.arm()
        return ctrl
