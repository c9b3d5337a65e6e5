"""Cluster assembly: wire N simulated ranks together.

This is the shared bootstrap used by tests, examples and every benchmark:
it builds the event loop, topology, per-rank memory/NIC/verbs context, and
offers helpers for running one program per rank SPMD-style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Union

from .fabric.memory import Memory
from .fabric.nic import Nic
from .fabric.params import FabricParams, preset
from .fabric.topology import Topology, make_topology
from .obs.registry import MetricsRegistry
from .sim.core import Environment, SimulationError
from .sim.rng import RngRegistry
from .util.units import MiB
from .verbs.device import Context, Directory

__all__ = ["RankNode", "Cluster", "build_cluster"]


@dataclass(eq=False)
class RankNode:
    """Everything one simulated rank owns, its failure detector and its
    crash included.

    ``health`` is None until :func:`repro.runtime.health.build_health`
    installs one, which calls ``on_peer_dead`` / ``on_peer_join``
    (``cb(peer)``) in the order the rank's layers subscribed.

    :meth:`crash` and :meth:`restart` are the one way a rank dies and
    comes back.  Each layer built on the rank subscribes to ``on_crash``
    (``cb()``: this incarnation's volatile state is gone, no simulated
    time) and ``on_restart`` (``cb()``, returning None or a generator run
    to completion before the next subscriber: Photon's rejoin charges
    time).  Subscribers run in build order, so a layer built over Photon
    (a transport, the KV node) crashes and restarts after it.  The
    order is:

    - crash: the detector halts (it stops beating at once), the
      subscribers run, the NIC powers off;
    - restart: memory is reset (contents and pins lost), the NIC powers
      on, the subscribers run, and the detector resumes with a new
      incarnation last: the rank announces itself once every layer is
      back, and survivors re-arm their pairing at its first heartbeat.
    """

    rank: int
    memory: Memory
    nic: Nic
    context: Context
    health: Optional[object] = None
    #: False from :meth:`crash` until :meth:`restart` has returned
    alive: bool = True
    on_peer_dead: List[Callable[[int], None]] = field(default_factory=list)
    on_peer_join: List[Callable[[int], None]] = field(default_factory=list)
    on_crash: List[Callable[[], None]] = field(default_factory=list)
    on_restart: List[Callable[[], Optional[Generator]]] = field(
        default_factory=list)

    def crash(self) -> None:
        """Crash this rank now (no simulated time)."""
        if not self.alive:
            raise SimulationError(f"rank {self.rank} is already crashed")
        self.alive = False
        if self.health is not None:
            self.health.halt()
        for cb in self.on_crash:
            cb()
        self.nic.power_off()

    def restart(self):
        """Restart a crashed rank in place (generator, charges the time
        its layers take)."""
        if self.alive:
            raise SimulationError(f"rank {self.rank} is not crashed")
        self.memory.reset()
        self.nic.power_on()
        for cb in self.on_restart:
            step = cb()
            if step is not None:
                yield from step
        if self.health is not None:
            self.health.resume()
        self.alive = True


class Cluster:
    """N ranks on a shared fabric (see :func:`build_cluster`)."""

    def __init__(self, env: Environment, params: FabricParams,
                 topology: Topology, ranks: List[RankNode],
                 directory: Directory, rng: RngRegistry,
                 metrics: MetricsRegistry):
        self.env = env
        self.params = params
        self.topology = topology
        self.ranks = ranks
        self.directory = directory
        self.rng = rng
        #: per-rank metrics registry (scoped counters, histograms, spans,
        #: trace records)
        self.metrics = metrics
        #: cluster-wide counters: a read-only view summing the scopes
        self.counters = metrics.aggregate

    def scope(self, rank: int):
        """The per-rank counter scope (see :class:`repro.obs.registry`)."""
        return self.metrics.scope(rank)

    @property
    def n(self) -> int:
        return len(self.ranks)

    def __getitem__(self, rank: int) -> RankNode:
        return self.ranks[rank]


def build_cluster(n: int,
                  params: Union[str, FabricParams] = "ib-fdr",
                  topology: Optional[str] = None,
                  mem_size: int = 64 * MiB,
                  seed: int = 0,
                  trace: bool = False,
                  spans: bool = False,
                  **overrides) -> Cluster:
    """Assemble a cluster of ``n`` ranks.

    Parameters
    ----------
    params:
        A preset name (``"ib-fdr"``, ``"ib-edr"``, ``"gemini"``, ``"roce"``,
        ``"eth-10g"``) or a :class:`FabricParams` instance.
    topology:
        Override the preset's topology ("star" or "torus2d").
    trace:
        Record NIC, chaos and health events in the metrics registry's
        trace ring (host-side only, like spans).
    spans:
        Record per-op latency spans in the metrics registry (host-side
        only; cannot perturb simulated time).
    overrides:
        Nested parameter overrides, e.g. ``link__mtu=1024``.
    """
    if isinstance(params, str):
        params = preset(params)
    if overrides:
        params = params.with_overrides(**overrides)
    env = Environment()
    # every component counts in its rank's scope (or the fabric's)
    metrics = MetricsRegistry(n, spans_enabled=spans, trace_enabled=trace)
    rng = RngRegistry(seed)
    topo = make_topology(topology or params.topology, env, n,
                         params.link, metrics.fabric, rng=rng)
    directory = Directory()
    ranks: List[RankNode] = []
    for r in range(n):
        scope = metrics.scope(r)
        memory = Memory(mem_size, params.host, rank=r)
        nic = Nic(env, r, params, memory, topo, scope)
        context = Context(env, r, nic, memory, params, directory, scope)
        ranks.append(RankNode(rank=r, memory=memory, nic=nic, context=context))
    return Cluster(env, params, topo, ranks, directory, rng, metrics)
