"""The chaos controller: a sim process that executes a fault schedule.

The controller is the only writer of fault state — rank crashes and
restarts, topology cuts, gray-link degradation — so every perturbation
is attributable to a schedule entry and replays deterministically.

Determinism contract:

- An **empty schedule arms nothing**: :meth:`ChaosController.arm` spawns
  no process, consumes no RNG, logs no trace record.  Golden traces are
  bit-identical with an armed-but-empty controller.
- Every random draw (propagation jitter, flap phase jitter) comes from a
  **named stream** under the ``chaos.*`` namespace
  (``chaos.jitter.<link>``, ``chaos.flap.<link>``), so arming one mode
  on one link never shifts the draws any other consumer sees.

A crash or restart is the rank's own (:meth:`repro.cluster.RankNode.crash`
/ :meth:`~repro.cluster.RankNode.restart`, which fix the order in which
its layers die and come back): the controller only says when.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..fabric.link import LinkChaos
from ..sim.core import SimulationError
from .schedule import (ChaosEvent, ClearLink, CrashRank, FaultSchedule,
                       FlapLink, GrayLink, HealEvent, PartitionEvent,
                       RestartRank)

__all__ = ["ChaosController"]


class ChaosController:
    """Executes a :class:`~repro.chaos.schedule.FaultSchedule` against a
    cluster.

    Parameters
    ----------
    cluster:
        The :class:`~repro.cluster.Cluster` under test; every layer built
        on a rank, before or after :meth:`arm`, dies and comes back with
        it.
    schedule:
        The fault plan.  Empty schedules are inert (see module docstring).
    photon, monitors, kv:
        Accepted only because the benchmark's ``kv_chaos`` workload still
        passes them (ROADMAP 6d deletes them): ``photon`` and ``monitors``
        must be the ranks' own endpoints and detectors, and none is used.
    """

    def __init__(self, cluster, schedule: FaultSchedule,
                 photon: Optional[List] = None,
                 monitors: Optional[List] = None,
                 kv: Optional[List] = None):
        if photon is not None and \
                [ep.node for ep in photon] != cluster.ranks:
            raise SimulationError("photon must be the ranks' own endpoints")
        if monitors is not None and \
                list(monitors) != [node.health for node in cluster.ranks]:
            raise SimulationError(
                "monitors must be the ranks' own detectors (build_health)")
        self.cluster = cluster
        self.schedule = schedule
        self.env = cluster.env
        #: fabric-scoped: fault injection is infrastructure, not rank work
        self.counters = cluster.metrics.fabric
        #: (t_applied_ns, event) log — the ground truth for experiments
        self.applied: List[Tuple[int, ChaosEvent]] = []
        self._streams = None
        self._armed = False

    # ---------------------------------------------------------------- arming
    def arm(self) -> None:
        """Start the controller process (no-op for an empty schedule)."""
        if self._armed:
            raise SimulationError("chaos controller already armed")
        self._armed = True
        if self.schedule.empty:
            return  # inert: no process, no RNG, no trace — golden-safe
        self._streams = self.cluster.rng.namespace("chaos")
        self.env.process(self._run(), name="chaos:ctrl")

    # ---------------------------------------------------------------- driver
    def _run(self):
        for ev in self.schedule.events:
            if ev.t_ns > self.env.now:
                yield self.env.timeout(ev.t_ns - self.env.now)
            yield from self._apply(ev)
            self.applied.append((self.env.now, ev))
            self.counters.add("chaos.events")

    def _apply(self, ev: ChaosEvent):
        if isinstance(ev, CrashRank):
            self.cluster[ev.rank].crash()
            self.counters.add("chaos.crashes")
            self.counters.log(self.env.now, "chaos.crash", rank=ev.rank)
        elif isinstance(ev, RestartRank):
            yield from self.cluster[ev.rank].restart()
            self.counters.add("chaos.restarts")
            self.counters.log(self.env.now, "chaos.restart", rank=ev.rank)
        elif isinstance(ev, PartitionEvent):
            self.cluster.topology.partition(ev.group_a, ev.group_b)
            self.counters.add("chaos.partitions")
            self.counters.log(self.env.now, "chaos.partition",
                              group_a=tuple(ev.group_a),
                              group_b=tuple(ev.group_b))
        elif isinstance(ev, HealEvent):
            self.cluster.topology.heal(ev.group_a, ev.group_b)
            self.counters.add("chaos.heals")
            self.counters.log(self.env.now, "chaos.heal")
        elif isinstance(ev, GrayLink):
            self._gray(ev)
        elif isinstance(ev, FlapLink):
            self.env.process(self._flap(ev), name=f"chaos:flap-{ev.link}")
        elif isinstance(ev, ClearLink):
            self.cluster.topology.link(ev.link).arm_chaos(None)
            self.counters.add("chaos.clears")
            self.counters.log(self.env.now, "chaos.clear", link=ev.link)
        else:  # pragma: no cover - schedule validation prevents this
            raise SimulationError(f"unknown chaos event {ev!r}")

    # ---------------------------------------------------------------- links
    def _gray(self, ev: GrayLink) -> None:
        link = self.cluster.topology.link(ev.link)
        rng = (self._streams.stream(f"jitter.{ev.link}")
               if ev.jitter_ns else None)
        link.arm_chaos(LinkChaos(latency_add_ns=ev.latency_add_ns,
                                 bw_scale=ev.bw_scale,
                                 jitter_ns=ev.jitter_ns, rng=rng))
        self.counters.add("chaos.grays")
        self.counters.log(self.env.now, "chaos.gray", link=ev.link,
                          latency_add_ns=ev.latency_add_ns,
                          bw_scale=ev.bw_scale, jitter_ns=ev.jitter_ns)
        if ev.duration_ns:
            self.env.process(self._clear_after(ev.link, ev.duration_ns),
                             name=f"chaos:clear-{ev.link}")

    def _clear_after(self, link_name: str, duration_ns: int):
        yield self.env.timeout(duration_ns)
        self.cluster.topology.link(link_name).arm_chaos(None)
        self.counters.add("chaos.clears")
        self.counters.log(self.env.now, "chaos.clear", link=link_name)

    def _flap(self, ev: FlapLink):
        link = self.cluster.topology.link(ev.link)
        rng = self._streams.stream(f"flap.{ev.link}")
        link.arm_chaos(LinkChaos(up=False))
        self.counters.add("chaos.flaps")
        self.counters.log(self.env.now, "chaos.flap", link=ev.link,
                          period_ns=ev.period_ns, duty=ev.duty)
        deadline = (self.env.now + ev.duration_ns
                    if ev.duration_ns else None)
        up_ns = max(1, int(ev.period_ns * ev.duty))
        down_ns = max(1, ev.period_ns - up_ns)

        def jittered(base: int) -> int:
            # +/- nothing fancy: up to 25% stretch from the flap stream,
            # so two flapping links never phase-lock
            return base + int(rng.integers(0, max(1, base // 4)))

        while deadline is None or self.env.now < deadline:
            yield self.env.timeout(jittered(down_ns))
            link.arm_chaos(None)
            if deadline is not None and self.env.now >= deadline:
                break
            yield self.env.timeout(jittered(up_ns))
            link.arm_chaos(LinkChaos(up=False))
            self.counters.add("chaos.flap_downs")
        link.arm_chaos(None)
        self.counters.log(self.env.now, "chaos.clear", link=ev.link)
