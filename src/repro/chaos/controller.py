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

Event application order matters and is fixed:

- crash: detector halt → endpoint crash (volatile state dropped, QPs
  torn down) → NIC power-off.  The dead rank stops heartbeating *and*
  stops acking, so peers' detectors starve naturally.
- restart: memory reset (contents + pins lost) → NIC power-on →
  endpoint rejoin (re-registration, ledger re-arm — charges simulated
  time) → detector resume with a bumped incarnation.  Survivors re-arm
  their pairing when the first new-incarnation heartbeat arrives.
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
    cluster (and, optionally, its photon endpoints and health monitors).

    Parameters
    ----------
    cluster:
        The :class:`~repro.cluster.Cluster` under test.
    schedule:
        The fault plan.  Empty schedules are inert (see module docstring).
    photon:
        Optional list of :class:`~repro.photon.api.Photon` endpoints;
        required for :class:`CrashRank` / :class:`RestartRank` events so
        endpoint state dies and rejoins with the rank.
    monitors:
        Optional list of :class:`~repro.runtime.health.HealthMonitor`;
        when present the victim's detector is halted across the crash
        and resumed (new incarnation) at restart.
    kv:
        Optional list of :class:`~repro.kv.store.KVNode`; when present a
        crash drops the victim's replica state (``on_crash``) and a
        restart reseeds it empty (``reseed``) so it rejoins its groups
        via Raft snapshot transfer rather than resurrecting with
        pre-crash volatile state.
    """

    def __init__(self, cluster, schedule: FaultSchedule,
                 photon: Optional[List] = None,
                 monitors: Optional[List] = None,
                 kv: Optional[List] = None):
        self.cluster = cluster
        self.schedule = schedule
        self.photon = photon
        self.monitors = monitors
        self.kv = kv
        self.env = cluster.env
        self.tracer = cluster.tracer
        #: fabric-scoped: fault injection is infrastructure, not rank work
        self.counters = cluster.metrics.fabric
        #: (t_applied_ns, event) log — the ground truth for experiments
        self.applied: List[Tuple[int, ChaosEvent]] = []
        self._streams = None
        self._armed = False
        self._crashed: set = set()

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
            self._crash(ev.rank)
        elif isinstance(ev, RestartRank):
            yield from self._restart(ev.rank)
        elif isinstance(ev, PartitionEvent):
            self.cluster.topology.partition(ev.group_a, ev.group_b)
            self.counters.add("chaos.partitions")
            self.tracer.log(self.env.now, "chaos.partition",
                            group_a=tuple(ev.group_a),
                            group_b=tuple(ev.group_b))
        elif isinstance(ev, HealEvent):
            self.cluster.topology.heal(ev.group_a, ev.group_b)
            self.counters.add("chaos.heals")
            self.tracer.log(self.env.now, "chaos.heal")
        elif isinstance(ev, GrayLink):
            self._gray(ev)
        elif isinstance(ev, FlapLink):
            self.env.process(self._flap(ev), name=f"chaos:flap-{ev.link}")
        elif isinstance(ev, ClearLink):
            self.cluster.topology.link(ev.link).arm_chaos(None)
            self.counters.add("chaos.clears")
            self.tracer.log(self.env.now, "chaos.clear", link=ev.link)
        else:  # pragma: no cover - schedule validation prevents this
            raise SimulationError(f"unknown chaos event {ev!r}")

    # ---------------------------------------------------------------- ranks
    def _crash(self, rank: int) -> None:
        if rank in self._crashed:
            raise SimulationError(f"rank {rank} is already crashed")
        self._crashed.add(rank)
        if self.monitors is not None:
            self.monitors[rank].halt()
        if self.photon is not None:
            self.photon[rank].crash_local()
        self.cluster[rank].nic.power_off()
        if self.kv is not None:
            self.kv[rank].on_crash()
        self.counters.add("chaos.crashes")
        self.tracer.log(self.env.now, "chaos.crash", rank=rank)

    def _restart(self, rank: int):
        if rank not in self._crashed:
            raise SimulationError(f"rank {rank} is not crashed")
        self.cluster[rank].memory.reset()
        self.cluster[rank].nic.power_on()
        if self.photon is not None:
            yield from self.photon[rank].rejoin()
        if self.monitors is not None:
            self.monitors[rank].resume()
        if self.kv is not None:
            self.kv[rank].reseed()
        self._crashed.discard(rank)
        self.counters.add("chaos.restarts")
        self.tracer.log(self.env.now, "chaos.restart", rank=rank)

    # ---------------------------------------------------------------- links
    def _gray(self, ev: GrayLink) -> None:
        link = self.cluster.topology.link(ev.link)
        rng = (self._streams.stream(f"jitter.{ev.link}")
               if ev.jitter_ns else None)
        link.arm_chaos(LinkChaos(latency_add_ns=ev.latency_add_ns,
                                 bw_scale=ev.bw_scale,
                                 jitter_ns=ev.jitter_ns, rng=rng))
        self.counters.add("chaos.grays")
        self.tracer.log(self.env.now, "chaos.gray", link=ev.link,
                        latency_add_ns=ev.latency_add_ns,
                        bw_scale=ev.bw_scale, jitter_ns=ev.jitter_ns)
        if ev.duration_ns:
            self.env.process(self._clear_after(ev.link, ev.duration_ns),
                             name=f"chaos:clear-{ev.link}")

    def _clear_after(self, link_name: str, duration_ns: int):
        yield self.env.timeout(duration_ns)
        self.cluster.topology.link(link_name).arm_chaos(None)
        self.counters.add("chaos.clears")
        self.tracer.log(self.env.now, "chaos.clear", link=link_name)

    def _flap(self, ev: FlapLink):
        link = self.cluster.topology.link(ev.link)
        rng = self._streams.stream(f"flap.{ev.link}")
        link.arm_chaos(LinkChaos(up=False))
        self.counters.add("chaos.flaps")
        self.tracer.log(self.env.now, "chaos.flap", link=ev.link,
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
        self.tracer.log(self.env.now, "chaos.clear", link=ev.link)
