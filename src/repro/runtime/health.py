"""Heartbeat service and phi-accrual failure detection.

Each rank runs a :class:`HealthMonitor`: a beat loop that sends zero-byte
heartbeat messages to every peer over the *real* fabric (so partitions,
gray links and powered-off NICs starve detection exactly like data), and
a phi-accrual-style detector per peer that turns heartbeat arrival gaps
into a continuous suspicion level.

Suspicion: assuming exponential inter-arrival with the observed mean,
``phi = (now - last_rx) / (mean * ln 10)`` — i.e. phi is the number of
decimal orders of magnitude of confidence that the peer is gone.  Two
thresholds map phi onto the membership states::

    alive --phi >= PHI_SUSPECT--> suspect --phi >= phi_dead--> dead

DEAD is sticky: a dead peer only returns to ALIVE when a heartbeat with
a *higher incarnation number* arrives (the peer restarted), which keeps
every monitor's membership view monotonic.  SUSPECT is not sticky — one
fresh heartbeat clears it (gray link, not a crash).

:func:`build_health` installs each monitor as its rank's
``RankNode.health``.  A verdict calls the rank's ``on_peer_dead`` /
``on_peer_join`` lists, which every layer on the rank (Photon, minimpi,
AM, KV) joins when it is built, before or after the monitor; transports
ask ``node.health.is_dead`` at each send.  This is the one source of
"peer down".

Nothing in this module runs unless :func:`build_health` is called, so
un-chaosed runs are bit-identical with or without the module imported.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..fabric.nic import WireMsg
from ..sim.core import SimulationError

__all__ = ["HealthConfig", "PhiAccrualDetector", "MembershipView",
           "HealthMonitor", "build_health", "DETECT_BUDGET_NS",
           "ALIVE", "SUSPECT", "DEAD"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

_LN10 = math.log(10.0)

#: phi at which a peer becomes SUSPECT (cleared by one heartbeat)
PHI_SUSPECT = 2.0
#: EWMA weight of the newest inter-arrival sample
EWMA_ALPHA = 0.2
#: ignore samples shorter than this (heartbeat bunching after a stall), ns
MIN_INTERVAL_NS = 1_000


@dataclass(frozen=True)
class HealthConfig:
    """Failure-detector tuning (see DESIGN.md fault-model section)."""

    #: heartbeat period per peer (ns)
    period_ns: int = 50_000
    #: phi at which a peer is declared DEAD (sticky; needs an incarnation
    #: bump to clear).  Detection latency ~= phi_dead * mean * ln(10).
    phi_dead: float = 6.0

    def validate(self) -> None:
        if self.period_ns <= 0:
            raise ValueError("period_ns must be positive")
        if self.phi_dead <= PHI_SUSPECT:
            raise ValueError("phi_dead must exceed PHI_SUSPECT")


#: the default detector's detection latency on a quiet fabric (mean ==
#: period), ns
DETECT_BUDGET_NS = int(HealthConfig.phi_dead * HealthConfig.period_ns * _LN10)


class PhiAccrualDetector:
    """Suspicion level for one observed peer (no RNG — fully determined
    by heartbeat arrival times)."""

    __slots__ = ("mean_ns", "last_rx", "samples")

    def __init__(self, config: HealthConfig, now: int):
        # seed the mean at the nominal period so the very first gaps are
        # judged against a sane baseline instead of dividing by zero
        self.mean_ns = float(config.period_ns)
        self.last_rx = now
        self.samples = 0

    def sample(self, now: int) -> None:
        interval = now - self.last_rx
        self.last_rx = now
        if interval < MIN_INTERVAL_NS:
            return
        self.samples += 1
        self.mean_ns += EWMA_ALPHA * (interval - self.mean_ns)

    def phi(self, now: int) -> float:
        elapsed = now - self.last_rx
        if elapsed <= 0:
            return 0.0
        return elapsed / (self.mean_ns * _LN10)


class MembershipView:
    """Monotonic membership: the version only moves forward, and a DEAD
    rank only returns through a higher incarnation."""

    def __init__(self, n: int):
        self.version = 0
        self.status: Dict[int, str] = {r: ALIVE for r in range(n)}
        self.incarnation: Dict[int, int] = {r: 1 for r in range(n)}
        #: bounded log of (version, rank, old, new, incarnation)
        self.history: Deque[Tuple[int, int, str, str, int]] = \
            deque(maxlen=4096)

    def transition(self, rank: int, new: str,
                   incarnation: Optional[int] = None) -> bool:
        old = self.status[rank]
        if incarnation is not None:
            self.incarnation[rank] = incarnation
        if old == new:
            return False
        self.status[rank] = new
        self.version += 1
        self.history.append((self.version, rank, old, new,
                             self.incarnation[rank]))
        return True


class HealthMonitor:
    """Heartbeat + detection for one rank (see module docstring)."""

    def __init__(self, cluster, rank: int,
                 config: Optional[HealthConfig] = None):
        self.cluster = cluster
        self.rank = rank
        self.config = config or HealthConfig()
        self.config.validate()
        self.env = cluster.env
        self.node = cluster[rank]
        self.counters = cluster.scope(rank)
        self.view = MembershipView(cluster.n)
        self.incarnation = 1
        #: True between a chaos halt() and the matching resume()
        self.halted = False
        self._detectors: Dict[int, PhiAccrualDetector] = {}
        self._mesh: Dict[int, "HealthMonitor"] = {}
        self._outage_spans: Dict[int, object] = {}
        self._started = False

    # ------------------------------------------------------------- wiring
    def is_dead(self, rank: int) -> bool:
        """Is ``rank`` (one of the cluster's) declared dead now?"""
        return self.view.status[rank] == DEAD

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        now = self.env.now
        for peer in range(self.cluster.n):
            if peer != self.rank:
                self._detectors[peer] = PhiAccrualDetector(self.config, now)
        self.env.process(self._beat_loop(),
                         name=f"health{self.rank}:beat")

    # -------------------------------------------------------------- chaos
    def halt(self) -> None:
        """The rank crashed (``RankNode.crash``, first): stop beating,
        sampling and evaluating."""
        self.halted = True

    def resume(self) -> None:
        """The rank restarted (``RankNode.restart``, last): a new
        incarnation and a fresh (bootstrap) view — a restarted process
        has no memory of its old suspicions."""
        self.incarnation += 1
        self.halted = False
        now = self.env.now
        self.view = MembershipView(self.cluster.n)
        for det in self._detectors.values():
            det.last_rx = now
            det.mean_ns = float(self.config.period_ns)
            det.samples = 0
        self.counters.add("health.restarts")

    # ------------------------------------------------------------ beating
    def _beat_loop(self):
        period = self.config.period_ns
        while True:
            yield self.env.timeout(period)
            if self.halted:
                continue
            for peer in self._detectors:
                self._send_heartbeat(peer)
            self._evaluate()

    def _send_heartbeat(self, peer: int) -> None:
        inc = self.incarnation
        target = self._mesh.get(peer)

        def delivered(nic, msg, _target=target, _src=self.rank, _inc=inc):
            if _target is not None:
                _target.receive(_src, _inc, nic.env.now)

        self.node.nic.transmit(WireMsg(
            src=self.rank, dst=peer, nbytes=0, kind="hb",
            on_delivered=delivered))
        self.counters.add("health.heartbeats")

    def receive(self, src: int, incarnation: int, now: int) -> None:
        if self.halted:
            return
        det = self._detectors.get(src)
        if det is None:
            return
        known = self.view.incarnation.get(src, 1)
        if incarnation > known:
            # the peer restarted: DEAD -> ALIVE is legal exactly here
            det.last_rx = now
            det.mean_ns = float(self.config.period_ns)
            det.samples = 0
            if self.view.transition(src, ALIVE, incarnation=incarnation):
                self.counters.add("health.joins")
                self.counters.log(now, "health.join", observer=self.rank,
                                  rank=src, incarnation=incarnation)
                span = self._outage_spans.pop(src, None)
                if span is not None:
                    span.end(now, status="recovered")
                for cb in self.node.on_peer_join:
                    cb(src)
            return
        if self.view.status[src] == DEAD:
            return  # stale incarnation of a dead peer: sticky
        det.sample(now)
        if self.view.status[src] == SUSPECT:
            if self.view.transition(src, ALIVE):
                self.counters.add("health.recoveries")

    def _evaluate(self) -> None:
        now = self.env.now
        for peer, det in self._detectors.items():
            status = self.view.status[peer]
            if status == DEAD:
                continue
            phi = det.phi(now)
            if phi >= self.config.phi_dead:
                self.view.transition(peer, DEAD)
                self.counters.add("health.deaths")
                self.counters.log(now, "health.dead", observer=self.rank,
                                  rank=peer, phi=round(phi, 2))
                # detection latency: last heartbeat seen -> declaration
                span = self.counters.span("health.detect", det.last_rx,
                                          peer=peer)
                if span is not None:
                    span.end(now)
                self._outage_spans[peer] = self.counters.span(
                    "health.outage", now, peer=peer)
                for cb in self.node.on_peer_dead:
                    cb(peer)
            elif phi >= PHI_SUSPECT and status == ALIVE:
                self.view.transition(peer, SUSPECT)
                self.counters.add("health.suspects")
                self.counters.log(now, "health.suspect", observer=self.rank,
                                  rank=peer, phi=round(phi, 2))


def build_health(cluster, config: Optional[HealthConfig] = None,
                 start: bool = True) -> List[HealthMonitor]:
    """One started :class:`HealthMonitor` per rank, mesh-wired and
    installed as its rank's ``health`` (a rank has one detector)."""
    if any(node.health is not None for node in cluster.ranks):
        raise SimulationError("the ranks already have failure detectors")
    monitors = [HealthMonitor(cluster, r, config) for r in range(cluster.n)]
    mesh = {m.rank: m for m in monitors}
    for m in monitors:
        m._mesh = mesh
        m.node.health = m
        if start:
            m.start()
    return monitors
