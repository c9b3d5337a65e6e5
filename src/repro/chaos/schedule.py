"""Fault schedules: timed, declarative chaos events.

A :class:`FaultSchedule` is an ordered list of events, each pinned to a
simulated timestamp.  The :class:`~repro.chaos.controller.ChaosController`
walks the schedule inside the simulation, so a given ``(schedule, seed)``
pair replays bit-identically — chaos here is an *input*, not noise.

Event kinds:

- :class:`CrashRank` / :class:`RestartRank` — fail-stop a rank (volatile
  endpoint state lost, NIC powered off) and later restart it in place
  (memory zeroed, re-registration, ledger re-arm, new incarnation).
- :class:`PartitionEvent` / :class:`HealEvent` — cut / restore all
  traffic between two rank groups, both directions, over any topology.
- :class:`GrayLink` — degrade (don't kill) one named link: added
  latency, a bandwidth fraction, propagation jitter.  Optionally
  self-clearing after ``duration_ns``.
- :class:`FlapLink` — oscillate one link up/down with a period and duty
  cycle for ``duration_ns`` (the classic flapping-port gray failure).
- :class:`ClearLink` — remove any gray/flap state from a link.

An empty schedule is inert by construction: the controller spawns no
process for it, so golden traces stay bit-identical with chaos armed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

__all__ = ["CrashRank", "RestartRank", "PartitionEvent", "HealEvent",
           "GrayLink", "FlapLink", "ClearLink", "FaultSchedule",
           "ChaosEvent"]


@dataclass(frozen=True)
class CrashRank:
    """Fail-stop ``rank`` at ``t_ns``: ``RankNode.crash()``, which states
    the order its layers die in."""
    t_ns: int
    rank: int


@dataclass(frozen=True)
class RestartRank:
    """Restart a previously crashed ``rank`` at ``t_ns``:
    ``RankNode.restart()``, which states the order its layers come back
    in."""
    t_ns: int
    rank: int


@dataclass(frozen=True)
class PartitionEvent:
    """Cut all traffic between ``group_a`` and ``group_b`` (both ways)."""
    t_ns: int
    group_a: Tuple[int, ...]
    group_b: Tuple[int, ...]


@dataclass(frozen=True)
class HealEvent:
    """Remove a cut; with no groups, remove every cut."""
    t_ns: int
    group_a: Optional[Tuple[int, ...]] = None
    group_b: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class GrayLink:
    """Degrade link ``link`` without killing it."""
    t_ns: int
    link: str
    latency_add_ns: int = 0
    #: multiply effective bandwidth by this (0 < bw_scale <= 1)
    bw_scale: float = 1.0
    #: add uniform [0, jitter_ns) to each chunk's propagation delay
    jitter_ns: int = 0
    #: self-clear after this long (0 = persists until ClearLink)
    duration_ns: int = 0


@dataclass(frozen=True)
class FlapLink:
    """Oscillate link ``link`` between up and down."""
    t_ns: int
    link: str
    period_ns: int
    #: fraction of each period the link is up (0 < duty < 1)
    duty: float = 0.5
    duration_ns: int = 0


@dataclass(frozen=True)
class ClearLink:
    """Remove all gray/flap state from link ``link``."""
    t_ns: int
    link: str


ChaosEvent = Union[CrashRank, RestartRank, PartitionEvent, HealEvent,
                   GrayLink, FlapLink, ClearLink]


@dataclass
class FaultSchedule:
    """An ordered fault plan (events sorted by time, stable on ties)."""

    events: List[ChaosEvent] = field(default_factory=list)

    def __post_init__(self):
        for ev in self.events:
            self._check(ev)
        # stable sort: same-time events keep their declaration order
        self.events = sorted(self.events, key=lambda e: e.t_ns)

    @staticmethod
    def _check(ev: ChaosEvent) -> None:
        if ev.t_ns < 0:
            raise ValueError(f"event time must be >= 0: {ev}")
        if isinstance(ev, GrayLink):
            if not 0.0 < ev.bw_scale <= 1.0:
                raise ValueError(f"bw_scale must be in (0, 1]: {ev}")
            if ev.latency_add_ns < 0 or ev.jitter_ns < 0 \
                    or ev.duration_ns < 0:
                raise ValueError(f"negative gray parameter: {ev}")
        if isinstance(ev, FlapLink):
            if ev.period_ns <= 0:
                raise ValueError(f"flap period must be positive: {ev}")
            if not 0.0 < ev.duty < 1.0:
                raise ValueError(f"flap duty must be in (0, 1): {ev}")

    @property
    def empty(self) -> bool:
        return not self.events

    def horizon_ns(self) -> int:
        """Time of the last scheduled event (0 when empty)."""
        return self.events[-1].t_ns if self.events else 0
